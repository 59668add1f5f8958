// service/net_fault.hpp — deterministic network-fault injection shims.
//
// The media half of the failure model lives in pmemkit/faultkit; this is
// the link half.  Every socket syscall the service layer makes (client and
// server alike) goes through net_send/net_recv/net_connect below.  Shims
// disarmed: straight passthrough, one relaxed atomic load of overhead.
// Armed: each call crosses a deterministic schedule that can
//
//   drop     swallow the bytes and report success (the peer never sees them)
//   stall    sleep before the syscall (latency spike / congested link)
//   partial  truncate a send/recv to 1 byte (exercises every reassembly
//            loop — RespParser::NeedMore, send_all's resume-at-offset)
//   reset    fail with ECONNRESET, optionally only after N total bytes have
//            crossed that fd (mid-frame connection death)
//
// The schedule is the same shape as faultkit's: explicit one-shot entries
// ("the 3rd send is reset") plus a seeded Bernoulli component, so any
// failing sequence replays from its seed.  DSL (CXLPMEM_NET_FAULTS):
//
//   <op>:<kind>@<n>[+<arg>]    op in {send, recv, connect}; fires on the
//                              n-th crossing; arg = stall ms / reset byte
//   random:seed=<s>,rate=<ppm>[,stall=<ms>]
//
// reset@N+B is special: it arms a per-fd byte budget — the fd dies with
// ECONNRESET once B bytes have crossed it in either direction.  That is the
// "reset at byte N" primitive the chaos soak uses to kill connections in
// the middle of a RESP frame.
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cxlpmem::service {

enum class NetOp : std::uint8_t { Send, Recv, Connect };
enum class NetFaultKind : std::uint8_t { Drop, Stall, Partial, Reset };

inline constexpr int kNetOpCount = 3;
inline constexpr int kNetFaultKindCount = 4;

[[nodiscard]] const char* to_string(NetOp op) noexcept;
[[nodiscard]] const char* to_string(NetFaultKind k) noexcept;

struct NetFault {
  NetOp op = NetOp::Send;
  NetFaultKind kind = NetFaultKind::Reset;
  std::uint64_t at = 1;   ///< fires on the at-th crossing of `op` (1-based)
  std::uint64_t arg = 0;  ///< Stall: ms; Reset: fd byte budget (0 = now)
};

/// Deterministic link-fault plan; same contract as pmemkit::FaultPlan.
struct NetFaultPlan {
  std::vector<NetFault> fixed;
  std::uint64_t seed = 0;
  std::uint32_t rate_ppm = 0;
  std::uint32_t stall_ms = 20;

  /// Parses the DSL above; throws std::invalid_argument on malformed input.
  [[nodiscard]] static NetFaultPlan parse(std::string_view dsl);
  [[nodiscard]] std::string to_dsl() const;
};

/// Installs `plan` process-wide, resetting counters and per-fd state.
void arm_net_faults(NetFaultPlan plan);
/// Arms from CXLPMEM_NET_FAULTS (+ CXLPMEM_FAULT_SEED, strict as in
/// pmemkit::fault_seed_from_env); returns the armed plan's effective seed,
/// or nullopt when the variable is absent/empty.
std::optional<std::uint64_t> arm_net_faults_from_env();
void clear_net_faults();
[[nodiscard]] bool net_faults_armed() noexcept;

struct NetFaultStats {
  std::uint64_t crossings[kNetOpCount] = {};
  std::uint64_t injected[kNetFaultKindCount] = {};
  [[nodiscard]] std::uint64_t injected_total() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t k : injected) t += k;
    return t;
  }
};
[[nodiscard]] NetFaultStats net_fault_stats();

// --- the shims ---------------------------------------------------------------
// Drop-in for ::send / ::recv / ::connect.  Failures injected here set errno
// exactly as the kernel would (ECONNRESET / ETIMEDOUT), so callers keep one
// error path for real and injected faults alike.

ssize_t net_send(int fd, const void* buf, std::size_t len, int flags);
ssize_t net_recv(int fd, void* buf, std::size_t len, int flags);
int net_connect(int fd, const struct sockaddr* addr, std::size_t addrlen);

/// Forgets per-fd reset budgets for a closed descriptor (fd numbers are
/// recycled; stale budgets would fire on an unrelated connection).
void net_fault_forget_fd(int fd);

}  // namespace cxlpmem::service
