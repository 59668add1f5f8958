#include "service/net_fault.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "pmemkit/faultkit.hpp"
#include "pmemkit/splitmix.hpp"

namespace cxlpmem::service {

namespace {

struct NetInjector {
  std::mutex mu;
  bool armed = false;  // mirrored in g_armed for the fast path
  NetFaultPlan plan;
  std::vector<bool> consumed;  // parallel to plan.fixed, one-shot entries
  std::uint64_t crossings[kNetOpCount] = {};
  NetFaultStats stats;
  // fd -> remaining byte budget before the connection dies with ECONNRESET.
  std::unordered_map<int, std::uint64_t> reset_budget;
};

std::atomic<bool> g_armed{false};

NetInjector& injector() {
  static NetInjector inj;
  return inj;
}

// --- DSL ---------------------------------------------------------------------

const char* kOpNames[kNetOpCount] = {"send", "recv", "connect"};
const char* kKindNames[kNetFaultKindCount] = {"drop", "stall", "partial",
                                              "reset"};

[[noreturn]] void bad_dsl(std::string_view entry, const char* why) {
  throw std::invalid_argument("net-fault DSL: " + std::string(why) + " in '" +
                              std::string(entry) + "'");
}

std::optional<NetOp> op_of(std::string_view name) noexcept {
  for (int i = 0; i < kNetOpCount; ++i)
    if (name == kOpNames[i]) return static_cast<NetOp>(i);
  return std::nullopt;
}

std::optional<NetFaultKind> kind_of(std::string_view name) noexcept {
  for (int i = 0; i < kNetFaultKindCount; ++i)
    if (name == kKindNames[i]) return static_cast<NetFaultKind>(i);
  return std::nullopt;
}

/// drop only makes sense where bytes move; connect supports stall/reset.
bool op_supports(NetOp op, NetFaultKind kind) noexcept {
  switch (kind) {
    case NetFaultKind::Stall:
    case NetFaultKind::Reset:
      return true;
    case NetFaultKind::Drop:
      return op == NetOp::Send;
    case NetFaultKind::Partial:
      return op == NetOp::Send || op == NetOp::Recv;
  }
  return false;
}

std::uint64_t parse_u64(std::string_view s, std::string_view entry,
                        const char* what) {
  if (s.empty()) bad_dsl(entry, what);
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') bad_dsl(entry, what);
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

/// The random component draws only transient kinds: a stall or an
/// immediate reset.  Drops and partials are opt-in (explicit entries) —
/// a randomly swallowed send would fail the soak's ack-durability check
/// for the wrong reason (the client believes a write the server never saw
/// only if the *reply* was forged, which drop cannot do — but partials at
/// random rates turn every run into a parser micro-test, not a soak).
NetFaultKind random_kind(std::uint64_t draw) noexcept {
  return (draw & 1) != 0 ? NetFaultKind::Stall : NetFaultKind::Reset;
}

}  // namespace

const char* to_string(NetOp op) noexcept {
  const int i = static_cast<int>(op);
  return i >= 0 && i < kNetOpCount ? kOpNames[i] : "?";
}

const char* to_string(NetFaultKind k) noexcept {
  const int i = static_cast<int>(k);
  return i >= 0 && i < kNetFaultKindCount ? kKindNames[i] : "?";
}

NetFaultPlan NetFaultPlan::parse(std::string_view dsl) {
  NetFaultPlan plan;
  std::string_view rest = dsl;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view entry = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    while (!entry.empty() && entry.front() == ' ') entry.remove_prefix(1);
    while (!entry.empty() && entry.back() == ' ') entry.remove_suffix(1);
    if (entry.empty()) continue;
    if (entry.rfind("random:", 0) == 0) {
      std::string_view kvs = entry.substr(7);
      while (!kvs.empty()) {
        const std::size_t comma = kvs.find(',');
        const std::string_view kv = kvs.substr(0, comma);
        kvs = comma == std::string_view::npos ? std::string_view()
                                              : kvs.substr(comma + 1);
        const std::size_t eq = kv.find('=');
        if (eq == std::string_view::npos) bad_dsl(entry, "expected key=value");
        const std::string_view key = kv.substr(0, eq);
        const std::string_view val = kv.substr(eq + 1);
        if (key == "seed") {
          plan.seed = parse_u64(val, entry, "bad seed");
        } else if (key == "rate") {
          const std::uint64_t r = parse_u64(val, entry, "bad rate");
          if (r > 1000000) bad_dsl(entry, "rate above 1000000 ppm");
          plan.rate_ppm = static_cast<std::uint32_t>(r);
        } else if (key == "stall") {
          plan.stall_ms =
              static_cast<std::uint32_t>(parse_u64(val, entry, "bad stall"));
        } else {
          bad_dsl(entry, "unknown key");
        }
      }
      continue;
    }
    // <op>:<kind>@<n>[+<arg>]
    const std::size_t colon = entry.find(':');
    if (colon == std::string_view::npos) bad_dsl(entry, "expected op:kind");
    const std::optional<NetOp> op = op_of(entry.substr(0, colon));
    if (!op) bad_dsl(entry, "unknown op");
    std::string_view kind_at = entry.substr(colon + 1);
    const std::size_t at_pos = kind_at.find('@');
    if (at_pos == std::string_view::npos) bad_dsl(entry, "expected kind@n");
    const std::optional<NetFaultKind> kind =
        kind_of(kind_at.substr(0, at_pos));
    if (!kind) bad_dsl(entry, "unknown kind");
    if (!op_supports(*op, *kind))
      bad_dsl(entry, "kind not injectable at this op");
    std::string_view n_arg = kind_at.substr(at_pos + 1);
    NetFault f;
    f.op = *op;
    f.kind = *kind;
    const std::size_t plus = n_arg.find('+');
    f.at = parse_u64(n_arg.substr(0, plus), entry, "bad crossing index");
    if (f.at == 0) bad_dsl(entry, "crossing index is 1-based");
    if (plus != std::string_view::npos)
      f.arg = parse_u64(n_arg.substr(plus + 1), entry, "bad argument");
    plan.fixed.push_back(f);
  }
  return plan;
}

std::string NetFaultPlan::to_dsl() const {
  std::string out;
  for (const NetFault& f : fixed) {
    if (!out.empty()) out += ';';
    out += std::string(to_string(f.op)) + ":" + to_string(f.kind) + "@" +
           std::to_string(f.at);
    if (f.arg != 0) out += "+" + std::to_string(f.arg);
  }
  if (rate_ppm != 0) {
    if (!out.empty()) out += ';';
    out += "random:seed=" + std::to_string(seed) +
           ",rate=" + std::to_string(rate_ppm) +
           ",stall=" + std::to_string(stall_ms);
  }
  return out;
}

void arm_net_faults(NetFaultPlan plan) {
  NetInjector& inj = injector();
  const std::lock_guard<std::mutex> lock(inj.mu);
  inj.plan = std::move(plan);
  inj.consumed.assign(inj.plan.fixed.size(), false);
  std::fill(std::begin(inj.crossings), std::end(inj.crossings), 0);
  inj.stats = NetFaultStats{};
  inj.reset_budget.clear();
  inj.armed = true;
  g_armed.store(true, std::memory_order_release);
}

std::optional<std::uint64_t> arm_net_faults_from_env() {
  const char* dsl = std::getenv("CXLPMEM_NET_FAULTS");
  if (dsl == nullptr || *dsl == '\0') return std::nullopt;
  NetFaultPlan plan = NetFaultPlan::parse(dsl);
  if (const std::optional<std::uint64_t> seed = pmemkit::fault_seed_from_env())
    plan.seed = *seed;
  const std::uint64_t seed = plan.seed;
  arm_net_faults(std::move(plan));
  return seed;
}

void clear_net_faults() {
  NetInjector& inj = injector();
  const std::lock_guard<std::mutex> lock(inj.mu);
  inj.armed = false;
  inj.plan = NetFaultPlan{};
  inj.consumed.clear();
  inj.reset_budget.clear();
  g_armed.store(false, std::memory_order_release);
}

bool net_faults_armed() noexcept {
  return g_armed.load(std::memory_order_relaxed);
}

NetFaultStats net_fault_stats() {
  NetInjector& inj = injector();
  const std::lock_guard<std::mutex> lock(inj.mu);
  return inj.stats;
}

void net_fault_forget_fd(int fd) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  NetInjector& inj = injector();
  const std::lock_guard<std::mutex> lock(inj.mu);
  inj.reset_budget.erase(fd);
}

namespace {

/// The decision for one crossing: nothing, or a fault to apply.  Also
/// charges `bytes` against the fd's reset budget (armed by reset@N+B) and
/// converts an exhausted budget into an immediate reset.
std::optional<NetFault> cross(NetOp op, int fd, std::uint64_t bytes) {
  NetInjector& inj = injector();
  const std::lock_guard<std::mutex> lock(inj.mu);
  if (!inj.armed) return std::nullopt;
  const int oi = static_cast<int>(op);
  const std::uint64_t crossing = ++inj.crossings[oi];
  ++inj.stats.crossings[oi];

  // A previously armed per-fd budget fires regardless of schedule.
  if (const auto it = inj.reset_budget.find(fd);
      it != inj.reset_budget.end()) {
    if (it->second <= bytes) {
      inj.reset_budget.erase(it);
      ++inj.stats.injected[static_cast<int>(NetFaultKind::Reset)];
      NetFault f;
      f.op = op;
      f.kind = NetFaultKind::Reset;
      f.at = crossing;
      return f;
    }
    it->second -= bytes;
  }

  std::optional<NetFault> fired;
  for (std::size_t i = 0; i < inj.plan.fixed.size(); ++i) {
    const NetFault& f = inj.plan.fixed[i];
    if (!inj.consumed[i] && f.op == op && f.at == crossing) {
      inj.consumed[i] = true;
      if (f.kind == NetFaultKind::Reset && f.arg > bytes) {
        // reset@N+B with budget left: arm the per-fd countdown instead of
        // firing now — the fd dies mid-stream B bytes from here.
        inj.reset_budget[fd] = f.arg - bytes;
        break;
      }
      fired = f;
      break;
    }
  }
  if (!fired && inj.plan.rate_ppm != 0) {
    // Same draw as pmemkit/faultkit: one per (seed, op, crossing), so
    // injection decisions are independent of thread interleaving.
    const std::uint64_t draw = pmemkit::splitmix64(
        inj.plan.seed ^ (static_cast<std::uint64_t>(oi) << 56) ^ crossing);
    if (draw % 1000000 < inj.plan.rate_ppm) {
      NetFault f;
      f.op = op;
      f.kind = random_kind(draw >> 32);
      f.at = crossing;
      f.arg = f.kind == NetFaultKind::Stall ? inj.plan.stall_ms : 0;
      fired = f;
    }
  }
  if (fired) ++inj.stats.injected[static_cast<int>(fired->kind)];
  return fired;
}

void stall_for(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms != 0 ? ms : 20));
}

}  // namespace

ssize_t net_send(int fd, const void* buf, std::size_t len, int flags) {
  if (g_armed.load(std::memory_order_relaxed)) {
    if (const std::optional<NetFault> f = cross(NetOp::Send, fd, len)) {
      switch (f->kind) {
        case NetFaultKind::Drop:
          return static_cast<ssize_t>(len);  // the wire ate it
        case NetFaultKind::Stall:
          stall_for(f->arg);
          break;  // then send normally
        case NetFaultKind::Partial:
          len = std::min<std::size_t>(len, 1);
          break;
        case NetFaultKind::Reset:
          errno = ECONNRESET;
          return -1;
      }
    }
  }
  return ::send(fd, buf, len, flags);
}

ssize_t net_recv(int fd, void* buf, std::size_t len, int flags) {
  if (g_armed.load(std::memory_order_relaxed)) {
    // Budget accounting uses the request size; what matters is that a
    // budget of B dies within O(B) transferred bytes, not exactness.
    if (const std::optional<NetFault> f = cross(NetOp::Recv, fd, len)) {
      switch (f->kind) {
        case NetFaultKind::Stall:
          stall_for(f->arg);
          break;
        case NetFaultKind::Partial:
          len = std::min<std::size_t>(len, 1);
          break;
        case NetFaultKind::Reset:
          errno = ECONNRESET;
          return -1;
        case NetFaultKind::Drop:
          break;  // unreachable: parse rejects recv:drop
      }
    }
  }
  return ::recv(fd, buf, len, flags);
}

int net_connect(int fd, const struct sockaddr* addr, std::size_t addrlen) {
  if (g_armed.load(std::memory_order_relaxed)) {
    if (const std::optional<NetFault> f = cross(NetOp::Connect, fd, 0)) {
      switch (f->kind) {
        case NetFaultKind::Stall:
          stall_for(f->arg);
          break;
        case NetFaultKind::Reset:
          errno = ECONNREFUSED;
          return -1;
        case NetFaultKind::Drop:
        case NetFaultKind::Partial:
          break;  // unreachable: parse rejects these at connect
      }
    }
  }
  return ::connect(fd, addr, static_cast<socklen_t>(addrlen));
}

}  // namespace cxlpmem::service
