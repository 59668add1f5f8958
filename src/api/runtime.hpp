// api/runtime.hpp — the facade Runtime: namespace-addressed pools over a
// modelled machine.
//
// Built by RuntimeBuilder (api/runtime_builder.hpp), never constructed
// directly.  Every pool operation is addressed by *namespace name* — the
// paper's migration story ("Optane -> CXL is a namespace choice") is
// literally one argument here:
//
//   auto pool = rt.create_pool("pmem2", "kv");      // CXL-backed
//   auto pool = rt.create_pool("pmem0", "kv");      // emulated DRAM-PMem
//
// Entry points return Result<T>; the underlying core::Runtime remains
// reachable (core()) for components that still speak the throwing API.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/checkpoint_store.hpp"
#include "api/memory_space.hpp"
#include "api/pool.hpp"
#include "api/result.hpp"
#include "core/migrate.hpp"
#include "core/runtime.hpp"
#include "core/tiering.hpp"

namespace cxlpmem::api {

// The facade vocabulary for the placement and migration services — aliases
// so applications say api::PlacementRequest and never spell a core:: name.
using Tier = cxlpmem::core::Tier;
using PlacementRequest = cxlpmem::core::PlacementRequest;
using PlacementDecision = cxlpmem::core::PlacementDecision;
using PlacementPlan = cxlpmem::core::PlacementPlan;
using MigrationReport = cxlpmem::core::MigrationReport;
using PersistenceDomain = cxlpmem::core::PersistenceDomain;

/// Options for create_pool / open_pool.  Defaults make the quickstart a
/// one-liner; everything is overridable.
struct PoolSpec {
  /// Pool file inside the namespace.  Empty -> "<layout>.pool".
  std::string file;
  /// Pool size on create.  0 -> ObjectPool::min_pool_size().
  std::uint64_t size = 0;
  /// Permit pools on a *plain volatile* namespace.  Emulated-PMem
  /// namespaces never need this: exposing DRAM as pmem0/pmem1 was already
  /// the operator's opt-in, exactly like the paper's emulated mounts.
  bool allow_volatile = false;
  /// Open-time layout upgrade: a version-1 pool image (or one carrying an
  /// interrupted migration marker) is migrated in place to the current
  /// layout before the open completes.  Without it such images come back
  /// as Errc::VersionMismatch / Errc::PoolCorrupt.
  bool migrate = false;
  /// Attach PmemSan, the runtime persistency sanitizer: flush/fence
  /// discipline violations surface through the configured ViolationSink
  /// (throwing by default, so they come back as
  /// Errc::PersistencyViolation).  CXLPMEM_PMEMCHECK=1 enables it
  /// process-wide without touching specs.
  bool pmemcheck = false;
};

/// Options for checkpoint_store: the pool spec plus the incremental
/// engine's knobs.  `chunk_size` is the dirty-tracking granularity (rounded
/// to 4 KiB, pinned into the pool at creation); `threads` sizes the save
/// worker pool (0 = NUMA-aware default, 1 = saves stay on the caller).
struct CheckpointSpec {
  PoolSpec pool;
  std::uint64_t chunk_size = cxlpmem::core::kDefaultCheckpointChunk;
  int threads = 0;
};

class Runtime {
 public:
  Runtime(Runtime&&) = default;
  Runtime& operator=(Runtime&&) = default;

  // --- machine & namespaces --------------------------------------------------
  [[nodiscard]] const simkit::Machine& machine() const noexcept {
    return rt_->machine();
  }
  /// NUMA view of the machine (numactl -H equivalent).
  [[nodiscard]] const numakit::NumaTopology& topology() const noexcept {
    return rt_->topology();
  }
  /// Namespace names, ascending ("pmem0", "pmem1", "pmem2").
  [[nodiscard]] std::vector<std::string> namespaces() const;
  /// The MemorySpace handle behind a namespace name.
  [[nodiscard]] Result<MemorySpace> space(std::string_view name) const;
  /// NUMA node a namespace's device is onlined as (Memory Mode), or -1.
  [[nodiscard]] int node_of(std::string_view name) const;
  /// The namespace backed by a machine memory device — the bridge from a
  /// PlacementDecision::memory back into pool/checkpoint addressing.
  [[nodiscard]] Result<std::string> namespace_for(
      simkit::MemoryId memory) const;

  // --- pools -----------------------------------------------------------------
  [[nodiscard]] Result<Pool> create_pool(std::string_view ns,
                                         std::string_view layout,
                                         PoolSpec spec = PoolSpec());
  [[nodiscard]] Result<Pool> open_pool(std::string_view ns,
                                       std::string_view layout,
                                       PoolSpec spec = PoolSpec());
  /// pmemobj_create-or-open: open when the file exists, else create.
  [[nodiscard]] Result<Pool> open_or_create_pool(std::string_view ns,
                                                 std::string_view layout,
                                                 PoolSpec spec = PoolSpec());
  [[nodiscard]] Result<bool> pool_exists(std::string_view ns,
                                         std::string_view file) const;
  [[nodiscard]] Result<void> remove_pool(std::string_view ns,
                                         std::string_view file);
  /// Capacity-checked live resize: routes through the pool's namespace so a
  /// grow that would exceed the namespace's remaining bytes comes back as
  /// Errc::CapacityExceeded *before* anything durable happens, and the
  /// namespace's used-byte accounting tracks the actual size delta.
  /// Pool::resize() stays available for callers that only hold the pool —
  /// it talks straight to the file and skips this accounting.
  [[nodiscard]] Result<void> resize_pool(Pool& pool, std::uint64_t new_size);

  // --- checkpoint/restart ----------------------------------------------------
  /// Double-buffered crash-atomic checkpoint store on namespace `ns`, sized
  /// for payloads up to `max_payload_bytes`.  This overload keeps saves on
  /// the calling thread (threads = 1) — the conservative legacy behaviour.
  [[nodiscard]] Result<CheckpointStore> checkpoint_store(
      std::string_view ns, const std::string& file,
      std::uint64_t max_payload_bytes, PoolSpec spec = PoolSpec());

  /// checkpoint_store with the incremental-engine knobs.  `threads == 0`
  /// picks a NUMA-aware default: up to four workers labelled with the cores
  /// of the namespace's NUMA node (or the nearest node with CPUs for a
  /// CPU-less CXL node) — multi-threaded streams are what saturate CXL
  /// bandwidth, and crossing sockets to reach the device wastes them.
  [[nodiscard]] Result<CheckpointStore> checkpoint_store(
      std::string_view ns, const std::string& file,
      std::uint64_t max_payload_bytes, const CheckpointSpec& spec);

  // --- migration -------------------------------------------------------------
  /// Migrates pool `file` (layout `layout`) from namespace `src_ns` to
  /// `dst_ns` — the paper's Optane→CXL scenario (ref [22]) as one call.
  /// The source is left intact; the report says what changed about
  /// durability (a volatile destination is legal but flagged).
  [[nodiscard]] Result<MigrationReport> migrate_pool(std::string_view src_ns,
                                                     std::string_view dst_ns,
                                                     const std::string& file,
                                                     std::string_view layout);

  // --- data placement (hybrid tiering, paper §6) -----------------------------
  /// Every memory device as a placement tier, probed from
  /// `viewpoint_socket` with the machine's bandwidth model.
  [[nodiscard]] std::vector<Tier> tiers(
      simkit::SocketId viewpoint_socket = 0) const;
  /// Places requests (hotness-descending) across the tiers, honouring
  /// capacity and durability constraints.
  [[nodiscard]] Result<PlacementPlan> place(
      std::vector<PlacementRequest> requests,
      simkit::SocketId viewpoint_socket = 0) const;

  // --- escape hatch ----------------------------------------------------------
  /// The underlying throwing runtime (device mailboxes, migration, tiering).
  [[nodiscard]] cxlpmem::core::Runtime& core() noexcept { return *rt_; }
  [[nodiscard]] const cxlpmem::core::Runtime& core() const noexcept {
    return *rt_;
  }

 private:
  friend class RuntimeBuilder;
  Runtime(std::unique_ptr<cxlpmem::core::Runtime> rt,
          std::map<std::string, MemorySpace, std::less<>> spaces)
      : rt_(std::move(rt)), spaces_(std::move(spaces)) {}

  [[nodiscard]] const MemorySpace* find_space(std::string_view name) const;
  [[nodiscard]] static std::string default_file(std::string_view layout);

  std::unique_ptr<cxlpmem::core::Runtime> rt_;
  std::map<std::string, MemorySpace, std::less<>> spaces_;
};

}  // namespace cxlpmem::api
