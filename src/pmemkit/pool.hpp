// pmemkit/pool.hpp — ObjectPool, the PMEMobjpool equivalent.
//
// A pool is a mapped file with:  header | 64 lanes | heap.  It provides the
// libpmemobj programming model: a named layout, a root object, atomic
// (failure-atomic, non-transactional) allocation into a destination ObjId,
// typed object ids, undo-log transactions, and open-time recovery.  The
// optional PmemSan model (Options::pmemcheck) maintains the durable image
// the crash harness reads and checks the persistency rules against it.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pmemkit/errors.hpp"
#include "pmemkit/heap.hpp"
#include "pmemkit/layout.hpp"
#include "pmemkit/oid.hpp"
#include "pmemkit/pmem_ops.hpp"
#include "pmemkit/resource.hpp"
#include "pmemkit/tx.hpp"

namespace cxlpmem::pmemkit {

/// Any-type wildcard for object iteration.
inline constexpr std::uint32_t kAnyType = ~0u;

struct PoolStats {
  HeapStats heap;
  std::uint64_t pool_size = 0;
  std::uint64_t lane_count = 0;
  /// Times a thread blocked waiting for a free transaction lane (transient,
  /// since open) — the pool-level contention signal next to the heap's
  /// run_lock_skips/run_lock_waits.
  std::uint64_t lane_waits = 0;
  std::uint32_t layout_version = 0;  ///< on-media format version
  /// Completed resize() operations on this handle (transient, since open).
  std::uint64_t resizes = 0;
  bool recovered = false;  ///< last open performed recovery actions
};

struct PoolReport;  // introspect.hpp
struct CompactOptions;  // evolve.hpp
struct CompactReport;   // evolve.hpp

struct PoolOptions {
  /// Undo-entry publish protocol.  TwoPersistReference is the version-1
  /// baseline (tail bump per entry, O(n) snapshot scan), compiled in so
  /// bench/micro_tx can A/B the fence halving on identical pools; recovery
  /// is protocol-agnostic.
  TxPublish tx_publish = TxPublish::SingleFence;
  /// Opt-in open-time migration: a version-1 image (or one carrying an
  /// interrupted migration marker) is upgraded in place to the current
  /// layout before the open proceeds (see evolve.hpp for the crash
  /// discipline).  Without it, open() rejects such images with
  /// VersionMismatch / MigrationPending respectively.
  bool migrate = false;
  /// Attach PmemSan, the persistence-domain model (pmemsan.hpp; slower):
  /// it keeps the durable image crash simulation reads, and every
  /// store/flush/fence is checked against the x86+ADR discipline with
  /// violations delivered to the configured ViolationSink.  Also enabled
  /// process-wide by CXLPMEM_PMEMCHECK=1.
  bool pmemcheck = false;
};

class ObjectPool {
 public:
  using Options = PoolOptions;

  /// Creates a new pool inside `resource`.  `size` >= min_pool_size().  The
  /// layout name is checked on every open (pmemobj_create semantics).
  static std::unique_ptr<ObjectPool> create(PmemResource& resource,
                                            std::string_view layout,
                                            std::uint64_t size,
                                            Options options = Options());

  /// Opens the pool held by `resource`, validating
  /// magic/version/layout/checksum and running recovery.
  static std::unique_ptr<ObjectPool> open(PmemResource& resource,
                                          std::string_view layout,
                                          Options options = Options());

  /// Path conveniences: bind a FileResource on `path` and delegate.
  static std::unique_ptr<ObjectPool> create(
      const std::filesystem::path& path, std::string_view layout,
      std::uint64_t size, Options options = Options());
  static std::unique_ptr<ObjectPool> open(const std::filesystem::path& path,
                                          std::string_view layout,
                                          Options options = Options());

  /// Smallest pool create() accepts: header + lanes + enough chunks that a
  /// handful of distinct size classes can coexist (each run claims a whole
  /// chunk).
  [[nodiscard]] static constexpr std::uint64_t min_pool_size() noexcept {
    return kHeaderSize + kLaneCount * kLaneSize + 8 * kChunkSize;
  }

  ~ObjectPool();
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  // --- identity ------------------------------------------------------------
  [[nodiscard]] std::uint64_t pool_id() const noexcept;
  [[nodiscard]] std::string layout() const;
  [[nodiscard]] std::uint64_t size() const noexcept { return region_.size(); }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  /// True when the last open() had recovery work to do (dirty shutdown).
  [[nodiscard]] bool recovered() const noexcept { return recovered_; }

  // --- address translation ---------------------------------------------------
  /// Direct pointer for an oid; throws PoolError on foreign/out-of-range oid.
  [[nodiscard]] void* direct(ObjId oid);
  [[nodiscard]] const void* direct(ObjId oid) const;
  template <typename T>
  [[nodiscard]] T* direct(TypedOid<T> oid) {
    return static_cast<T*>(direct(oid.raw));
  }
  /// direct() plus a type-number check against the object's AllocHeader;
  /// throws PoolError(TypeMismatch) when the allocation was made with a
  /// different type number.  Backs the facade's checked ptr<T> dereference.
  [[nodiscard]] void* direct_checked(ObjId oid, std::uint32_t expected_type);
  /// ObjId for a pointer inside the pool (inverse of direct()).
  [[nodiscard]] ObjId oid_for(const void* p) const;

  // --- persistence primitives (libpmem vocabulary) -------------------------
  void persist(const void* p, std::size_t n) { region_.persist(p, n); }
  void flush(const void* p, std::size_t n) { region_.flush(p, n); }
  void drain() { region_.drain(); }
  void memcpy_persist(void* dst, const void* src, std::size_t n) {
    region_.memcpy_persist(dst, src, n);
  }
  void memset_persist(void* dst, int value, std::size_t n) {
    region_.memset_persist(dst, value, n);
  }
  /// Declares a raw store (writes through a direct() pointer) to the
  /// sanitizer and crash tooling without flushing it.  Use before a
  /// separate flush/persist when the bytes were written in place; the
  /// *_persist helpers annotate implicitly.
  void note_store(const void* p, std::size_t n) { region_.note_store(p, n); }

  // --- atomic (non-transactional, failure-atomic) API ----------------------
  /// Allocates `size` bytes.  When `dest` points inside the pool, the oid is
  /// published into it atomically with the allocation (POBJ_ALLOC
  /// semantics); otherwise it is simply returned.
  ObjId alloc_atomic(std::uint64_t size, std::uint32_t type_num,
                     ObjId* dest = nullptr, bool zero = false);
  /// Frees `*dest` and nulls it in one atomic step (POBJ_FREE semantics).
  void free_atomic(ObjId* dest);
  /// Frees an oid the caller forgets by other means.
  void free_atomic(ObjId oid);

  [[nodiscard]] std::uint64_t usable_size(ObjId oid) const;
  [[nodiscard]] std::uint32_t type_of(ObjId oid) const;

  /// Typed iteration (POBJ_FIRST/POBJ_NEXT equivalents).
  [[nodiscard]] ObjId first(std::uint32_t type_num = kAnyType) const;
  [[nodiscard]] ObjId next(ObjId oid, std::uint32_t type_num = kAnyType) const;

  // --- root object ----------------------------------------------------------
  /// Returns the root object, allocating it (zeroed) on first use.
  /// The size is fixed at first allocation; a mismatching later request
  /// throws PoolError (pmemobj_root with a larger size would resize — not
  /// supported here).  A non-zero `type_num` types the root allocation and
  /// is validated against an existing root's recorded type on reopen
  /// (PoolError(TypeMismatch) on disagreement); 0 skips the check, keeping
  /// the untyped root_raw path byte-compatible.
  ObjId root_raw(std::uint64_t size, std::uint32_t type_num = 0);
  template <typename T>
  TypedOid<T> root() {
    return TypedOid<T>{root_raw(sizeof(T))};
  }

  // --- transactions ----------------------------------------------------------
  /// Runs `fn` inside a transaction.  Nested calls on the same thread join
  /// the outer transaction (flat nesting, PMDK-style).  Any exception aborts
  /// the (outer) transaction and rethrows.
  template <typename F>
  void run_tx(F&& fn) {
    if (Transaction* outer = current_tx(); outer != nullptr) {
      fn();  // flat nesting: join the enclosing transaction
      return;
    }
    const std::uint32_t lane = acquire_tx_lane();
    Transaction tx(*this, lane);
    // Unconditional cleanup: the thread-local registration and the lane must
    // be reclaimed on every exit path, including a simulated power cut
    // thrown from inside begin()/commit().
    struct Cleanup {
      ObjectPool* pool;
      std::uint32_t lane;
      ~Cleanup() {
        pool->set_current_tx(nullptr);
        pool->release_tx_lane(lane);
      }
    } cleanup{this, lane};
    set_current_tx(&tx);
    try {
      tx.begin();
      fn();
      tx.commit();
    } catch (const CrashInjected&) {
      throw;  // power cut: no abort work may happen
    } catch (...) {
      if (!tx.finished_) tx.abort();
      throw;
    }
  }

  /// The calling thread's open transaction on this pool, or nullptr.
  [[nodiscard]] Transaction* current_tx() const;

  /// pmemobj_tx_* conveniences that require an open transaction.
  void tx_add_range(void* ptr, std::size_t len);
  ObjId tx_alloc(std::uint64_t size, std::uint32_t type_num,
                 bool zero = false);
  void tx_free(ObjId oid);

  // --- stats / introspection -------------------------------------------------
  [[nodiscard]] PoolStats stats() const;
  [[nodiscard]] PersistentRegion& region() noexcept { return region_; }
  /// The attached persistence-domain model, or nullptr when pmemcheck is
  /// off.
  [[nodiscard]] PmemSan* pmemsan() noexcept { return region_.pmemsan(); }
  [[nodiscard]] Heap& heap() noexcept { return *heap_; }
  [[nodiscard]] const Heap& heap() const noexcept { return *heap_; }

  // --- online evolution ------------------------------------------------------
  /// Grows or shrinks the pool in place (ftruncate + mremap + heap span
  /// extension/retraction).  `new_size` is rounded up to a whole heap chunk.
  /// Grow: the new span is allocatable the moment the call returns.  Shrink:
  /// refuses with PoolError(ShrinkBlocked) while live objects occupy the
  /// doomed tail; the last-added span is retracted whole (partial-span
  /// shrinks round up to the span boundary).  The call quiesces the pool by
  /// draining all transaction lanes — calling it from inside a transaction
  /// or while holding a LaneSession throws TxError(TxMisuse).  The mapping
  /// base may move: raw pointers into the pool are invalidated (ObjId /
  /// ptr<T> handles stay valid), and concurrent readers are the caller's
  /// responsibility to stop.  Crash-safe: a durable marker brackets the
  /// operation and open() completes or rolls it back.
  void resize(std::uint64_t new_size);

  /// Marks the pool as crash-simulated: the destructor will neither mark a
  /// clean shutdown nor sync.  Used by the crash harness after CrashInjected.
  void mark_crashed() noexcept { crashed_ = true; }

  /// The undo-entry publish protocol this handle runs (PoolOptions).
  [[nodiscard]] TxPublish tx_publish() const noexcept { return tx_publish_; }

  /// Pins a transaction lane to the constructing thread for the session's
  /// lifetime: every run_tx (and atomic-op redo session) this thread runs
  /// on the pool reuses the pinned lane without checking a lane out.
  /// This is the server-worker idiom — a shard thread that commits one
  /// transaction per request batch checks its lane out once, not per batch.
  /// One session per thread per pool (a second construction throws
  /// TxError(TxMisuse)); the session must be destroyed on the thread that
  /// created it, before the pool.
  class LaneSession {
   public:
    explicit LaneSession(ObjectPool& pool);
    ~LaneSession();
    LaneSession(const LaneSession&) = delete;
    LaneSession& operator=(const LaneSession&) = delete;
    [[nodiscard]] std::uint32_t lane() const noexcept { return lane_; }

   private:
    ObjectPool& pool_;
    std::uint32_t lane_;
  };

 private:
  friend class Transaction;
  friend bool recover_lanes(ObjectPool& pool);
  friend struct PoolReport;
  friend PoolReport inspect(const ObjectPool& pool);
  friend void migrate_v1_pool(ObjectPool& pool, std::string_view layout);
  friend CompactReport compact_pool(ObjectPool& pool,
                                    std::span<ObjId* const> refs,
                                    CompactOptions options);

  ObjectPool(MappedFile file, Options options);

  [[nodiscard]] PoolHeader& header() noexcept {
    return *reinterpret_cast<PoolHeader*>(region_.base());
  }
  [[nodiscard]] const PoolHeader& header() const noexcept {
    return *reinterpret_cast<const PoolHeader*>(region_.base());
  }
  [[nodiscard]] LaneHeader& lane_header(std::uint32_t lane) noexcept;
  [[nodiscard]] std::byte* lane_undo(std::uint32_t lane) noexcept;
  [[nodiscard]] std::uint64_t lane_off(std::uint32_t lane) const noexcept;

  void run_recovery();
  /// Session-aware checkout: the calling thread's pinned LaneSession lane
  /// when it has one, else a lane from the free pool (raw path).
  std::uint32_t acquire_tx_lane();
  void release_tx_lane(std::uint32_t lane);
  /// Raw checkout: the lane this thread last used on the pool when it is
  /// free, else the highest free lane; sleeps only when all are busy.
  std::uint32_t acquire_lane_raw();
  void release_lane_raw(std::uint32_t lane);
  /// Sets `lane`'s busy flag if it was clear (never blocks).
  [[nodiscard]] bool try_claim_lane(std::uint32_t lane) noexcept;
  /// try_claim_lane over every lane, highest first; kLaneCount when none.
  [[nodiscard]] std::uint32_t try_claim_any_lane() noexcept;
  /// Sleeps on lane_cv_ until `claim` (a try_claim_* call) succeeds.
  template <typename Claim>
  std::uint32_t wait_for_lane(Claim claim);
  void set_current_tx(Transaction* tx);
  /// The lane the calling thread holds on this pool: its open
  /// transaction's, else its LaneSession's; kLaneCount when none.  Lets
  /// introspection recognize the one checked-out lane it may scan
  /// race-free (its own).
  [[nodiscard]] std::uint32_t own_lane() const;

  /// RAII lane for a non-transactional (atomic) operation's redo log: the
  /// calling thread's open transaction lane when there is one (safe — redo
  /// sessions on a lane are strictly sequential within a thread), otherwise
  /// a lane checked out of the free pool for the call's duration.  This is
  /// what retires the old "all atomic ops through lane 0" funnel.
  class OpLane {
   public:
    explicit OpLane(ObjectPool& pool);
    ~OpLane();
    OpLane(const OpLane&) = delete;
    OpLane& operator=(const OpLane&) = delete;
    [[nodiscard]] std::uint32_t lane() const noexcept { return lane_; }

   private:
    ObjectPool& pool_;
    std::uint32_t lane_;
    bool owned_;
  };

  /// All-lane quiesce for evolution ops: checks out every lane (through
  /// the same busy flags as the raw path) so no transaction or atomic op
  /// can be in flight, then hands them back.
  /// Throws TxError(TxMisuse) when the calling thread itself holds a lane.
  class Quiesce {
   public:
    explicit Quiesce(ObjectPool& pool);
    ~Quiesce();
    Quiesce(const Quiesce&) = delete;
    Quiesce& operator=(const Quiesce&) = delete;

   private:
    ObjectPool& pool_;
  };

  PersistentRegion region_;
  std::filesystem::path path_;
  std::unique_ptr<Heap> heap_;
  TxPublish tx_publish_ = TxPublish::SingleFence;
  bool recovered_ = false;
  bool crashed_ = false;
  std::atomic<std::uint64_t> resizes_{0};

  /// Serializes first-use root allocation (a once-per-pool event); steady-
  /// state allocation takes only the heap's sharded locks.
  std::mutex root_mu_;

  /// Transaction lane pool (lanes 0 .. kLaneCount-1): one busy flag per
  /// lane, each on its own cache line, so a checkout touches no line other
  /// threads write.  lane_mu_/lane_cv_ serve only threads that sleep
  /// because every lane is busy; lane_sleepers_ tells a release to wake
  /// them.
  struct alignas(64) LaneFlag {
    std::atomic<bool> busy{false};
  };
  std::array<LaneFlag, kLaneCount> lane_flags_{};
  std::atomic<std::uint32_t> lane_sleepers_{0};
  std::mutex lane_mu_;
  std::condition_variable lane_cv_;
  std::atomic<std::uint64_t> lane_waits_{0};
  /// Process-unique handle number: keys the per-thread last-lane hint, so
  /// a pool reopened at a recycled address starts without history.
  const std::uint64_t serial_;
};

// --- open-pool registry ------------------------------------------------------
// Every live ObjectPool is registered process-wide (pmemobj_pool_by_oid /
// pmemobj_pool_by_ptr equivalents).  This is what lets a persistent typed
// pointer carry nothing but an ObjId and still resolve to an address, and
// what backs the field wrapper's misuse check (a transactional write into a
// pool the thread has no transaction on).  The wrapper's *hot path* never
// touches the registry — it uses the thread-local tx_pool_containing()
// below.  Lookups return nullptr once the pool is closed.
//
// Both lookups are served from a small thread-local cache in the steady
// state: the registry keeps a generation counter (bumped on every pool
// open/close, i.e. the only events that can change an answer), and a
// lookup whose cached generation still matches returns without taking the
// registry's shared lock or scanning it.  A miss — or any open/close since
// the cache was filled — falls back to the locked scan and refills.  This
// is what makes a ptr<T> dereference lock-free and scan-free on the read
// path; the usual registry lifetime contract is unchanged (a pointer
// resolved from either path is valid only while its pool stays open).

/// The open pool whose pool_id matches, or nullptr.  When two open pools
/// share an id (a freshly migrated copy next to its source), the most
/// recently opened one wins.
[[nodiscard]] ObjectPool* pool_by_id(std::uint64_t pool_id) noexcept;

/// The open pool whose mapping contains `p`, or nullptr.
[[nodiscard]] ObjectPool* pool_containing(const void* p) noexcept;

/// Pool open/close epoch — the thread-local lookup caches invalidate on
/// any change.  Exposed for tests.
[[nodiscard]] std::uint64_t pool_registry_generation() noexcept;

/// The pool on which the *calling thread* has an open transaction and whose
/// mapping contains `p`, or nullptr.  Purely thread-local (scans the
/// thread's open-transaction list, at most a handful of entries) — no
/// global lock, which is what keeps snapshot-on-write field wrappers off
/// the registry on the transactional hot path.
[[nodiscard]] ObjectPool* tx_pool_containing(const void* p) noexcept;

/// True when the calling thread has any open transaction (thread-local).
[[nodiscard]] bool thread_in_tx() noexcept;

namespace detail {
/// Bumps the registry generation without an open/close: resize may mremap a
/// pool's base, which stales every thread-local lookup-cache entry exactly
/// like a close-and-reopen would.
void bump_pool_generation() noexcept;
}  // namespace detail

}  // namespace cxlpmem::pmemkit
