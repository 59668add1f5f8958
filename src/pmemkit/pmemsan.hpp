// pmemkit/pmemsan.hpp — PmemSan: the pool's persistence-domain model.
//
// One model answers both questions a persistency test asks: "what would
// the media hold if power were cut now?" (crash_image, read by the crash
// harness) and "did the code follow the flush/fence discipline?" (rules
// R1–R6).  It keeps ONE durable image of the pool, fed by every store
// annotation, flush and fence, and every pool cache line runs
//
//     Clean ──store──▶ Stored ──flush──▶ Pending ──fence──▶ Durable
//
// Thread semantics (x86 + ADR):
//   * a store lands in the cache — not yet persistent, but it MAY persist
//     at any moment through eviction;
//   * a flush (CLWB) snapshots the line's bytes into the flushing thread's
//     pending set; a later store, by any thread, re-dirties the line but
//     cancels no snapshot;
//   * a fence (SFENCE) is per-thread: it publishes only the calling
//     thread's pending snapshots into the durable image, and the newest
//     flush of a line wins, so the image never moves backwards.
//
// Violations are reported — with offset, size, rule id and capture-time
// provenance (pool name + a small backtrace) — through a pluggable
// ViolationSink.  Enabled per pool via PoolOptions::pmemcheck or
// process-wide via CXLPMEM_PMEMCHECK=1.
//
// Rules:
//   R1 UnloggedStore    — store inside a transaction to pool bytes neither
//                         undo-logged (add_range) nor registered fresh
//                         (add_fresh_range) nor tx/lane metadata: the
//                         classic missing-snapshot bug
//   R2 UnflushedCommit  — a commit record published while bytes the
//                         transaction covers are not yet durable (the
//                         flush or the fence before the marker was shaved)
//   R3 RedundantFlush   — flush of an already-durable line no store has
//                         re-dirtied, when the flushing thread's own fence
//                         made it durable (wasted write-back bandwidth; a
//                         line another thread's fence wrote back is not
//                         the flusher's waste)
//   R4 FlushNeverStored — flush of a line no store ever touched (the flush
//                         publishes nothing; usually an over-wide persist)
//   R5 DirtyAtClose     — stored-but-not-durable lines still outstanding
//                         when the pool closes (or verify() is called)
//   R6 PersistTooSmall  — a persist starting where the preceding store
//                         started but covering fewer bytes (a torn
//                         publish waiting to happen)
//
// Library-level visibility: pmemkit's own metadata stores announce
// themselves (PersistentRegion::note_store_infra), transactional user
// ranges arrive via note_store, and *unannounced* stores (raw writes
// through direct() pointers) are inferred at flush time by comparing the
// live line against the durable image — a line that differs was stored
// to; a line that matches was not, so flushing it publishes nothing
// (R3/R4).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pmemkit/layout.hpp"

namespace cxlpmem::pmemkit {

/// Which media image crash_image() reconstructs.
enum class CrashPolicy {
  /// Strict loss of everything not explicitly persisted (catches missing
  /// flush/fence bugs).
  DropUnflushed,
  /// Additionally lets each stored-or-pending line persist whole with
  /// p=1/2, seeded per line (catches ordering bugs that only appear when a
  /// line leaks early through eviction).
  RandomEvict,
  /// eADR / Global Persistent Flush: the persistence domain includes the
  /// CPU caches (a battery drains them on power loss), so EVERY store
  /// survives — flushes become performance hints.  This is the stronger
  /// domain a battery-backed CXL device enables (CXL GPF) and the paper's
  /// battery argument taken to its conclusion.
  EadrEverythingSurvives,
};

enum class SanRule : std::uint32_t {
  UnloggedStore = 1,
  UnflushedCommit = 2,
  RedundantFlush = 3,
  FlushNeverStored = 4,
  DirtyAtClose = 5,
  PersistTooSmall = 6,
};
inline constexpr std::size_t kSanRuleCount = 7;  // 1-based, index by value

[[nodiscard]] inline const char* to_string(SanRule r) noexcept {
  switch (r) {
    case SanRule::UnloggedStore: return "unlogged-store";
    case SanRule::UnflushedCommit: return "unflushed-commit";
    case SanRule::RedundantFlush: return "redundant-flush";
    case SanRule::FlushNeverStored: return "flush-never-stored";
    case SanRule::DirtyAtClose: return "dirty-at-close";
    case SanRule::PersistTooSmall: return "persist-too-small";
  }
  return "?";
}

struct SanViolation {
  SanRule rule;
  std::uint64_t off = 0;   ///< pool offset of the offending range/line
  std::uint64_t len = 0;   ///< bytes implicated
  std::string pool;        ///< pool name (file name) at capture time
  std::string message;     ///< rule-specific diagnosis
  std::string backtrace;   ///< small call stack captured at detection

  /// One-line report: "pmemsan[pool] R3 redundant-flush off=... len=...: msg".
  [[nodiscard]] std::string format() const;
};

/// Where violations go.  Sinks may be shared across pools and threads; the
/// sanitizer serializes detection, not reporting — implementations that
/// keep state must lock.
class ViolationSink {
 public:
  virtual ~ViolationSink() = default;
  virtual void report(const SanViolation& v) = 0;
};

/// Throws PoolError(ErrKind::PersistencyViolation).  The default: a
/// violation fails the operation (and the test) on the spot.
class ThrowSink final : public ViolationSink {
 public:
  void report(const SanViolation& v) override;
};

/// Writes the formatted report (including the backtrace) to stderr and
/// keeps going — the production triage mode.
class LogSink final : public ViolationSink {
 public:
  void report(const SanViolation& v) override;
};

/// Counts per rule and keeps the first few violations for inspection —
/// what the seeded-violation suite and micro_tx's zero-violation
/// assertions use.
class CountSink final : public ViolationSink {
 public:
  void report(const SanViolation& v) override;

  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] std::uint64_t count(SanRule r) const;
  /// The retained violations (first kKeep), in detection order.
  [[nodiscard]] std::vector<SanViolation> violations() const;

 private:
  static constexpr std::size_t kKeep = 64;
  mutable std::mutex mu_;
  std::array<std::uint64_t, kSanRuleCount> counts_{};
  std::uint64_t total_ = 0;
  std::vector<SanViolation> kept_;
};

class PmemSan {
 public:
  /// Who performed a store.  Infra = pmemkit's own metadata machinery
  /// (lane headers, logs, heap bookkeeping) — exempt from R1.  User =
  /// transactional user data (note_store), subject to R1 coverage checks.
  enum class StoreOrigin { Infra, User };

  /// Tracks a live region of `size` bytes; `live` must outlive the
  /// sanitizer.  The durable image starts as a copy of the live one (a
  /// fresh pool's zeroes are durable; an opened pool's file content is).
  /// The initial sink honors CXLPMEM_PMEMCHECK_SINK=throw|log|count
  /// (default throw).
  PmemSan(const std::byte* live, std::size_t size, std::string pool_name);
  ~PmemSan();
  PmemSan(const PmemSan&) = delete;
  PmemSan& operator=(const PmemSan&) = delete;

  /// Pool bytes below this offset are metadata (header page + lane
  /// region): infrastructure the transaction protocol itself mutates, so
  /// user-origin stores there are never R1 candidates.
  void set_meta_bound(std::uint64_t bound) noexcept { meta_bound_ = bound; }
  void set_pool_name(std::string name);
  /// Replaces the sink.  shared_ptr so a test can keep its CountSink
  /// readable after the pool (and the sanitizer) is gone.
  void set_sink(std::shared_ptr<ViolationSink> sink);

  // --- event feed (PersistentRegion forwards these) ------------------------
  /// Marks the lines of [off, off+len) Stored.  Pending snapshots of those
  /// lines — this thread's or another's — stay pending: the bytes they
  /// captured still reach the media at their owner's fence.
  void on_store(std::uint64_t off, std::uint64_t len, StoreOrigin origin);
  /// CLWB: snapshots each line's live bytes into the calling thread's
  /// pending set (a re-flush supersedes the thread's older snapshot).
  void on_flush(std::uint64_t off, std::uint64_t len);
  /// SFENCE: publishes the calling thread's pending snapshots — and only
  /// those — into the durable image.
  void on_fence();
  /// persist() entry point, before its flush: checks R6 against the
  /// calling thread's preceding store.
  void on_persist(std::uint64_t off, std::uint64_t len);
  /// Follows a live-region resize (pool grow/shrink): re-points at the
  /// possibly-moved mapping and resizes the durable image to match.  Grown
  /// bytes enter the image as the live mapping holds them (file extension
  /// zeroes are durable the moment ftruncate returns — there is no cache
  /// between the kernel's zero page and the file); dropped bytes take
  /// their line bookkeeping with them.
  void remap(const std::byte* live, std::size_t size);
  /// Accepts the live bytes of [off, off+len) as the durable baseline
  /// without requiring a flush.  For staged-then-abandoned scratch — an
  /// uncommitted redo session's cells — that is *designed* never to become
  /// durable; without this, the leftover raw stores would read as R5 dirt
  /// at close.  Crash images see the accepted bytes as if their lines had
  /// been evicted at this instant — one of the outcomes RandomEvict
  /// already allows for a dirty line.  Byte-precise: neighbouring bytes on
  /// shared cache lines keep their tracking.
  void discard(std::uint64_t off, std::uint64_t len);

  // --- transaction hooks ---------------------------------------------------
  void tx_begin(std::uint32_t lane);
  /// add_range / add_fresh_range coverage for the lane's open transaction.
  void tx_cover(std::uint32_t lane, std::uint64_t off, std::uint64_t len);
  /// Called immediately before the commit record is made durable: every
  /// line the transaction covers must already be durable (R2).
  void tx_commit_publish(std::uint32_t lane);
  void tx_end(std::uint32_t lane);
  /// The abort-path twin of tx_end: the rollback has just undone the
  /// transaction, so covered lines that never reached durability (fresh
  /// allocations, mid-tx stores) describe dead bytes — accept them as-is
  /// (whole lines, same crash-image meaning as discard()) instead of
  /// letting them read as lost updates at close.
  void tx_abort(std::uint32_t lane);

  // --- crash images --------------------------------------------------------
  /// The media image after a power cut at this instant.  RandomEvict's
  /// coin is a deterministic function of (seed, line index).
  [[nodiscard]] std::vector<std::byte> crash_image(
      CrashPolicy policy, std::uint64_t seed = 0) const;
  /// Lines stored or flushed but not yet durable.
  [[nodiscard]] std::size_t dirty_lines() const;
  /// Lines some thread has flushed but not yet fenced.
  [[nodiscard]] std::size_t pending_lines() const;

  // --- checks --------------------------------------------------------------
  /// Asserts everything stored so far is durable: any line still Stored or
  /// Pending — or whose live bytes differ from the durable image without
  /// any store on record (a raw store nobody flushed) — is R5.  Reports at
  /// most `max_reports` violations; returns how many lines were dirty.
  std::size_t verify(std::size_t max_reports = 16);
  /// The destructor-time variant of verify(); same checks, close-specific
  /// messages.
  std::size_t close_check(std::size_t max_reports = 16);

  // --- counters (maintained regardless of sink) ----------------------------
  [[nodiscard]] std::uint64_t total_violations() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t violations(SanRule r) const noexcept {
    return rule_counts_[static_cast<std::size_t>(r)].load(
        std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kLine = 64;  ///< tracking granularity

  /// A tracked line is Stored while `stored`, else Pending while any
  /// thread holds an unfenced snapshot of it, else Durable.
  struct LineState {
    bool stored = false;            ///< stored since its newest snapshot
    std::uint32_t pending = 0;      ///< unfenced snapshots of the line
    std::uint64_t published = 0;    ///< flush sequence of the durable bytes
    std::uint64_t durable_by = 0;   ///< thread whose fence published them
  };
  /// A line's bytes as one thread's flush captured them.
  struct Snapshot {
    std::uint64_t line = 0;
    std::uint64_t seq = 0;
    std::array<std::byte, kLine> bytes{};
  };
  /// One thread's unfenced snapshots in flush order, so publishing them in
  /// order lets a re-flush of a line supersede the thread's older one.
  using PendingSet = std::vector<Snapshot>;

  struct TxCtx {
    bool active = false;
    /// Covered ranges, merged: start -> end (mirrors Transaction's set).
    std::map<std::uint64_t, std::uint64_t> coverage;
  };

  /// Bytes of line `l` inside the region (0 past its end).
  [[nodiscard]] std::uint64_t line_bytes(std::uint64_t l) const noexcept;
  /// True when the live line `l` matches the durable image byte-for-byte.
  [[nodiscard]] bool line_matches_durable(std::uint64_t l) const;
  void snapshot(PendingSet& mine, std::uint64_t l, LineState& s);
  /// Copies live [off, end) into the durable image (discard / tx_abort).
  void accept(std::uint64_t off, std::uint64_t end);
  [[nodiscard]] bool covered(const TxCtx& ctx, std::uint64_t off,
                             std::uint64_t end) const;
  SanViolation make_violation(SanRule rule, std::uint64_t off,
                              std::uint64_t len, std::string message) const;
  void deliver(std::vector<SanViolation> found);
  std::size_t scan_not_durable(std::size_t max_reports, const char* when);

  mutable std::mutex mu_;
  const std::byte* live_;
  std::vector<std::byte> durable_;  ///< what the media durably holds
  std::string pool_name_;
  std::uint64_t meta_bound_ = 0;
  std::shared_ptr<ViolationSink> sink_;

  /// Line index -> state; absent = Clean (never stored, matches durable_).
  std::unordered_map<std::uint64_t, LineState> lines_;
  /// Thread token -> the snapshots its next fence publishes.  A fence
  /// clears its set but keeps the capacity: steady flushing allocates
  /// nothing.
  std::unordered_map<std::uint64_t, PendingSet> pending_;
  std::uint64_t flush_seq_ = 0;  ///< orders snapshots across threads
  std::array<TxCtx, kLaneCount> tx_;  ///< per-lane open-transaction context

  std::atomic<std::uint64_t> total_{0};
  std::array<std::atomic<std::uint64_t>, kSanRuleCount> rule_counts_{};
};

}  // namespace cxlpmem::pmemkit
