// pmemkit/tx.hpp — undo-log transactions (libpmemobj tx equivalent).
//
// Protocol (per lane), layout version 2:
//   begin   : lane.undo_gen += 1, then lane.state = Active — both stores in
//             the lane's first cache line, gen ordered before state,
//             published with ONE flush+drain
//   snapshot: entry {header incl. gen + checksum, pre-image} appended and
//             persisted — ONE fenced persist is the publish point; the
//             entry validates itself, so no tail bump is needed.  One
//             add_range may append several gap entries (see below); they
//             are staged back-to-back and published under the same fence.
//   alloc   : AllocAction entry appended BEFORE the allocator's redo commit,
//             so a crash can never leak the object
//   free    : FreeAction entry appended; the object stays live until commit
//   commit  : flush each merged snapshot range once -> state = Committed ->
//             perform deferred frees -> retire (state = Idle, tail = 0,
//             one fenced line write)
//   abort   : apply entries in REVERSE (pre-images back, fresh allocs freed)
//             -> retire
//
// The live tail is transient (Transaction::tail_).  Recovery (pool open)
// per lane: finish any published redo, then
//   Active    -> scan entries from the log start until the first one whose
//                generation or checksum fails (the torn end), abort path
//   Committed -> same scan, re-run deferred frees (idempotent), retire
// so the user-visible invariant is: after a crash, every transaction is
// either fully applied or fully rolled back.  The scan is sound because
// entries are appended strictly in order, each behind its own fence: the
// durable log is always a checksum-valid prefix of what was published, and
// the per-entry generation keeps a stale entry from an earlier transaction
// on the same lane from extending that prefix.  The trade against the
// version-1 persistent tail: a media corruption inside the log is now
// indistinguishable from a torn tail and silently truncates the scan
// instead of throwing CorruptImage.
//
// Snapshot bookkeeping is a sorted interval set that merges overlapping and
// adjacent ranges: a range already covered appends nothing, a partial
// overlap snapshots only the uncovered gaps, and commit flushes every
// merged range exactly once.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "pmemkit/layout.hpp"
#include "pmemkit/oid.hpp"

namespace cxlpmem::pmemkit {

class ObjectPool;

/// How a transaction publishes undo entries.  TwoPersistReference is the
/// pre-version-2 protocol kept compiled-in as the benchmark baseline: every
/// entry costs a second fenced persist for the tail bump, and add_range
/// falls back to the O(n) full-cover-only snapshot scan.  Recovery treats
/// pools written by either mode identically (the scan ignores the
/// persistent tail).
enum class TxPublish {
  SingleFence,
  TwoPersistReference,
};

class Transaction {
 public:
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Snapshots [ptr, ptr+len) so an abort/crash restores it; the caller may
  /// then modify the range freely.  `ptr` must lie inside the pool.  Parts
  /// of the range already covered by earlier snapshots (or fresh ranges) of
  /// this transaction are coalesced away — only the uncovered gaps are
  /// logged, all published under a single fence.
  void add_range(void* ptr, std::size_t len);

  /// Registers [ptr, ptr+len) as freshly allocated *by this transaction*:
  /// the range is flushed at commit and covers later add_range calls (so
  /// snapshot-on-write fields inside it burn no undo entries), but no
  /// pre-image is logged — on abort/crash the allocation itself is rolled
  /// back, which discards the bytes wholesale.  Never use it on memory that
  /// existed before the transaction.
  void add_fresh_range(void* ptr, std::size_t len);

  /// Allocates inside the transaction; freed automatically on abort.  When
  /// logging the allocation overflows the undo log, the staged heap state
  /// is cancelled before the error propagates — nothing leaks.
  ObjId alloc(std::uint64_t size, std::uint32_t type_num, bool zero = false);

  /// Schedules a free for commit time (the object stays readable until
  /// then, and survives if the transaction aborts).
  void free_obj(ObjId oid);

  [[nodiscard]] bool committed() const noexcept { return committed_; }

  /// The lane this transaction runs on — observable so a LaneSession
  /// holder (and its tests) can pin that batched commits stay on one lane.
  [[nodiscard]] std::uint32_t lane() const noexcept { return lane_; }

 private:
  friend class ObjectPool;

  explicit Transaction(ObjectPool& pool, std::uint32_t lane);
  ~Transaction() = default;

  void begin();
  void commit();
  void abort();

  /// Appends one undo entry (payload may be null for actions), published by
  /// its own checksum under one fenced persist (plus the reference mode's
  /// tail bump).
  void append_entry(UndoKind kind, std::uint64_t off, std::uint64_t len,
                    const void* payload);

  /// Writes one entry at tail_ without persisting; add_range uses it to
  /// stage several gap entries and publish them under a single fence.  The
  /// caller has already checked the log has room.
  void stage_entry(UndoKind kind, std::uint64_t off, std::uint64_t len,
                   const void* payload);

  /// Merges [off, end) into the covered-interval set.
  void cover(std::uint64_t off, std::uint64_t end);

  /// Reference-mode add_range: the version-1 O(n) full-cover-only scan.
  void add_range_reference(std::uint64_t off, std::size_t len,
                           const void* ptr);

  struct Range {
    std::uint64_t off;
    std::uint64_t len;
  };

  ObjectPool* pool_;
  std::uint32_t lane_;
  /// Covered ranges (snapshots + fresh), merged: start -> end.  Transient;
  /// commit flushes each exactly once.
  std::map<std::uint64_t, std::uint64_t> snapshots_;
  /// Reference-mode bookkeeping (TwoPersistReference only).
  std::vector<Range> ref_snapshots_;
  std::uint64_t tail_ = 0;  ///< transient undo tail (bytes staged)
  std::uint64_t gen_ = 0;   ///< this transaction's log generation
  bool committed_ = false;
  bool finished_ = false;
};

/// Lane log recovery at pool open (and before a migration): replays every
/// lane's published redo log, then rolls back or finishes each lane's
/// transaction.  Returns true when any persistent state was changed.
bool recover_lanes(ObjectPool& pool);

/// Bytes of the checksum-valid, generation-`gen` entry prefix at the head
/// of a lane's undo log — the published log recovery would act on.  Used by
/// introspection now that the live tail is transient.
[[nodiscard]] std::uint64_t undo_published_bytes(const std::byte* undo,
                                                 std::uint64_t gen);

}  // namespace cxlpmem::pmemkit
