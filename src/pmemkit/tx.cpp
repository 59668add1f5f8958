#include "pmemkit/tx.hpp"

#include <cstring>

#include "pmemkit/checksum.hpp"
#include "pmemkit/crash_hook.hpp"
#include "pmemkit/pool.hpp"
#include "pmemkit/redo.hpp"

namespace cxlpmem::pmemkit {

namespace {

constexpr std::uint64_t round16(std::uint64_t n) noexcept {
  return (n + 15) & ~std::uint64_t{15};
}

struct ParsedEntry {
  UndoKind kind;
  std::uint64_t off;
  std::uint64_t len;
  const std::byte* payload;
};

/// Scans the published entries of a lane's undo log from the start.  Each
/// entry self-validates (generation + checksum over header and payload, the
/// checksum verified incrementally in place — no copy buffer), and the
/// first entry that fails any check is the torn end-of-log: entries are
/// appended strictly in order behind per-entry fences, so the durable log
/// is always a valid prefix, and the generation check stops a checksum-
/// valid leftover from an earlier transaction on this lane from extending
/// it.  `published_bytes`, when given, receives the prefix length.
std::vector<ParsedEntry> parse_entries(const std::byte* undo,
                                       std::uint64_t gen,
                                       std::uint64_t* published_bytes =
                                           nullptr) {
  std::vector<ParsedEntry> out;
  std::uint64_t pos = 0;
  while (pos + sizeof(UndoEntryHeader) <= kUndoLogBytes) {
    UndoEntryHeader hdr;
    std::memcpy(&hdr, undo + pos, sizeof(hdr));
    const auto kind = static_cast<UndoKind>(hdr.kind);
    if (kind != UndoKind::Snapshot && kind != UndoKind::AllocAction &&
        kind != UndoKind::FreeAction)
      break;
    const std::uint64_t payload_len =
        kind == UndoKind::Snapshot ? hdr.len : 0;
    if (payload_len > kUndoLogBytes - pos - sizeof(hdr)) break;

    // Verify: checksum computed with its own field zeroed; the payload is
    // hashed where it lies.
    UndoEntryHeader probe = hdr;
    probe.checksum = 0;
    Fletcher64 sum;
    sum.update(&probe, sizeof(probe));
    sum.update(undo + pos + sizeof(hdr), payload_len);
    if (sum.final() != hdr.checksum) break;
    if (hdr.gen != gen) break;

    out.push_back(ParsedEntry{kind, hdr.off, hdr.len,
                              undo + pos + sizeof(UndoEntryHeader)});
    pos += sizeof(UndoEntryHeader) + round16(payload_len);
  }
  if (published_bytes != nullptr) *published_bytes = pos;
  return out;
}

/// Atomic free through a lane's redo log; tolerates already-dead objects so
/// recovery replay is idempotent.  Concurrency comes from the heap's chunk
/// locks — no global allocator mutex.
void atomic_free(PersistentRegion& region, Heap& heap, RedoLog& redo,
                 std::uint64_t off) {
  RedoSession session(region, redo);
  PreparedFree pf = heap.stage_free(session, off, /*tolerate_dead=*/true);
  if (pf.staged) {
    session.commit();
    heap.finish_free(pf);
  }
}

/// Retires a lane: Idle + zero tail (named fields of the lane's first
/// cache line, offsets pinned in layout.hpp) plus a zeroed log head — the
/// first entry's kind word is wiped so the dead log scans as empty.  All
/// three stores publish under ONE drain.  Every torn subset (persistence
/// atomicity is the 8-byte word, so any combination may land) is
/// recoverable: Idle next to a stale tail is reset by the next open, a
/// Committed/Active state re-runs its (idempotent) scan — which ends
/// immediately if the head wipe landed — and the head wipe alone just
/// makes an already-finished log unscannable.  The durable head wipe is
/// also what makes the next begin()'s single-fence line write safe: see
/// Transaction::begin.
void retire_lane(PersistentRegion& region, LaneHeader& lh, std::byte* undo,
                 TxPublish publish) {
  if (publish == TxPublish::TwoPersistReference) {
    // Version-1 benchmark baseline: two ordered fenced persists (the head
    // wipe rides the second fence so a later single-fence reopen of the
    // same pool still finds dead logs unscannable).
    lh.state = static_cast<std::uint32_t>(LaneState::Idle);
    region.note_store_infra(&lh.state, sizeof(lh.state));
    region.persist(&lh.state, sizeof(lh.state));
    lh.undo_tail = 0;
    region.note_store_infra(&lh.undo_tail, sizeof(lh.undo_tail));
    region.flush(&lh.undo_tail, sizeof(lh.undo_tail));
    std::memset(undo, 0, sizeof(std::uint64_t));  // pmemlint: allow(log-head wipe, flushed next line)
    region.note_store_infra(undo, sizeof(std::uint64_t));
    region.flush(undo, sizeof(std::uint64_t));
    region.drain();
    return;
  }
  lh.state = static_cast<std::uint32_t>(LaneState::Idle);
  lh.undo_tail = 0;
  region.note_store_infra(&lh.state, offsetof(LaneHeader, undo_tail) +
                                         sizeof(lh.undo_tail));
  region.flush(&lh.state, offsetof(LaneHeader, undo_tail) +
                              sizeof(lh.undo_tail));
  std::memset(undo, 0, sizeof(std::uint64_t));  // pmemlint: allow(kind+flags of entry 0, flushed next line)
  region.note_store_infra(undo, sizeof(std::uint64_t));
  region.flush(undo, sizeof(std::uint64_t));
  crash_point("tx:retire-pair");
  region.drain();
}

/// Rolls a lane back: pre-images restored in reverse, fresh allocations
/// released, lane retired.
void rollback_lane(PersistentRegion& region, Heap& heap, LaneHeader& lh,
                   std::byte* undo, TxPublish publish) {
  const auto entries = parse_entries(undo, lh.undo_gen);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    switch (it->kind) {
      case UndoKind::Snapshot:
        region.memcpy_persist(region.base() + it->off, it->payload, it->len);
        crash_point("tx:rollback-snapshot");
        break;
      case UndoKind::AllocAction:
        atomic_free(region, heap, lh.redo, it->off);
        crash_point("tx:rollback-alloc");
        break;
      case UndoKind::FreeAction:
        break;  // never performed; nothing to roll back
    }
  }
  retire_lane(region, lh, undo, publish);
  crash_point("tx:rolled-back");
}

/// Finishes a committed lane: performs (or re-performs) deferred frees.
void finish_committed_lane(PersistentRegion& region, Heap& heap,
                           LaneHeader& lh, std::byte* undo,
                           TxPublish publish) {
  const auto entries = parse_entries(undo, lh.undo_gen);
  for (const ParsedEntry& e : entries) {
    if (e.kind != UndoKind::FreeAction) continue;
    atomic_free(region, heap, lh.redo, e.off);
    crash_point("tx:freed");
  }
  retire_lane(region, lh, undo, publish);
  crash_point("tx:retired");
}

/// Wrap-safe containment check shared by add_range/add_fresh_range:
/// compares as offsets/sizes, because `p + len` can wrap for a huge len.
/// Returns the pool offset of `ptr`.
std::uint64_t checked_region_offset(PersistentRegion& region,
                                    const void* ptr, std::size_t len,
                                    const char* what) {
  const auto* p = static_cast<const std::byte*>(ptr);
  if (p < region.base() ||
      static_cast<std::size_t>(p - region.base()) > region.size() ||
      len > region.size() - static_cast<std::size_t>(p - region.base()))
    throw TxError(ErrKind::TxMisuse, what);
  return region.offset_of(ptr);
}

}  // namespace

std::uint64_t undo_published_bytes(const std::byte* undo,
                                   std::uint64_t gen) {
  std::uint64_t bytes = 0;
  (void)parse_entries(undo, gen, &bytes);
  return bytes;
}

Transaction::Transaction(ObjectPool& pool, std::uint32_t lane)
    : pool_(&pool), lane_(lane) {}

void Transaction::begin() {
  // Between lane acquisition and the first lane-header write the power may
  // fail too.  This point also matters for multi-threaded crash tests: a
  // lane released by a thread that just "lost power" mid-commit must not be
  // re-begun (bumping its generation) by a thread that has not noticed the
  // cut yet — the hook stops it here, before any mutation.
  crash_point("tx:acquire");
  if (PmemSan* san = pool_->region().pmemsan()) san->tx_begin(lane_);
  LaneHeader& lh = pool_->lane_header(lane_);
  if (pool_->tx_publish() == TxPublish::TwoPersistReference) {
    // Version-1 benchmark baseline: tail (with the generation riding the
    // same fence), then state, as two ordered fenced persists.
    lh.undo_tail = 0;
    lh.undo_gen += 1;
    pool_->region().note_store_infra(
        &lh.undo_tail, offsetof(LaneHeader, undo_gen) +
                           sizeof(lh.undo_gen) -
                           offsetof(LaneHeader, undo_tail));
    pool_->persist(&lh.undo_tail,
                   offsetof(LaneHeader, undo_gen) + sizeof(lh.undo_gen) -
                       offsetof(LaneHeader, undo_tail));
    lh.state = static_cast<std::uint32_t>(LaneState::Active);
    pool_->region().note_store_infra(&lh.state, sizeof(lh.state));
    pool_->persist(&lh.state, sizeof(lh.state));
  } else {
    // One fenced line write for {tail, gen, state}.  Persistence atomicity
    // is the 8-byte word, so a power cut mid-writeback may land ANY subset
    // of the three stores — including Active next to a stale generation.
    // That partial is still safe, because while a begin is in flight the
    // lane's log head is durably zeroed (retire_lane wiped it under its
    // own fence before the lane could be reused, and a fresh pool's lanes
    // are zero): whatever {state, gen} recovery finds, the entry scan
    // stops at offset 0 and rolls back nothing — which is correct, since
    // no entry has been appended and no user data touched.  Once this
    // drain completes, gen and state are BOTH durable, ahead of any entry
    // append or user store the transaction performs.
    lh.undo_tail = 0;
    lh.undo_gen += 1;
    lh.state = static_cast<std::uint32_t>(LaneState::Active);
    pool_->region().note_store_infra(
        &lh.state, offsetof(LaneHeader, undo_gen) + sizeof(lh.undo_gen));
    pool_->flush(&lh.state,
                 offsetof(LaneHeader, undo_gen) + sizeof(lh.undo_gen));
    pool_->drain();
  }
  gen_ = lh.undo_gen;
  tail_ = 0;
  crash_point("tx:begin");
}

void Transaction::stage_entry(UndoKind kind, std::uint64_t off,
                              std::uint64_t len, const void* payload) {
  std::byte* undo = pool_->lane_undo(lane_);
  const std::uint64_t payload_len =
      kind == UndoKind::Snapshot ? len : 0;
  std::byte* dst = undo + tail_;
  UndoEntryHeader hdr{static_cast<std::uint32_t>(kind), 0, gen_,
                      off,  len, 0, 0};
  // pmemlint: allow(undo-entry staging; the caller persists the batch)
  std::memcpy(dst, &hdr, sizeof(hdr));
  if (payload_len > 0)
    std::memcpy(dst + sizeof(hdr), payload, payload_len);  // pmemlint: allow(ditto)
  hdr.checksum =
      fletcher64(dst, sizeof(hdr) + payload_len);  // checksum field is 0
  // pmemlint: allow(ditto)
  std::memcpy(dst + offsetof(UndoEntryHeader, checksum), &hdr.checksum,
              sizeof(hdr.checksum));
  // The round16 pad rides the entry's persist; announce the full span so
  // the sanitizer sees the pad bytes as deliberately written.
  pool_->region().note_store_infra(dst, sizeof(hdr) + round16(payload_len));
  tail_ += sizeof(hdr) + round16(payload_len);
}

void Transaction::append_entry(UndoKind kind, std::uint64_t off,
                               std::uint64_t len, const void* payload) {
  const std::uint64_t payload_len =
      kind == UndoKind::Snapshot ? len : 0;
  const std::uint64_t entry_size =
      sizeof(UndoEntryHeader) + round16(payload_len);
  if (entry_size > kUndoLogBytes - tail_)
    throw TxError(ErrKind::LogOverflow, "undo log full (snapshot too large or too many ranges)");

  std::byte* dst = pool_->lane_undo(lane_) + tail_;
  stage_entry(kind, off, len, payload);
  // The single fenced persist IS the publish: the entry's checksum and
  // generation make it self-validating, so no tail bump follows.
  pool_->persist(dst, entry_size);
  crash_point("tx:entry");

  if (pool_->tx_publish() == TxPublish::TwoPersistReference) {
    // Version-1 benchmark baseline: the redundant persistent tail bump.
    LaneHeader& lh = pool_->lane_header(lane_);
    lh.undo_tail += entry_size;
    pool_->persist(&lh.undo_tail, sizeof(lh.undo_tail));
    crash_point("tx:tail");
  }
}

void Transaction::cover(std::uint64_t off, std::uint64_t end) {
  auto it = snapshots_.upper_bound(off);
  if (it != snapshots_.begin() && std::prev(it)->second >= off) --it;
  while (it != snapshots_.end() && it->first <= end) {
    off = std::min(off, it->first);
    end = std::max(end, it->second);
    it = snapshots_.erase(it);
  }
  snapshots_.emplace(off, end);
}

void Transaction::add_range_reference(std::uint64_t off, std::size_t len,
                                      const void* ptr) {
  // Version-1 behaviour: only a full cover skips the append, a partial
  // overlap re-logs the whole range, and the scan is linear.
  for (const Range& r : ref_snapshots_) {
    if (off >= r.off && off + len <= r.off + r.len) return;
  }
  append_entry(UndoKind::Snapshot, off, len, ptr);
  ref_snapshots_.push_back(Range{off, len});
}

void Transaction::add_range(void* ptr, std::size_t len) {
  if (len == 0) return;
  PersistentRegion& region = pool_->region();
  const std::uint64_t off =
      checked_region_offset(region, ptr, len, "add_range outside pool");
  const std::uint64_t end = off + len;

  if (pool_->tx_publish() == TxPublish::TwoPersistReference) {
    add_range_reference(off, len, ptr);
    if (PmemSan* san = region.pmemsan()) san->tx_cover(lane_, off, len);
    region.note_store(ptr, len);
    return;
  }

  // Parts of [off, end) already covered need no new entry: the first
  // snapshot of a byte holds the pre-image an abort must restore, and
  // commit flushes the merged range once.  Only the uncovered gaps are
  // logged — staged back-to-back and published under ONE fence (a torn
  // suffix of the batch self-invalidates exactly like a torn single entry,
  // and no user store can have hit these bytes before this call returns).
  Range gaps[2];
  std::size_t gap_count = 0;
  std::vector<Range> gap_overflow;  // >2 gaps: a range bridging many holes
  const auto add_gap = [&](std::uint64_t o, std::uint64_t e) {
    if (gap_count < 2)
      gaps[gap_count++] = Range{o, e - o};
    else
      gap_overflow.push_back(Range{o, e - o});
  };
  {
    auto it = snapshots_.upper_bound(off);
    if (it != snapshots_.begin() && std::prev(it)->second > off) --it;
    std::uint64_t cur = off;
    for (; it != snapshots_.end() && it->first < end && cur < end; ++it) {
      if (it->first > cur) add_gap(cur, std::min(it->first, end));
      cur = std::max(cur, it->second);
    }
    if (cur < end) add_gap(cur, end);
  }
  if (gap_count == 0) {
    if (PmemSan* san = region.pmemsan()) san->tx_cover(lane_, off, len);
    region.note_store(ptr, len);
    return;
  }

  // All-or-nothing space check before staging, so a LogOverflow leaves no
  // partially staged batch behind.
  std::uint64_t total = 0;
  const auto entry_bytes = [](const Range& g) {
    return sizeof(UndoEntryHeader) + round16(g.len);
  };
  for (std::size_t i = 0; i < gap_count; ++i) total += entry_bytes(gaps[i]);
  for (const Range& g : gap_overflow) total += entry_bytes(g);
  if (total > kUndoLogBytes - tail_)
    throw TxError(ErrKind::LogOverflow, "undo log full (snapshot too large or too many ranges)");

  std::byte* publish_from = pool_->lane_undo(lane_) + tail_;
  for (std::size_t i = 0; i < gap_count; ++i)
    stage_entry(UndoKind::Snapshot, gaps[i].off, gaps[i].len,
                region.base() + gaps[i].off);
  for (const Range& g : gap_overflow)
    stage_entry(UndoKind::Snapshot, g.off, g.len, region.base() + g.off);
  pool_->persist(publish_from, total);
  crash_point("tx:entry");

  cover(off, end);
  if (PmemSan* san = region.pmemsan()) san->tx_cover(lane_, off, len);
  region.note_store(ptr, len);
}

void Transaction::add_fresh_range(void* ptr, std::size_t len) {
  if (len == 0) return;
  PersistentRegion& region = pool_->region();
  const std::uint64_t off = checked_region_offset(
      region, ptr, len, "add_fresh_range outside pool");
  // No undo entry: the AllocAction already logged for this object is the
  // rollback.  Recording the range makes commit flush it and makes later
  // add_range calls inside it coalesce to nothing.
  if (pool_->tx_publish() == TxPublish::TwoPersistReference)
    ref_snapshots_.push_back(Range{off, len});
  else
    cover(off, off + len);
  if (PmemSan* san = region.pmemsan()) san->tx_cover(lane_, off, len);
  region.note_store(ptr, len);
}

ObjId Transaction::alloc(std::uint64_t size, std::uint32_t type_num,
                         bool zero) {
  RedoSession session(pool_->region(), pool_->lane_header(lane_).redo);
  PreparedAlloc pa =
      pool_->heap_->stage_alloc(session, size, type_num, zero);
  try {
    // Publish the undo action first: a crash can roll the allocation back,
    // never leak it.
    append_entry(UndoKind::AllocAction, pa.data_off, 0, nullptr);
  } catch (const CrashInjected&) {
    throw;  // power cut: no cleanup may happen
  } catch (...) {
    // Undo log full (or any other append failure) before the session
    // committed: nothing persistent was published, but the staged transient
    // claims (chunk ownership, fresh-chunk reservations) must be returned
    // or the heap leaks them until close.
    pool_->heap_->cancel_alloc(pa);
    throw;
  }
  session.commit();
  pool_->heap_->finish_alloc(pa);
  // pmemobj semantics: memory allocated by this transaction needs no
  // explicit add_range — register the whole usable block as a fresh range
  // so commit flushes whatever the caller stores into it.  The AllocAction
  // above is the rollback, so this costs no undo bytes.
  add_fresh_range(pool_->region().base() + pa.data_off,
                  pa.total_size - sizeof(AllocHeader));
  return ObjId{pool_->pool_id(), pa.data_off};
}

void Transaction::free_obj(ObjId oid) {
  if (oid.is_null()) return;
  if (oid.pool_id != pool_->pool_id())
    throw TxError(ErrKind::BadOid, "tx_free of foreign-pool oid");
  if (!pool_->heap_->is_live_synced(oid.off))
    throw TxError(ErrKind::InvalidFree, "tx_free of non-live object");
  append_entry(UndoKind::FreeAction, oid.off, 0, nullptr);
}

void Transaction::commit() {
  PersistentRegion& region = pool_->region();
  // (1) user data modified under snapshots becomes durable — each merged
  // range flushed exactly once.
  if (pool_->tx_publish() == TxPublish::TwoPersistReference) {
    for (const Range& r : ref_snapshots_)
      region.flush(region.base() + r.off, r.len);
  } else {
    for (const auto& [off, end] : snapshots_)
      region.flush(region.base() + off, end - off);
  }
  region.drain();
  crash_point("tx:flush-user");

  // (2) point of no return.  Publishing the commit record while any
  // covered line is still not durable is exactly R2 — check before the
  // marker store.
  if (PmemSan* san = region.pmemsan()) san->tx_commit_publish(lane_);
  LaneHeader& lh = pool_->lane_header(lane_);
  lh.state = static_cast<std::uint32_t>(LaneState::Committed);
  region.note_store_infra(&lh.state, sizeof(lh.state));
  region.persist(&lh.state, sizeof(lh.state));
  crash_point("tx:committed");

  // (3) deferred frees + retire.
  finish_committed_lane(region, *pool_->heap_, lh, pool_->lane_undo(lane_),
                        pool_->tx_publish());
  if (PmemSan* san = region.pmemsan()) san->tx_end(lane_);
  committed_ = true;
  finished_ = true;
}

void Transaction::abort() {
  rollback_lane(pool_->region(), *pool_->heap_, pool_->lane_header(lane_),
                pool_->lane_undo(lane_), pool_->tx_publish());
  if (PmemSan* san = pool_->region().pmemsan()) san->tx_abort(lane_);
  finished_ = true;
}

bool recover_lanes(ObjectPool& pool) {
  PersistentRegion& region = pool.region();
  // Every published redo log is replayed before any lane's undo work.  A
  // log stays published only while its owner holds the heap words it
  // names, so together the logs restore the heap as it stood at the crash;
  // finishing one lane's deferred frees first and replaying another lane's
  // older log afterwards would resurrect the bitmap bits those frees
  // cleared.
  bool changed = false;
  for (std::uint32_t lane = 0; lane < kLaneCount; ++lane)
    changed = redo_recover(region, pool.lane_header(lane).redo) || changed;

  for (std::uint32_t lane = 0; lane < kLaneCount; ++lane) {
    LaneHeader& lh = pool.lane_header(lane);
    switch (static_cast<LaneState>(lh.state)) {
      case LaneState::Idle: {
        // A torn retire may have landed Idle without the stale tail reset
        // or the log-head wipe (8-byte persistence granularity).  Both
        // must be re-established before the lane can be reused: the next
        // begin()'s single-fence line write is only safe against {Active,
        // stale gen} tearing because an idle lane's log head is durably
        // zero.
        std::byte* undo = pool.lane_undo(lane);
        std::uint64_t head = 0;
        std::memcpy(&head, undo, sizeof(head));
        bool fixed = false;
        if (lh.undo_tail != 0) {
          lh.undo_tail = 0;
          region.note_store_infra(&lh.undo_tail, sizeof(lh.undo_tail));
          region.flush(&lh.undo_tail, sizeof(lh.undo_tail));
          fixed = true;
        }
        if (head != 0) {
          std::memset(undo, 0, sizeof(std::uint64_t));  // pmemlint: allow(log-head wipe, flushed next line)
          region.note_store_infra(undo, sizeof(std::uint64_t));
          region.flush(undo, sizeof(std::uint64_t));
          fixed = true;
        }
        if (fixed) {
          region.drain();
          changed = true;
        }
        break;
      }
      case LaneState::Active:
        rollback_lane(region, *pool.heap_, lh, pool.lane_undo(lane),
                      pool.tx_publish());
        changed = true;
        break;
      case LaneState::Committed:
        finish_committed_lane(region, *pool.heap_, lh, pool.lane_undo(lane),
                              pool.tx_publish());
        changed = true;
        break;
      default:
        throw PoolError(ErrKind::CorruptImage, "unknown lane state");
    }
  }
  return changed;
}

void ObjectPool::tx_add_range(void* ptr, std::size_t len) {
  Transaction* tx = current_tx();
  if (tx == nullptr) throw TxError(ErrKind::TxMisuse, "tx_add_range outside a transaction");
  tx->add_range(ptr, len);
}

ObjId ObjectPool::tx_alloc(std::uint64_t size, std::uint32_t type_num,
                           bool zero) {
  Transaction* tx = current_tx();
  if (tx == nullptr) throw TxError(ErrKind::TxMisuse, "tx_alloc outside a transaction");
  return tx->alloc(size, type_num, zero);
}

void ObjectPool::tx_free(ObjId oid) {
  Transaction* tx = current_tx();
  if (tx == nullptr) throw TxError(ErrKind::TxMisuse, "tx_free outside a transaction");
  tx->free_obj(oid);
}

}  // namespace cxlpmem::pmemkit
