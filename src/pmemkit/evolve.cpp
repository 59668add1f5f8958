// pmemkit/evolve.cpp — v1→v2 migration, resize protocol, compactor.
//
// See evolve.hpp for the invalidate-then-seal discipline all of this
// follows.  Crash points (crash_hook.hpp) bracket every durable step so the
// crash suites can sweep mid-migration, mid-resize and mid-compaction.

#include "pmemkit/evolve.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "pmemkit/checksum.hpp"
#include "pmemkit/crash_hook.hpp"
#include "pmemkit/errors.hpp"
#include "pmemkit/redo.hpp"
#include "pmemkit/tx.hpp"

namespace cxlpmem::pmemkit {

namespace {

EvolutionMarker* marker_at(PersistentRegion& region) noexcept {
  return reinterpret_cast<EvolutionMarker*>(region.base() + kEvolveMarkerOff);
}

SpanTable* span_table_at(PersistentRegion& region) noexcept {
  return reinterpret_cast<SpanTable*>(region.base() + kSpanTableOff);
}

void plant_marker(PersistentRegion& region, EvolveOp op,
                  std::uint32_t from_version, std::uint32_t to_version,
                  std::uint64_t target_size) {
  EvolutionMarker m{};
  m.magic = kEvolveMagic;
  m.op = static_cast<std::uint32_t>(op);
  m.from_version = from_version;
  m.to_version = to_version;
  m.target_size = target_size;
  m.checksum = marker_checksum(m);
  region.memcpy_persist(marker_at(region), &m, sizeof(m));
}

void clear_marker(PersistentRegion& region) {
  const EvolutionMarker zero{};
  region.memcpy_persist(marker_at(region), &zero, sizeof(zero));
}

/// Copy-and-verify: write, persist, read back, compare fingerprints.  A
/// torn or dropped line surfaces here instead of as silent loss later.
void copy_verified(PersistentRegion& region, std::uint64_t off,
                   const void* src, std::size_t len) {
  region.memcpy_persist(region.base() + off, src, len);
  if (fletcher64(region.base() + off, len) != fletcher64(src, len))
    throw PoolError(ErrKind::CorruptImage,
                    "copy-and-verify mismatch at pool offset " +
                        std::to_string(off));
}

/// A lane's redo log at its fixed offset — usable before the pool's header
/// has been validated (lane geometry is identical in every layout version).
RedoLog& lane_redo_at(PersistentRegion& region, std::uint32_t lane) noexcept {
  return *reinterpret_cast<RedoLog*>(region.base() + kHeaderSize +
                                     std::uint64_t{lane} * kLaneSize +
                                     offsetof(LaneHeader, redo));
}

}  // namespace

std::uint64_t span_table_checksum(const SpanTable& t) {
  SpanTable probe = t;
  probe.checksum = 0;
  return fletcher64(&probe, sizeof(probe));
}

std::uint64_t marker_checksum(const EvolutionMarker& m) {
  EvolutionMarker probe = m;
  probe.checksum = 0;
  return fletcher64(&probe, sizeof(probe));
}

bool recover_evolution(ObjectPool& pool, bool migrate) {
  PersistentRegion& region = pool.region();
  if (region.size() < kHeaderSize) return false;  // header checks will reject
  const EvolutionMarker& m = *marker_at(region);
  if (m.magic != kEvolveMagic) return false;
  if (m.checksum != marker_checksum(m)) {
    // Torn marker write: the crash hit before the marker was durable, so
    // the operation is guaranteed not to have touched the image yet.
    clear_marker(region);
    return true;
  }

  // The sealing redo commit may be published but not applied; replay every
  // lane log before trusting anything the seal rewrites (version word,
  // pool_size, span-table count, header checksum).
  if (region.size() < kHeaderSize + kLaneCount * kLaneSize)
    throw PoolError(ErrKind::CorruptImage,
                    "evolution marker present but lane region is truncated");
  for (std::uint32_t l = 0; l < kLaneCount; ++l)
    redo_recover(region, lane_redo_at(region, l));

  const auto& h = *reinterpret_cast<const PoolHeader*>(region.base());
  switch (static_cast<EvolveOp>(m.op)) {
    case EvolveOp::Resize:
      // Roll to whatever the header says: pre-seal crash => the header kept
      // the old size (rolls a grow's ftruncate back / leaves a shrink's
      // file alone); post-seal crash => the header carries the new size
      // (completes a shrink's pending truncation).
      if (h.pool_size != region.size()) region.resize(h.pool_size);
      clear_marker(region);
      return true;
    case EvolveOp::MigrateV1V2:
      if (h.version == kPoolVersion) {
        // Seal landed; only the marker clear was lost.
        clear_marker(region);
        return true;
      }
      if (!migrate)
        throw PoolError(ErrKind::MigrationPending,
                        "interrupted v1->v2 migration; reopen with "
                        "PoolOptions::migrate to finish it");
      return true;  // migrate_v1_pool reruns under the existing marker
    default:
      throw PoolError(ErrKind::CorruptImage,
                      "evolution marker names an unknown operation");
  }
}

void migrate_v1_pool(ObjectPool& pool, std::string_view layout) {
  PersistentRegion& region = pool.region();
  PoolHeader& h = pool.header();

  // A migration only starts from a *healthy* v1 image — the usual open
  // checks, against the v1 version number.
  if (h.version != kPoolVersionV1)
    throw PoolError(ErrKind::VersionMismatch,
                    "migrator requires a version-1 pool");
  if (h.checksum != header_checksum(h))
    throw PoolError(ErrKind::ChecksumMismatch,
                    "pool header checksum mismatch");
  if (h.pool_size != pool.size())
    throw PoolError(ErrKind::SizeMismatch, "pool size mismatch");
  if (std::string_view(h.layout.data()) != layout)
    throw PoolError(ErrKind::LayoutMismatch,
                    "layout mismatch: pool has '" +
                        std::string(h.layout.data()) + "', caller wants '" +
                        std::string(layout) + "'");
  crash_point("evolve:validated");

  // 1. Invalidate: the durable marker precedes every mutation.  Idempotent
  // on rerun — an interrupted attempt left the identical marker behind.
  plant_marker(region, EvolveOp::MigrateV1V2, kPoolVersionV1, kPoolVersion,
               h.pool_size);
  crash_point("evolve:marker");

  // 2. Drain every lane to Idle.  v1 logs are protocol-agnostic to
  // recovery, so this retires any transaction the v1 writer left mid-air;
  // afterwards no lane state needs translating.
  pool.heap_ = std::make_unique<Heap>(region, h.heap_off, h.heap_size);
  pool.heap_->rebuild();
  recover_lanes(pool);
  crash_point("evolve:quiesced");

  // 3. Copy-and-verify the span-table entries.  count stays 0 on media —
  // the image remains a valid v1 pool — until the seal flips it together
  // with the version word.
  SpanTable next{};
  next.count = 1;
  next.spans[0] = HeapSpan{h.heap_off, h.heap_size};
  next.checksum = span_table_checksum(next);
  copy_verified(region, kSpanTableOff + offsetof(SpanTable, spans),
                next.spans.data(), sizeof(next.spans));
  crash_point("evolve:spantable");

  // 4. Verify every region the new layout will trust: lanes Idle with no
  // published redo (the heap was validated chunk-by-chunk in rebuild()).
  for (std::uint32_t l = 0; l < kLaneCount; ++l) {
    const LaneHeader& lane = pool.lane_header(l);
    if (static_cast<LaneState>(lane.state) != LaneState::Idle ||
        lane.redo.valid != 0)
      throw PoolError(ErrKind::CorruptImage,
                      "lane " + std::to_string(l) +
                          " failed to drain during migration");
  }
  crash_point("evolve:verified");

  // 5. Seal: one redo commit flips the version word (version and flags
  // share one 8-byte cell), publishes the span-table count + checksum, and
  // installs the successor header checksum.  All or nothing.
  PoolHeader probe = h;
  probe.version = kPoolVersion;
  const std::uint64_t version_word =
      std::uint64_t{kPoolVersion} | (std::uint64_t{h.flags} << 32);
  RedoSession seal(region, pool.lane_header(0).redo);
  seal.stage(offsetof(PoolHeader, version), version_word);
  seal.stage(offsetof(PoolHeader, checksum), header_checksum(probe));
  seal.stage(kSpanTableOff + offsetof(SpanTable, count), next.count);
  seal.stage(kSpanTableOff + offsetof(SpanTable, checksum), next.checksum);
  crash_point("evolve:pre-seal");
  seal.commit();
  crash_point("evolve:sealed");

  // 6. The image is wholly v2; retire the marker.
  clear_marker(region);
  crash_point("evolve:cleared");

  pool.heap_.reset();  // the open path rebuilds through the span table
  pool.recovered_ = true;
}

void ObjectPool::resize(std::uint64_t new_size) {
  if (new_size < min_pool_size())
    throw PoolError(ErrKind::PoolTooSmall,
                    "resize below minimum pool size (" +
                        std::to_string(min_pool_size()) + " bytes)");
  const Quiesce quiesce(*this);
  PoolHeader& h = header();
  const std::uint64_t old_size = size();
  if (new_size == old_size) return;

  if (new_size > old_size) {
    // --- grow: marker -> extend file -> format span -> seal -> clear ----
    if (heap_->span_count() >= kMaxHeapSpans)
      throw PoolError(ErrKind::OutOfSpace,
                      "pool already holds the maximum number of heap spans");

    // Current table (or the implicit single span) + the new entry.
    SpanTable next = *span_table_at(region_);
    if (next.count == 0) {
      next = SpanTable{};
      next.count = 1;
      next.spans[0] = HeapSpan{h.heap_off, h.heap_size};
    }
    next.spans[next.count] = HeapSpan{old_size, new_size - old_size};
    next.count += 1;
    next.checksum = span_table_checksum(next);

    plant_marker(region_, EvolveOp::Resize, h.version, h.version, new_size);
    crash_point("resize:marker");

    // Extend file + mapping.  The base may move: every cached direct
    // pointer re-resolves through the bumped registry generation.  A failed
    // ftruncate/mremap (quota, RLIMIT_FSIZE, address space) leaves the
    // image untouched — retire the marker so the media does not keep
    // claiming an in-flight resize, then surface the typed error.
    try {
      region_.resize(new_size);
    } catch (...) {
      clear_marker(region_);
      throw;
    }
    detail::bump_pool_generation();
    crash_point("resize:mapped");

    // Format and publish the span: allocations may land in it from here on
    // (this process); durability of the *membership* comes with the seal.
    heap_->extend_span(old_size, new_size - old_size);
    crash_point("resize:formatted");

    // Entries first (inert while count is still old), then the seal flips
    // count, table checksum, pool_size and header checksum atomically.
    copy_verified(region_, kSpanTableOff + offsetof(SpanTable, spans),
                  next.spans.data(), sizeof(next.spans));
    // Re-resolve the header: the remap above may have moved the base, and
    // `h` was bound to the old mapping.
    PoolHeader probe = header();
    probe.pool_size = new_size;
    RedoSession seal(region_, lane_header(0).redo);
    seal.stage(offsetof(PoolHeader, pool_size), new_size);
    seal.stage(offsetof(PoolHeader, checksum), header_checksum(probe));
    seal.stage(kSpanTableOff + offsetof(SpanTable, count), next.count);
    seal.stage(kSpanTableOff + offsetof(SpanTable, checksum), next.checksum);
    crash_point("resize:pre-seal");
    seal.commit();
    crash_point("resize:sealed");

    clear_marker(region_);
    crash_point("resize:cleared");
  } else {
    // --- shrink: whole trailing spans only, and only when empty ---------
    // Runs the compactor may have drained still sit reserved for their
    // class; return them first so a compact-then-shrink sequence works.
    heap_->reclaim_empty_runs();
    const std::uint32_t spans = heap_->span_count();
    std::uint32_t keep = spans;
    while (keep > 1 && heap_->span_extent(keep - 1).off >= new_size) --keep;
    if (keep == spans) return;  // rounds up to the span boundary: a no-op

    // Refuse BEFORE anything durable happens when the doomed tail is
    // occupied (live objects, or run chunks still reserved for a class).
    for (std::uint32_t i = keep; i < spans; ++i)
      if (!heap_->span_retractable(i))
        throw PoolError(
            ErrKind::ShrinkBlocked,
            "live objects occupy the heap span at offset " +
                std::to_string(heap_->span_extent(i).off) +
                " that shrinking to " + std::to_string(new_size) +
                " bytes would drop");
    const std::uint64_t final_size = heap_->span_extent(keep).off;

    SpanTable next = *span_table_at(region_);
    next.count = keep;  // stale tail entries stay; count gates them
    next.checksum = span_table_checksum(next);

    plant_marker(region_, EvolveOp::Resize, h.version, h.version, final_size);
    crash_point("resize:marker");

    // Seal first: once pool_size says "short", recovery finishes the
    // truncation; until then the image stays fully the old state.
    PoolHeader probe = h;
    probe.pool_size = final_size;
    RedoSession seal(region_, lane_header(0).redo);
    seal.stage(offsetof(PoolHeader, pool_size), final_size);
    seal.stage(offsetof(PoolHeader, checksum), header_checksum(probe));
    seal.stage(kSpanTableOff + offsetof(SpanTable, count), next.count);
    seal.stage(kSpanTableOff + offsetof(SpanTable, checksum), next.checksum);
    crash_point("resize:pre-seal");
    seal.commit();
    crash_point("resize:sealed");

    // Unpublish the doomed spans while their memory is still mapped, then
    // drop the file tail.
    for (std::uint32_t i = spans; i-- > keep;) heap_->retract_span();
    region_.resize(final_size);
    detail::bump_pool_generation();
    crash_point("resize:mapped");

    clear_marker(region_);
    crash_point("resize:cleared");
  }
  resizes_.fetch_add(1, std::memory_order_relaxed);
}

namespace {
/// Thrown (and caught) inside a relocation transaction whose fresh block
/// landed back in the source chunk: aborting the tx undoes the allocation,
/// and the object simply stays put.
struct SameChunkLanding {};
}  // namespace

CompactReport compact_pool(ObjectPool& pool, std::span<ObjId* const> refs,
                           CompactOptions options) {
  Heap& heap = pool.heap();
  CompactReport report;
  report.fragmentation_before = heap.stats().fragmentation;

  // Admit movable slots and key them by source-chunk fill so the sparsest
  // chunks drain first — each drained chunk goes back to the span map
  // whole, which is what makes the pass converge instead of churn.
  struct Item {
    ObjId* slot;
    std::uint64_t fill;
  };
  std::vector<Item> items;
  items.reserve(refs.size());
  for (ObjId* slot : refs) {
    if (slot == nullptr) continue;
    ++report.examined;
    const ObjId oid = *slot;
    if (oid.is_null() || oid.pool_id != pool.pool_id()) {
      ++report.skipped;
      continue;
    }
    const std::uint64_t fill = heap.chunk_fill_of(oid.off);
    if (fill == 0 ||
        static_cast<double>(fill) / static_cast<double>(kChunkSize) >=
            options.max_source_fill) {
      ++report.skipped;
      continue;
    }
    items.push_back(Item{slot, fill});
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.fill < b.fill; });

  for (std::size_t i = 0; i < items.size(); ++i) {
    if (report.moved_bytes >= options.max_moved_bytes) {
      report.skipped += items.size() - i;
      break;
    }
    ObjId* const slot = items[i].slot;
    const ObjId oid = *slot;
    const auto* sp = reinterpret_cast<const std::byte*>(slot);
    const bool slot_in_pool = sp >= pool.region().base() &&
                              sp < pool.region().base() + pool.size();
    ObjId nid = kNullOid;
    std::byte* dst = nullptr;
    const std::byte* src = nullptr;
    std::uint64_t moved = 0;
    try {
      pool.run_tx([&] {
        const std::uint64_t bytes = pool.usable_size(oid);
        const std::uint32_t type = pool.type_of(oid);
        nid = pool.tx_alloc(bytes, type);
        if (heap.chunk_index_of(nid.off) == heap.chunk_index_of(oid.off))
          throw SameChunkLanding{};
        dst = static_cast<std::byte*>(pool.direct(nid));
        src = static_cast<const std::byte*>(pool.direct(oid));
        // tx_alloc registered the whole block as a fresh range, which is
        // also the store annotation; commit flushes every covered range
        // exactly once, so persisting here would write the lines back
        // twice (PmemSan flags it as R3).
        std::memcpy(dst, src, bytes);  // pmemlint: allow(fresh range registered by tx_alloc; flushed at commit)
        if (fletcher64(dst, bytes) != fletcher64(src, bytes))
          throw PoolError(ErrKind::CorruptImage,
                          "compaction copy-and-verify mismatch");
        // Rewriting the owning slot IS the pointer fix-up: ptr<T> carries
        // nothing but this ObjId.  In-pool slots are snapshotted so a
        // crash replays either the whole move or none of it.
        if (slot_in_pool) {
          pool.tx_add_range(slot, sizeof(ObjId));
          *slot = nid;
        }
        pool.tx_free(oid);
        moved = bytes;
      });
      if (!slot_in_pool) *slot = nid;  // volatile slot: caller-owned memory
      // Slots living inside the object that just moved now live at the
      // relocated address; rebase the not-yet-processed ones.
      for (std::size_t j = i + 1; j < items.size(); ++j) {
        const auto* q = reinterpret_cast<const std::byte*>(items[j].slot);
        if (q >= src && q < src + moved)
          items[j].slot = reinterpret_cast<ObjId*>(dst + (q - src));
      }
      ++report.moved_objects;
      report.moved_bytes += moved;
    } catch (const SameChunkLanding&) {
      ++report.skipped;  // tx aborted: the allocation was undone
    } catch (const AllocError&) {
      ++report.skipped;  // no room to relocate this one (e.g. heap full)
    }
  }

  // Emptied runs go back to the span map — this, not the moves themselves,
  // is what lowers reserved_bytes and with it the fragmentation ratio.
  report.reclaimed_chunks = heap.reclaim_empty_runs();

  report.fragmentation_after = heap.stats().fragmentation;
  return report;
}

}  // namespace cxlpmem::pmemkit
