#include "pmemkit/heap.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "pmemkit/errors.hpp"

namespace cxlpmem::pmemkit {

namespace {

constexpr std::uint32_t kNoChunk = ~0u;

/// Reinterprets a ChunkDesc as the u64 a redo cell stores.
std::uint64_t desc_word(ChunkDesc d) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, &d, sizeof(d));
  return w;
}

/// Adds `delta` (a wrapped negative for a decrement) to a counter that
/// only the holder of its lane writes: a plain load+store, no locked RMW.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t delta) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

/// Second word of an AllocHeader (type_num | flags).
std::uint64_t alloc_word(std::uint32_t type_num,
                         std::uint32_t flags) noexcept {
  return static_cast<std::uint64_t>(type_num) |
         (static_cast<std::uint64_t>(flags) << 32);
}

}  // namespace

Heap::Span Heap::solve_span(std::uint64_t off, std::uint64_t size) const {
  if (off + size > region_->size())
    throw PoolError(ErrKind::CorruptImage, "heap span exceeds pool");
  // Solve for the chunk count given the table consumes span space too.
  std::uint64_t n = size / kChunkSize;
  while (n > 0) {
    const std::uint64_t table =
        (n * sizeof(ChunkDesc) + kAllocAlign - 1) / kAllocAlign * kAllocAlign;
    if (table + n * kChunkSize <= size) break;
    --n;
  }
  if (n == 0)
    throw PoolError(ErrKind::PoolTooSmall,
                    "heap span too small for a single chunk");
  const std::uint64_t table =
      (n * sizeof(ChunkDesc) + kAllocAlign - 1) / kAllocAlign * kAllocAlign;
  Span s;
  s.off = off;
  s.size = size;
  s.chunks_off = off + table;
  s.first_chunk = chunk_count_.load(std::memory_order_relaxed);
  s.chunk_count = static_cast<std::uint32_t>(n);
  return s;
}

void Heap::publish_span(const Span& s, bool chunks_free) {
  const std::uint32_t idx = span_count_.load(std::memory_order_relaxed);
  if (idx >= kMaxHeapSpans)
    throw PoolError(ErrKind::CorruptImage, "too many heap spans");
  spans_[idx] = s;
  chunk_slots_[idx] = std::make_unique<ChunkSlot[]>(s.chunk_count);
  {
    const std::lock_guard<std::mutex> lock(span_mu_);
    chunk_free_.resize(std::size_t{s.first_chunk} + s.chunk_count,
                       chunks_free);
  }
  chunk_count_.store(s.first_chunk + s.chunk_count,
                     std::memory_order_relaxed);
  span_count_.store(idx + 1, std::memory_order_release);
}

Heap::Heap(PersistentRegion& region, std::uint64_t heap_off,
           std::uint64_t heap_size)
    : region_(&region), heap_off_(heap_off), heap_size_(heap_size) {
  partial_runs_.assign(kSizeClasses.size(), {});
  reset_lanes();
  publish_span(solve_span(heap_off, heap_size), /*chunks_free=*/false);
}

void Heap::reset_lanes() noexcept {
  for (LaneShard& l : lanes_) {
    for (auto& h : l.home) h.store(kNoChunk, std::memory_order_relaxed);
    l.objects.store(0, std::memory_order_relaxed);
    l.allocated_bytes.store(0, std::memory_order_relaxed);
    l.live_bytes.store(0, std::memory_order_relaxed);
    l.reserved_chunks.store(0, std::memory_order_relaxed);
  }
  reclaimed_chunks_.store(0, std::memory_order_relaxed);
  const std::uint32_t spans = span_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < spans; ++i)
    for (std::uint32_t c = 0; c < spans_[i].chunk_count; ++c)
      chunk_slots_[i][c].home = 0;
}

void Heap::adopt_span(std::uint64_t off, std::uint64_t size) {
  publish_span(solve_span(off, size), /*chunks_free=*/false);
}

std::uint32_t Heap::extend_span(std::uint64_t off, std::uint64_t size) {
  const Span s = solve_span(off, size);
  ChunkDesc* table = reinterpret_cast<ChunkDesc*>(region_->base() + s.off);
  for (std::uint32_t c = 0; c < s.chunk_count; ++c)
    table[c] = ChunkDesc{static_cast<std::uint8_t>(ChunkState::Free), 0, 0, 0};
  region_->note_store_infra(table, s.chunk_count * sizeof(ChunkDesc));
  region_->persist(table, s.chunk_count * sizeof(ChunkDesc));
  publish_span(s, /*chunks_free=*/true);
  return s.chunk_count;
}

std::uint32_t Heap::span_count() const noexcept {
  return span_count_.load(std::memory_order_acquire);
}

HeapSpan Heap::span_extent(std::uint32_t idx) const noexcept {
  return HeapSpan{spans_[idx].off, spans_[idx].size};
}

std::uint64_t Heap::span_live_bytes(std::uint32_t idx) const {
  const Span& s = spans_[idx];
  std::uint64_t live = 0;
  for (std::uint32_t c = s.first_chunk; c < s.first_chunk + s.chunk_count;) {
    const std::lock_guard<std::mutex> lock(chunk_mutex(c));
    const ChunkDesc& d = *chunk_desc(c);
    switch (static_cast<ChunkState>(d.state)) {
      case ChunkState::Run: {
        const RunHeader* rh = run_header(c);
        std::uint32_t used = 0;
        for (const std::uint64_t w : rh->bitmap)
          used += static_cast<std::uint32_t>(std::popcount(w));
        live += std::uint64_t{used} * kSizeClasses[d.class_idx];
        ++c;
        break;
      }
      case ChunkState::HugeHead:
        live += std::uint64_t{d.span} * kChunkSize;
        c += std::max<std::uint32_t>(d.span, 1);
        break;
      default:
        ++c;
        break;
    }
  }
  return live;
}

bool Heap::span_retractable(std::uint32_t idx) const {
  const Span& s = spans_[idx];
  const std::lock_guard<std::mutex> lock(span_mu_);
  for (std::uint32_t c = 0; c < s.chunk_count; ++c) {
    const ChunkDesc& d =
        reinterpret_cast<const ChunkDesc*>(region_->base() + s.off)[c];
    if (static_cast<ChunkState>(d.state) != ChunkState::Free ||
        !chunk_free_[s.first_chunk + c])
      return false;
  }
  return true;
}

void Heap::retract_span() {
  const std::uint32_t n = span_count_.load(std::memory_order_relaxed);
  if (n <= 1)
    throw PoolError(ErrKind::TxMisuse, "base heap span cannot be retracted");
  const Span& s = spans_[n - 1];
  // Persistent occupancy and transient claims must both be clear; the
  // caller has quiesced transactions, so nothing can slip in between the
  // check and the unpublish below (both run under span_mu_).
  const std::lock_guard<std::mutex> lock(span_mu_);
  for (std::uint32_t c = 0; c < s.chunk_count; ++c) {
    const ChunkDesc& d =
        reinterpret_cast<const ChunkDesc*>(region_->base() + s.off)[c];
    if (static_cast<ChunkState>(d.state) != ChunkState::Free ||
        !chunk_free_[s.first_chunk + c])
      throw PoolError(ErrKind::ShrinkBlocked,
                      "live objects occupy the span a shrink would drop");
  }
  chunk_free_.resize(s.first_chunk);
  chunk_count_.store(s.first_chunk, std::memory_order_relaxed);
  span_count_.store(n - 1, std::memory_order_release);
}

std::uint32_t Heap::span_index_of_chunk(std::uint32_t chunk) const noexcept {
  const std::uint32_t n = span_count_.load(std::memory_order_acquire);
  std::uint32_t i = n - 1;
  while (i > 0 && spans_[i].first_chunk > chunk) --i;
  return i;
}

std::uint32_t Heap::reclaim_empty_runs() {
  const std::uint32_t total = chunk_count_.load(std::memory_order_acquire);
  std::uint32_t reclaimed = 0;
  for (std::uint32_t c = 0; c < total; ++c) {
    const std::lock_guard<std::mutex> lock(chunk_mutex(c));
    const ChunkDesc d = *chunk_desc(c);
    if (static_cast<ChunkState>(d.state) != ChunkState::Run) continue;
    const RunHeader* rh = run_header(c);
    bool empty = true;
    for (std::uint32_t w = 0; w * 64 < rh->block_count && empty; ++w)
      empty = rh->bitmap[w] == 0;
    if (!empty) continue;

    // One aligned word flip, crash-safe without a log: an empty Run and a
    // Free chunk describe the same zero live objects, so either side of
    // the write is a valid image.  The stale RunHeader is inert once the
    // descriptor stops naming the chunk a Run.
    const ChunkDesc free_desc{static_cast<std::uint8_t>(ChunkState::Free), 0,
                              0, 0};
    const std::uint64_t word = desc_word(free_desc);
    region_->memcpy_persist(region_->base() + desc_off(c), &word,
                            sizeof(word));

    // Retire the transient hints (lock order: chunk -> class -> span).  A
    // home must not outlive its run: the chunk may come back as a run of
    // another class.
    if (ChunkSlot& slot = chunk_slot(c); slot.home != 0) {
      std::uint32_t expect = c;
      lanes_[slot.home - 1].home[d.class_idx].compare_exchange_strong(
          expect, kNoChunk, std::memory_order_relaxed);
      slot.home = 0;
    }
    {
      const std::lock_guard<std::mutex> cl(class_mu_[d.class_idx]);
      auto& partials = partial_runs_[d.class_idx];
      partials.erase(std::remove(partials.begin(), partials.end(), c),
                     partials.end());
    }
    {
      const std::lock_guard<std::mutex> sl(span_mu_);
      chunk_free_[c] = true;
    }
    reclaimed_chunks_.fetch_add(1, std::memory_order_relaxed);
    ++reclaimed;
  }
  return reclaimed;
}

ChunkDesc* Heap::chunk_desc(std::uint32_t chunk) noexcept {
  return reinterpret_cast<ChunkDesc*>(region_->base() + desc_off(chunk));
}
const ChunkDesc* Heap::chunk_desc(std::uint32_t chunk) const noexcept {
  return reinterpret_cast<const ChunkDesc*>(region_->base() +
                                            desc_off(chunk));
}
std::uint64_t Heap::desc_off(std::uint32_t chunk) const noexcept {
  const Span& s = spans_[span_index_of_chunk(chunk)];
  return s.off + std::uint64_t{chunk - s.first_chunk} * sizeof(ChunkDesc);
}
std::uint64_t Heap::chunk_off(std::uint32_t chunk) const noexcept {
  const Span& s = spans_[span_index_of_chunk(chunk)];
  return s.chunks_off + std::uint64_t{chunk - s.first_chunk} * kChunkSize;
}
std::byte* Heap::chunk_data(std::uint32_t chunk) noexcept {
  return region_->base() + chunk_off(chunk);
}
const std::byte* Heap::chunk_data(std::uint32_t chunk) const noexcept {
  return region_->base() + chunk_off(chunk);
}
RunHeader* Heap::run_header(std::uint32_t chunk) noexcept {
  return reinterpret_cast<RunHeader*>(chunk_data(chunk));
}
const RunHeader* Heap::run_header(std::uint32_t chunk) const noexcept {
  return reinterpret_cast<const RunHeader*>(chunk_data(chunk));
}
Heap::ChunkSlot& Heap::chunk_slot(std::uint32_t chunk) const noexcept {
  const std::uint32_t i = span_index_of_chunk(chunk);
  return chunk_slots_[i][chunk - spans_[i].first_chunk];
}

std::uint32_t Heap::chunk_of(std::uint64_t off) const noexcept {
  const std::uint32_t n = span_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (off < s.chunks_off ||
        off >= s.chunks_off + std::uint64_t{s.chunk_count} * kChunkSize)
      continue;
    return s.first_chunk +
           static_cast<std::uint32_t>((off - s.chunks_off) / kChunkSize);
  }
  return kNoChunk;
}

void Heap::format() {
  // Create path: only the base span exists.
  const Span& s = spans_[0];
  ChunkDesc* table = reinterpret_cast<ChunkDesc*>(region_->base() + s.off);
  for (std::uint32_t c = 0; c < s.chunk_count; ++c)
    table[c] = ChunkDesc{static_cast<std::uint8_t>(ChunkState::Free), 0, 0, 0};
  region_->note_store_infra(table, s.chunk_count * sizeof(ChunkDesc));
  region_->persist(table, s.chunk_count * sizeof(ChunkDesc));
  partial_runs_.assign(kSizeClasses.size(), {});
  reset_lanes();
  baseline_ = Occupancy{};
  const std::lock_guard<std::mutex> lock(span_mu_);
  chunk_free_.assign(chunk_count_.load(std::memory_order_relaxed), true);
}

void Heap::rebuild() {
  partial_runs_.assign(kSizeClasses.size(), {});
  reset_lanes();
  Occupancy base;
  {
    const std::lock_guard<std::mutex> lock(span_mu_);
    chunk_free_.assign(chunk_count_.load(std::memory_order_relaxed), false);
  }
  const std::uint32_t spans = span_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < spans; ++i) {
    const Span& s = spans_[i];
    const std::uint32_t end = s.first_chunk + s.chunk_count;
    std::uint32_t c = s.first_chunk;
    while (c < end) {
      const ChunkDesc& d = *chunk_desc(c);
      switch (static_cast<ChunkState>(d.state)) {
        case ChunkState::Free:
          chunk_free_[c] = true;
          ++c;
          break;
        case ChunkState::Run: {
          if (d.class_idx >= kSizeClasses.size())
            throw PoolError(ErrKind::CorruptImage, "corrupt run descriptor");
          const RunHeader* rh = run_header(c);
          if (rh->class_idx != d.class_idx)
            throw PoolError(ErrKind::CorruptImage, "run header / descriptor class mismatch");
          std::uint32_t used = 0;
          for (const std::uint64_t w : rh->bitmap)
            used += static_cast<std::uint32_t>(std::popcount(w));
          if (used > rh->block_count) throw PoolError(ErrKind::CorruptImage, "corrupt run bitmap");
          if (used < rh->block_count) partial_runs_[d.class_idx].push_back(c);
          // Occupancy counts the blocks below block_count, the ones
          // allocation and free can reach.
          const std::uint32_t block = kSizeClasses[d.class_idx];
          for (std::uint32_t i = 0; i < rh->block_count; ++i) {
            if ((rh->bitmap[i / 64] & (1ull << (i % 64))) == 0) continue;
            const auto* hdr = reinterpret_cast<const AllocHeader*>(
                chunk_data(c) + kRunHeaderSize + std::uint64_t{i} * block);
            ++base.objects;
            base.allocated_bytes += block;
            base.live_bytes += hdr->size + sizeof(AllocHeader);
          }
          ++base.reserved_chunks;
          ++c;
          break;
        }
        case ChunkState::HugeHead: {
          if (d.span == 0 || c + d.span > end)
            throw PoolError(ErrKind::CorruptImage, "corrupt huge span");
          const auto* hdr = reinterpret_cast<const AllocHeader*>(chunk_data(c));
          ++base.objects;
          base.allocated_bytes += std::uint64_t{d.span} * kChunkSize;
          base.live_bytes += hdr->size + sizeof(AllocHeader);
          base.reserved_chunks += d.span;
          c += d.span;  // covered chunks keep stale descriptors; skip them
          break;
        }
        default:
          throw PoolError(ErrKind::CorruptImage, "unknown chunk state");
      }
    }
  }
  baseline_ = base;
}

std::uint32_t Heap::find_free_span(std::uint32_t span) const {
  // Huge spans are address-contiguous, and addresses only stay contiguous
  // within one heap span — the search never crosses a span boundary.
  const std::uint32_t spans = span_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < spans; ++i) {
    const std::uint32_t end = spans_[i].first_chunk + spans_[i].chunk_count;
    std::uint32_t run_start = 0, run_len = 0;
    for (std::uint32_t c = spans_[i].first_chunk; c < end; ++c) {
      if (chunk_free_[c]) {
        if (run_len == 0) run_start = c;
        if (++run_len == span) return run_start;
      } else {
        run_len = 0;
      }
    }
  }
  return kNoChunk;
}

void Heap::unclaim_span(std::uint32_t chunk, std::uint32_t span) {
  const std::lock_guard<std::mutex> lock(span_mu_);
  const std::uint32_t total = chunk_count_.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < span && chunk + i < total; ++i)
    chunk_free_[chunk + i] = true;
}

bool Heap::run_has_free_block(std::uint32_t chunk) const noexcept {
  const RunHeader* rh = run_header(chunk);
  for (std::uint32_t w = 0; w * 64 < rh->block_count; ++w)
    if (std::popcount(rh->bitmap[w]) < 64 &&
        w * 64 + static_cast<std::uint32_t>(std::countr_one(rh->bitmap[w])) <
            rh->block_count)
      return true;
  return false;
}

bool Heap::run_fits(std::uint32_t chunk, int class_idx) const noexcept {
  const ChunkDesc& d = *chunk_desc(chunk);
  return static_cast<ChunkState>(d.state) == ChunkState::Run &&
         d.class_idx == static_cast<std::uint8_t>(class_idx) &&
         run_has_free_block(chunk);
}

void Heap::acquire_run(RedoSession& redo, int class_idx, std::uint32_t lane,
                       PreparedAlloc& a) {
  a.claimed_span = 0;
  // (0) The lane's home run: only its chunk lock, normally uncontended.
  std::atomic<std::uint32_t>& home = lanes_[lane].home[class_idx];
  if (const std::uint32_t c = home.load(std::memory_order_relaxed);
      c != kNoChunk) {
    std::unique_lock<std::mutex> lk(chunk_mutex(c));
    ChunkSlot& slot = chunk_slot(c);
    if (slot.home == lane + 1 && run_fits(c, class_idx)) {
      a.chunk = c;
      a.owner = std::move(lk);
      return;
    }
    // Full, or reclaimed behind our back: drop it.  A full run returns to
    // the shared lists with its next free (finish_free hints it).
    if (slot.home == lane + 1) slot.home = 0;
    home.store(kNoChunk, std::memory_order_relaxed);
  }

  for (;;) {
    // (1) An idle partial run of this class.  Busy runs are skipped, not
    // waited on — that skip IS the sharding: concurrent same-class
    // allocations fan out across runs.
    std::uint32_t busy_candidate = kNoChunk;
    {
      const std::lock_guard<std::mutex> cl(class_mu_[class_idx]);
      auto& partials = partial_runs_[class_idx];
      for (std::size_t i = partials.size(); i-- > 0;) {
        const std::uint32_t c = partials[i];
        std::unique_lock<std::mutex> lk(chunk_mutex(c), std::try_to_lock);
        if (!lk.owns_lock()) {
          run_lock_skips_.fetch_add(1, std::memory_order_relaxed);
          busy_candidate = c;
          continue;
        }
        if (chunk_slot(c).home == 0 && run_has_free_block(c)) {
          a.chunk = c;
          a.owner = std::move(lk);
          return;
        }
        // Stale: full, or since adopted as a lane's home.
        partials.erase(partials.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }

    // (2) Materialize a new run on a free chunk.  The chunk is claimed
    // transiently under span_mu_ BEFORE its descriptor is staged, so a
    // concurrent span search cannot hand it out twice; cancel_alloc returns
    // the claim.  The RunHeader write is inert until the staged descriptor
    // commits.
    std::uint32_t c = kNoChunk;
    {
      const std::lock_guard<std::mutex> sl(span_mu_);
      c = find_free_span(1);
      if (c != kNoChunk) chunk_free_[c] = false;
    }
    if (c != kNoChunk) {
      // May briefly wait for a previous owner (e.g. a huge free) to finish.
      std::unique_lock<std::mutex> lk(chunk_mutex(c));
      try {
        RunHeader rh{};
        rh.class_idx = static_cast<std::uint32_t>(class_idx);
        rh.block_count = blocks_per_run(kSizeClasses[class_idx]);
        region_->memcpy_persist(run_header(c), &rh, sizeof(rh));
        ChunkDesc d{static_cast<std::uint8_t>(ChunkState::Run),
                    static_cast<std::uint8_t>(class_idx), 0, 0};
        redo.stage(desc_off(c), desc_word(d));
      } catch (...) {
        lk.unlock();
        unclaim_span(c, 1);
        throw;
      }
      a.chunk = c;
      a.claimed_span = 1;
      a.owner = std::move(lk);
      return;
    }

    // (3) No free chunk left: share another lane's home run.  It stays
    // that lane's home.
    for (std::uint32_t l = 0; l < kLaneCount; ++l) {
      const std::uint32_t h =
          lanes_[l].home[class_idx].load(std::memory_order_relaxed);
      if (l == lane || h == kNoChunk) continue;
      std::unique_lock<std::mutex> lk(chunk_mutex(h), std::try_to_lock);
      if (!lk.owns_lock()) {
        run_lock_skips_.fetch_add(1, std::memory_order_relaxed);
        busy_candidate = h;
        continue;
      }
      if (chunk_slot(h).home == l + 1 && run_fits(h, class_idx)) {
        a.chunk = h;
        a.owner = std::move(lk);
        return;
      }
    }

    if (busy_candidate == kNoChunk)
      throw AllocError(ErrKind::OutOfSpace, "out of contiguous heap space");

    // (4) Every candidate run is mid-operation: wait for one (no other
    // lock held, so this cannot deadlock) and re-validate — its holder may
    // have taken the last block.
    run_lock_waits_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lk(chunk_mutex(busy_candidate));
    if (run_fits(busy_candidate, class_idx)) {
      a.chunk = busy_candidate;
      a.owner = std::move(lk);
      return;
    }
  }
}

PreparedAlloc Heap::stage_alloc(RedoSession& redo, std::uint64_t usable,
                                std::uint32_t type_num, bool zero,
                                std::uint32_t lane) {
  if (usable == 0) throw AllocError(ErrKind::BadAlloc, "zero-size allocation");
  bump(lanes_[lane].alloc_ops, 1);
  const std::uint64_t total = usable + sizeof(AllocHeader);
  PreparedAlloc out;
  out.usable = usable;
  out.lane = lane;

  const int cls = size_class_for(total);
  std::uint64_t block_off;  // pool offset of the block start
  if (cls >= 0) {
    const std::uint32_t block = kSizeClasses[cls];
    acquire_run(redo, cls, lane, out);
    const std::uint32_t c = out.chunk;
    const RunHeader* rh = run_header(c);
    try {
      // acquire_run guarantees a free bit below block_count, and chunk
      // ownership keeps the bitmap stable until finish/cancel.
      std::uint32_t idx = 0;
      for (std::uint32_t w = 0;; ++w) {
        const std::uint32_t bit =
            static_cast<std::uint32_t>(std::countr_one(rh->bitmap[w]));
        if (bit < 64 && w * 64 + bit < rh->block_count) {
          idx = w * 64 + bit;
          redo.stage(chunk_off(c) + offsetof(RunHeader, bitmap) + w * 8,
                     rh->bitmap[w] | (1ull << bit));
          break;
        }
      }
      block_off =
          chunk_off(c) + kRunHeaderSize + std::uint64_t{idx} * block;
      out.total_size = block;
    } catch (...) {
      cancel_alloc(out);
      throw;
    }
  } else {
    const auto span = static_cast<std::uint32_t>(
        (total + kChunkSize - 1) / kChunkSize);
    std::uint32_t c = kNoChunk;
    {
      const std::lock_guard<std::mutex> sl(span_mu_);
      c = find_free_span(span);
      if (c != kNoChunk)
        for (std::uint32_t i = 0; i < span; ++i) chunk_free_[c + i] = false;
    }
    if (c == kNoChunk)
      throw AllocError(ErrKind::OutOfSpace, "out of contiguous heap space");
    // A chunk freed moments ago may still be held by its freeing lane for
    // the last transient update; waiting here holds no other lock.
    std::unique_lock<std::mutex> lk(chunk_mutex(c));
    out.chunk = c;
    out.claimed_span = span;
    out.owner = std::move(lk);
    try {
      ChunkDesc d{static_cast<std::uint8_t>(ChunkState::HugeHead), 0, 0,
                  span};
      redo.stage(desc_off(c), desc_word(d));
    } catch (...) {
      cancel_alloc(out);
      throw;
    }
    block_off = chunk_off(c);
    out.total_size = std::uint64_t{span} * kChunkSize;
  }

  AllocHeader hdr{usable, type_num, kAllocLive};
  region_->memcpy_persist(region_->base() + block_off, &hdr, sizeof(hdr));
  out.data_off = block_off + sizeof(AllocHeader);
  if (zero)
    region_->memset_persist(region_->base() + out.data_off, 0, usable);
  return out;
}

void Heap::hint_partial(std::uint8_t class_idx, std::uint32_t chunk) {
  const std::lock_guard<std::mutex> cl(class_mu_[class_idx]);
  auto& partials = partial_runs_[class_idx];
  bool hinted = false;
  for (const std::uint32_t p : partials) hinted |= (p == chunk);
  if (!hinted) partials.push_back(chunk);
}

void Heap::finish_alloc(PreparedAlloc& a) {
  const std::uint32_t c = a.chunk;
  const ChunkDesc& d = *chunk_desc(c);
  // A run from the shared lists or a fresh chunk becomes the lane's home
  // (acquire_run cleared any previous one); other lanes' homes stay theirs.
  if (ChunkSlot& slot = chunk_slot(c);
      static_cast<ChunkState>(d.state) == ChunkState::Run && slot.home == 0) {
    slot.home = a.lane + 1;
    lanes_[a.lane].home[d.class_idx].store(c, std::memory_order_relaxed);
  }
  // Huge spans (and fresh-run chunks) were claimed in chunk_free_ at stage
  // time; now they count as reserved.
  LaneShard& l = lanes_[a.lane];
  bump(l.objects, 1);
  bump(l.allocated_bytes, a.total_size);
  bump(l.live_bytes, a.usable + sizeof(AllocHeader));
  bump(l.reserved_chunks, a.claimed_span);
  if (a.owner.owns_lock()) a.owner.unlock();
}

void Heap::cancel_alloc(PreparedAlloc& a) {
  if (a.owner.owns_lock()) a.owner.unlock();
  if (a.claimed_span > 0) unclaim_span(a.chunk, a.claimed_span);
  a.claimed_span = 0;
  a.data_off = 0;
}

PreparedFree Heap::stage_free(RedoSession& redo, std::uint64_t data_off,
                              bool tolerate_dead, std::uint32_t lane) {
  PreparedFree out;
  const std::uint64_t block_off = data_off - sizeof(AllocHeader);
  const std::uint32_t c =
      data_off < sizeof(AllocHeader) ? kNoChunk : chunk_of(block_off);
  if (c == kNoChunk) {
    if (tolerate_dead) return out;
    throw AllocError(ErrKind::InvalidFree, "free of non-live object");
  }
  std::unique_lock<std::mutex> lk(chunk_mutex(c));
  // Liveness must be judged under the chunk lock: a concurrent operation on
  // the same chunk may be mid-commit.
  if (!is_live(data_off)) {
    if (tolerate_dead) return out;
    throw AllocError(ErrKind::InvalidFree, "free of non-live object");
  }
  const ChunkDesc& d = *chunk_desc(c);
  const auto* hdr =
      reinterpret_cast<const AllocHeader*>(region_->base() + block_off);
  out.usable = hdr->size;

  // Clear the live flag in the same atomic step.
  redo.stage(block_off + 8, alloc_word(hdr->type_num, 0));

  if (static_cast<ChunkState>(d.state) == ChunkState::Run) {
    const RunHeader* rh = run_header(c);
    const std::uint32_t block = kSizeClasses[d.class_idx];
    const std::uint64_t rel = block_off - chunk_off(c) - kRunHeaderSize;
    const auto idx = static_cast<std::uint32_t>(rel / block);
    redo.stage(chunk_off(c) + offsetof(RunHeader, bitmap) + (idx / 64) * 8,
               rh->bitmap[idx / 64] & ~(1ull << (idx % 64)));
  } else {
    ChunkDesc free_desc{static_cast<std::uint8_t>(ChunkState::Free), 0, 0, 0};
    redo.stage(desc_off(c), desc_word(free_desc));
  }
  bump(lanes_[lane].free_ops, 1);
  out.data_off = data_off;
  out.chunk = c;
  out.lane = lane;
  out.staged = true;
  out.owner = std::move(lk);
  return out;
}

void Heap::finish_free(PreparedFree& f) {
  const std::uint32_t c = f.chunk;
  const ChunkDesc& d = *chunk_desc(c);
  const std::uint64_t total = f.usable + sizeof(AllocHeader);
  std::uint64_t released = 0;  // block/span bytes
  std::uint32_t span = 0;      // chunks back to Free
  if (static_cast<ChunkState>(d.state) == ChunkState::Run) {
    released = kSizeClasses[d.class_idx];
    if (chunk_slot(c).home == 0) hint_partial(d.class_idx, c);
  } else {
    // The span's head descriptor became Free; covered chunks follow suit
    // transiently.  The span follows from the allocation size.
    span = static_cast<std::uint32_t>((total + kChunkSize - 1) / kChunkSize);
    released = std::uint64_t{span} * kChunkSize;
    unclaim_span(c, span);
  }
  LaneShard& l = lanes_[f.lane];
  bump(l.objects, ~std::uint64_t{0});
  bump(l.allocated_bytes, 0 - released);
  bump(l.live_bytes, 0 - total);
  bump(l.reserved_chunks, 0 - std::uint64_t{span});
  if (f.owner.owns_lock()) f.owner.unlock();
}

bool Heap::is_live_synced(std::uint64_t data_off) const {
  if (data_off < sizeof(AllocHeader)) return false;
  const std::uint32_t c = chunk_of(data_off - sizeof(AllocHeader));
  if (c == kNoChunk) return false;
  const std::lock_guard<std::mutex> lock(chunk_mutex(c));
  return is_live(data_off);
}

bool Heap::is_live(std::uint64_t data_off) const {
  if (data_off < sizeof(AllocHeader)) return false;
  const std::uint64_t block_off = data_off - sizeof(AllocHeader);
  const std::uint32_t c = chunk_of(block_off);
  if (c == kNoChunk) return false;
  const ChunkDesc& d = *chunk_desc(c);
  const std::uint64_t chunk_start = chunk_off(c);
  switch (static_cast<ChunkState>(d.state)) {
    case ChunkState::Run: {
      if (d.class_idx >= kSizeClasses.size()) return false;
      const std::uint32_t block = kSizeClasses[d.class_idx];
      if (block_off < chunk_start + kRunHeaderSize) return false;
      const std::uint64_t rel = block_off - chunk_start - kRunHeaderSize;
      if (rel % block != 0) return false;
      const auto idx = static_cast<std::uint32_t>(rel / block);
      const RunHeader* rh = run_header(c);
      if (idx >= rh->block_count) return false;
      if ((rh->bitmap[idx / 64] & (1ull << (idx % 64))) == 0) return false;
      break;
    }
    case ChunkState::HugeHead: {
      if (block_off != chunk_start) return false;
      break;
    }
    default:
      return false;
  }
  const auto* hdr =
      reinterpret_cast<const AllocHeader*>(region_->base() + block_off);
  return (hdr->flags & kAllocLive) != 0;
}

const AllocHeader& Heap::header_of(std::uint64_t data_off) const {
  if (!is_live(data_off)) throw AllocError(ErrKind::InvalidFree, "not a live object");
  return *reinterpret_cast<const AllocHeader*>(region_->base() + data_off -
                                               sizeof(AllocHeader));
}

std::uint32_t Heap::type_of_synced(std::uint64_t data_off) const {
  if (data_off < sizeof(AllocHeader))
    throw AllocError(ErrKind::BadOid, "offset outside the heap");
  const std::uint32_t c = chunk_of(data_off - sizeof(AllocHeader));
  if (c == kNoChunk)
    throw AllocError(ErrKind::BadOid, "offset outside the heap");
  const std::lock_guard<std::mutex> lock(chunk_mutex(c));
  return header_of(data_off).type_num;
}

std::uint64_t Heap::first_object(std::uint32_t type_num) const {
  return next_object(0, type_num);
}

std::uint64_t Heap::next_object(std::uint64_t data_off,
                                std::uint32_t type_num) const {
  const std::uint32_t total = chunk_count_.load(std::memory_order_acquire);
  std::uint32_t c = 0;
  while (c < total) {
    const ChunkDesc& d = *chunk_desc(c);
    const std::uint64_t chunk_start = chunk_off(c);
    switch (static_cast<ChunkState>(d.state)) {
      case ChunkState::Run: {
        const RunHeader* rh = run_header(c);
        const std::uint32_t block = kSizeClasses[d.class_idx];
        for (std::uint32_t i = 0; i < rh->block_count; ++i) {
          if ((rh->bitmap[i / 64] & (1ull << (i % 64))) == 0) continue;
          const std::uint64_t obj = chunk_start + kRunHeaderSize +
                                    std::uint64_t{i} * block +
                                    sizeof(AllocHeader);
          if (obj <= data_off) continue;
          const auto* hdr = reinterpret_cast<const AllocHeader*>(
              region_->base() + obj - sizeof(AllocHeader));
          if ((hdr->flags & kAllocLive) == 0) continue;
          if (type_num != ~0u && hdr->type_num != type_num) continue;
          return obj;
        }
        ++c;
        break;
      }
      case ChunkState::HugeHead: {
        const std::uint64_t obj = chunk_start + sizeof(AllocHeader);
        if (obj > data_off) {
          const auto* hdr = reinterpret_cast<const AllocHeader*>(
              region_->base() + chunk_start);
          if ((hdr->flags & kAllocLive) != 0 &&
              (type_num == ~0u || hdr->type_num == type_num))
            return obj;
        }
        c += d.span;
        break;
      }
      default:
        ++c;
        break;
    }
  }
  return 0;
}

HeapStats Heap::stats() const {
  HeapStats s;
  const std::uint32_t total = chunk_count_.load(std::memory_order_acquire);
  s.chunk_count = total;
  s.span_count = span_count_.load(std::memory_order_acquire);
  s.total_bytes = std::uint64_t{total} * kChunkSize;
  Occupancy o = baseline_;
  for (const LaneShard& l : lanes_) {
    o.objects += l.objects.load(std::memory_order_relaxed);
    o.allocated_bytes += l.allocated_bytes.load(std::memory_order_relaxed);
    o.live_bytes += l.live_bytes.load(std::memory_order_relaxed);
    o.reserved_chunks += l.reserved_chunks.load(std::memory_order_relaxed);
    s.alloc_ops += l.alloc_ops.load(std::memory_order_relaxed);
    s.free_ops += l.free_ops.load(std::memory_order_relaxed);
  }
  o.reserved_chunks -= reclaimed_chunks_.load(std::memory_order_relaxed);
  // Exact when no operation is in flight.  A sum read while lanes move can
  // see one lane's free without the other lane's allocation it undoes (a
  // wrapped "negative"), or a chunk's reuse before its reclaim: clamp so
  // every field stays in range.
  const auto settled = [](std::uint64_t v) noexcept {
    return static_cast<std::int64_t>(v) < 0 ? 0 : v;
  };
  s.object_count = settled(o.objects);
  s.allocated_bytes = settled(o.allocated_bytes);
  s.live_bytes = settled(o.live_bytes);
  const std::uint64_t reserved =
      std::min<std::uint64_t>(settled(o.reserved_chunks), total);
  s.free_chunks = total - reserved;
  s.reserved_bytes = reserved * kChunkSize;
  s.fragmentation =
      s.reserved_bytes == 0
          ? 0.0
          : std::max(0.0, 1.0 - static_cast<double>(s.live_bytes) /
                                    static_cast<double>(s.reserved_bytes));
  s.run_lock_skips = run_lock_skips_.load(std::memory_order_relaxed);
  s.run_lock_waits = run_lock_waits_.load(std::memory_order_relaxed);
  return s;
}

std::uint32_t Heap::chunk_index_of(std::uint64_t data_off) const noexcept {
  if (data_off < sizeof(AllocHeader)) return kNoChunk;
  return chunk_of(data_off - sizeof(AllocHeader));
}

std::uint64_t Heap::chunk_fill_of(std::uint64_t data_off) const {
  const std::uint32_t c = chunk_index_of(data_off);
  if (c == kNoChunk) return 0;
  const std::lock_guard<std::mutex> lock(chunk_mutex(c));
  const ChunkDesc& d = *chunk_desc(c);
  switch (static_cast<ChunkState>(d.state)) {
    case ChunkState::Run: {
      const RunHeader* rh = run_header(c);
      std::uint32_t used = 0;
      for (const std::uint64_t w : rh->bitmap)
        used += static_cast<std::uint32_t>(std::popcount(w));
      return std::uint64_t{used} * kSizeClasses[d.class_idx];
    }
    case ChunkState::HugeHead:
      return std::uint64_t{d.span} * kChunkSize;
    default:
      return 0;
  }
}

std::uint64_t Heap::max_alloc_bytes() const noexcept {
  const std::uint32_t n = span_count_.load(std::memory_order_acquire);
  std::uint32_t widest = 0;
  for (std::uint32_t i = 0; i < n; ++i)
    widest = std::max(widest, spans_[i].chunk_count);
  return std::uint64_t{widest} * kChunkSize - sizeof(AllocHeader);
}

}  // namespace cxlpmem::pmemkit
