#include "pmemkit/pmemsan.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "pmemkit/errors.hpp"
#include "pmemkit/splitmix.hpp"

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define CXLPMEM_HAVE_EXECINFO 1
#endif

#if defined(__SANITIZE_THREAD__)
extern "C" void AnnotateIgnoreReadsBegin(const char* file, int line);
extern "C" void AnnotateIgnoreReadsEnd(const char* file, int line);
#endif

namespace cxlpmem::pmemkit {

namespace {

/// Identifies the calling thread to the per-thread fence model.  A counter
/// rather than std::thread::id, so a new thread never inherits the
/// unfenced snapshots of an exited one that reused its id.
std::uint64_t thread_token() noexcept {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t token =
      next.fetch_add(1, std::memory_order_relaxed);
  return token;
}

/// Scopes the model's reads of the live mapping.  They stand for a cache
/// write-back, which reads a line at one instant while other threads may
/// be storing to its other bytes — modelled hardware, not program logic —
/// so thread-sanitizer builds ignore them instead of reporting every
/// shared-line flush as a race.
struct [[maybe_unused]] LiveReads {
#if defined(__SANITIZE_THREAD__)
  LiveReads() { AnnotateIgnoreReadsBegin(__FILE__, __LINE__); }
  ~LiveReads() { AnnotateIgnoreReadsEnd(__FILE__, __LINE__); }
  LiveReads(const LiveReads&) = delete;
  LiveReads& operator=(const LiveReads&) = delete;
#endif
};

/// Per-thread, per-sanitizer bindings.  Keyed by PmemSan pointer because a
/// thread may hold transactions on several pmemcheck'd pools at once
/// (mirrors pool.cpp's t_current_tx).
struct LastStore {
  std::uint64_t off = 0;
  std::uint64_t len = 0;
};
thread_local std::vector<std::pair<const PmemSan*, std::uint32_t>> t_tx_lane;
thread_local std::vector<std::pair<const PmemSan*, LastStore>> t_last_store;

[[nodiscard]] const std::uint32_t* tx_lane_of(const PmemSan* san) noexcept {
  for (const auto& [s, lane] : t_tx_lane)
    if (s == san) return &lane;
  return nullptr;
}

std::string capture_backtrace() {
#ifdef CXLPMEM_HAVE_EXECINFO
  void* frames[14];
  const int n = backtrace(frames, 14);
  char** syms = backtrace_symbols(frames, n);
  if (syms == nullptr) return {};
  std::string out;
  // Skip this helper and the detection frame; keep the callers that show
  // which pmemkit path (and which caller of it) issued the bad event.
  for (int i = 2; i < n; ++i) {
    out += "    ";
    out += syms[i];
    out += '\n';
  }
  std::free(syms);  // pmemlint: allow(backtrace_symbols contract)
  return out;
#else
  return "    <no backtrace: execinfo.h unavailable>\n";
#endif
}

std::shared_ptr<ViolationSink> sink_from_env() {
  const char* v = std::getenv("CXLPMEM_PMEMCHECK_SINK");
  if (v != nullptr) {
    if (std::strcmp(v, "log") == 0) return std::make_shared<LogSink>();
    if (std::strcmp(v, "count") == 0) return std::make_shared<CountSink>();
  }
  return std::make_shared<ThrowSink>();
}

}  // namespace

std::string SanViolation::format() const {
  std::string out = "pmemsan[" + pool + "] R" +
                    std::to_string(static_cast<std::uint32_t>(rule)) + " " +
                    to_string(rule) + " off=" + std::to_string(off) +
                    " len=" + std::to_string(len) + ": " + message;
  return out;
}

void ThrowSink::report(const SanViolation& v) {
  throw PoolError(ErrKind::PersistencyViolation,
                  v.format() + "\n" + v.backtrace);
}

void LogSink::report(const SanViolation& v) {
  std::fprintf(stderr, "%s\n%s", v.format().c_str(), v.backtrace.c_str());
}

void CountSink::report(const SanViolation& v) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_[static_cast<std::size_t>(v.rule)];
  ++total_;
  if (kept_.size() < kKeep) kept_.push_back(v);
}

std::uint64_t CountSink::total() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::uint64_t CountSink::count(SanRule r) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<std::size_t>(r)];
}

std::vector<SanViolation> CountSink::violations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return kept_;
}

PmemSan::PmemSan(const std::byte* live, std::size_t size,
                 std::string pool_name)
    : live_(live),
      durable_(live, live + size),
      pool_name_(std::move(pool_name)),
      sink_(sink_from_env()) {}

PmemSan::~PmemSan() {
  // Best effort: drop this thread's bindings so a dangling pointer can
  // never be revived by a later sanitizer at the same address.
  std::erase_if(t_tx_lane, [this](const auto& e) { return e.first == this; });
  std::erase_if(t_last_store,
                [this](const auto& e) { return e.first == this; });
}

void PmemSan::set_pool_name(std::string name) {
  const std::lock_guard<std::mutex> lock(mu_);
  pool_name_ = std::move(name);
}

void PmemSan::set_sink(std::shared_ptr<ViolationSink> sink) {
  const std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

std::uint64_t PmemSan::line_bytes(std::uint64_t l) const noexcept {
  const std::uint64_t off = l * kLine;
  return off >= durable_.size()
             ? 0
             : std::min<std::uint64_t>(kLine, durable_.size() - off);
}

bool PmemSan::line_matches_durable(std::uint64_t l) const {
  const LiveReads hw;
  const std::uint64_t off = l * kLine;
  return std::memcmp(live_ + off, durable_.data() + off, line_bytes(l)) == 0;
}

void PmemSan::snapshot(PendingSet& mine, std::uint64_t l, LineState& s) {
  const LiveReads hw;
  Snapshot& snap = mine.emplace_back();
  snap.line = l;
  snap.seq = ++flush_seq_;
  std::memcpy(snap.bytes.data(), live_ + l * kLine, line_bytes(l));
  ++s.pending;
  s.stored = false;
}

void PmemSan::accept(std::uint64_t off, std::uint64_t end) {
  end = std::min<std::uint64_t>(end, durable_.size());
  if (off >= end) return;
  const LiveReads hw;
  std::memcpy(durable_.data() + off, live_ + off, end - off);
}

bool PmemSan::covered(const TxCtx& ctx, std::uint64_t off,
                      std::uint64_t end) const {
  auto it = ctx.coverage.upper_bound(off);
  if (it == ctx.coverage.begin()) return false;
  --it;
  return it->first <= off && it->second >= end;
}

SanViolation PmemSan::make_violation(SanRule rule, std::uint64_t off,
                                     std::uint64_t len,
                                     std::string message) const {
  SanViolation v;
  v.rule = rule;
  v.off = off;
  v.len = len;
  v.pool = pool_name_;
  v.message = std::move(message);
  v.backtrace = capture_backtrace();
  return v;
}

void PmemSan::deliver(std::vector<SanViolation> found) {
  if (found.empty()) return;
  std::shared_ptr<ViolationSink> sink;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    sink = sink_;
  }
  for (SanViolation& v : found) {
    total_.fetch_add(1, std::memory_order_relaxed);
    rule_counts_[static_cast<std::size_t>(v.rule)].fetch_add(
        1, std::memory_order_relaxed);
    if (sink) sink->report(v);  // may throw (ThrowSink) — counters are done
  }
}

void PmemSan::on_store(std::uint64_t off, std::uint64_t len,
                       StoreOrigin origin) {
  if (len == 0) return;
  std::vector<SanViolation> found;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (origin == StoreOrigin::User && off >= meta_bound_) {
      // R1: a user-data store inside a transaction must be covered by an
      // add_range / add_fresh_range of that same transaction.
      if (const std::uint32_t* lane = tx_lane_of(this); lane != nullptr) {
        const TxCtx& ctx = tx_[*lane];
        if (ctx.active && !covered(ctx, off, off + len))
          found.push_back(make_violation(
              SanRule::UnloggedStore, off, len,
              "store inside a transaction to bytes neither undo-logged "
              "(add_range) nor fresh (add_fresh_range); an abort or crash "
              "cannot restore them"));
      }
    }
    const std::uint64_t first = off / kLine;
    const std::uint64_t last = (off + len - 1) / kLine;
    for (std::uint64_t l = first; l <= last; ++l) lines_[l].stored = true;
  }
  // R6 bookkeeping: remember the store so a narrower follow-up persist is
  // detectable.
  for (auto& [s, st] : t_last_store)
    if (s == this) {
      st = LastStore{off, len};
      deliver(std::move(found));
      return;
    }
  t_last_store.emplace_back(this, LastStore{off, len});
  deliver(std::move(found));
}

void PmemSan::on_flush(std::uint64_t off, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t me = thread_token();
  std::vector<SanViolation> found;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    PendingSet& mine = pending_[me];
    const std::uint64_t first = off / kLine;
    const std::uint64_t last = (off + len - 1) / kLine;
    for (std::uint64_t l = first; l <= last; ++l) {
      const auto [it, untracked] = lines_.try_emplace(l);
      LineState& s = it->second;
      if (untracked) {
        // Never annotated.  Content decides: a line that differs from the
        // durable image was raw-stored through a direct() pointer — accept
        // it as an implicit store; a line that matches carries nothing for
        // this flush to publish.
        if (line_matches_durable(l))
          found.push_back(make_violation(
              SanRule::FlushNeverStored, l * kLine, kLine,
              "flush of a line no store ever touched (over-wide flush "
              "range?)"));
      } else if (!s.stored && s.pending == 0 && line_matches_durable(l)) {
        // Durable, and no store — annotated or raw — re-dirtied it.  Waste
        // only if this thread's own fence made it durable; a line another
        // thread's fence wrote back (bytes this thread stored on a shared
        // line) is a late flush, not a redundant one.
        if (s.durable_by == me) {
          found.push_back(make_violation(
              SanRule::RedundantFlush, l * kLine, kLine,
              "flush of an already-durable line no store re-dirtied"));
          continue;
        }
      }
      snapshot(mine, l, s);
    }
  }
  deliver(std::move(found));
}

void PmemSan::on_fence() {
  const std::uint64_t me = thread_token();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto mine = pending_.find(me);
  if (mine == pending_.end()) return;
  for (const Snapshot& snap : mine->second) {
    const std::uint64_t l = snap.line;
    LineState& s = lines_[l];
    --s.pending;
    if (snap.seq < s.published) continue;  // a newer flush already landed
    s.published = snap.seq;
    s.durable_by = me;
    std::memcpy(durable_.data() + l * kLine, snap.bytes.data(),
                line_bytes(l));
  }
  mine->second.clear();
}

void PmemSan::on_persist(std::uint64_t off, std::uint64_t len) {
  for (const auto& [s, st] : t_last_store) {
    if (s != this) continue;
    if (st.off == off && len < st.len) {
      // Benign inside a transaction that covers the stored range: commit
      // flushes every covered line, so the narrow persist leaves no tail.
      if (const std::uint32_t* lane = tx_lane_of(this); lane != nullptr) {
        const std::lock_guard<std::mutex> lock(mu_);
        const TxCtx& ctx = tx_[*lane];
        if (ctx.active && covered(ctx, st.off, st.off + st.len)) return;
      }
      std::vector<SanViolation> found;
      found.push_back(make_violation(
          SanRule::PersistTooSmall, off, len,
          "persist of " + std::to_string(len) + " bytes after a store of " +
              std::to_string(st.len) +
              " bytes at the same offset leaves a tail unflushed"));
      deliver(std::move(found));
    }
    return;
  }
}

void PmemSan::remap(const std::byte* live, std::size_t size) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t old = durable_.size();
  live_ = live;
  durable_.resize(size);
  if (size > old) {
    const LiveReads hw;
    // Grown bytes are durable the moment ftruncate returns (kernel zero
    // page -> file, no cache in between).
    std::memcpy(durable_.data() + old, live_ + old, size - old);
  } else if (size < old) {
    const std::uint64_t lines = (size + kLine - 1) / kLine;
    std::erase_if(lines_, [&](const auto& e) { return e.first >= lines; });
    for (auto& [thread, set] : pending_)
      std::erase_if(set, [&](const Snapshot& e) { return e.line >= lines; });
  }
}

void PmemSan::discard(std::uint64_t off, std::uint64_t len) {
  const std::lock_guard<std::mutex> lock(mu_);
  accept(off, off + len);
}

void PmemSan::tx_begin(std::uint32_t lane) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    tx_[lane].active = true;
    tx_[lane].coverage.clear();
  }
  t_tx_lane.emplace_back(this, lane);
}

void PmemSan::tx_cover(std::uint32_t lane, std::uint64_t off,
                       std::uint64_t len) {
  if (len == 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  TxCtx& ctx = tx_[lane];
  std::uint64_t end = off + len;
  auto it = ctx.coverage.upper_bound(off);
  if (it != ctx.coverage.begin() && std::prev(it)->second >= off) --it;
  while (it != ctx.coverage.end() && it->first <= end) {
    off = std::min(off, it->first);
    end = std::max(end, it->second);
    it = ctx.coverage.erase(it);
  }
  ctx.coverage.emplace(off, end);
}

void PmemSan::tx_commit_publish(std::uint32_t lane) {
  std::vector<SanViolation> found;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const TxCtx& ctx = tx_[lane];
    if (!ctx.active) return;
    const LiveReads hw;
    for (const auto& [off, end] : ctx.coverage) {
      // Byte-precise, not line-state: a neighbour transaction's store
      // annotation re-marks a shared line Stored even after this lane
      // flushed and fenced its own bytes (e.g. adjacent 8-byte slots on
      // one line).  What R2 actually requires is that the bytes THIS
      // transaction covers are durable when its commit record publishes.
      const std::uint64_t hi = std::min<std::uint64_t>(end, durable_.size());
      if (hi <= off ||
          std::memcmp(live_ + off, durable_.data() + off, hi - off) == 0)
        continue;
      std::uint64_t b = off;
      while (live_[b] == durable_[b]) ++b;
      const std::uint64_t l = b / kLine;
      const auto mine = pending_.find(thread_token());
      const bool pend =
          mine != pending_.end() &&
          std::any_of(mine->second.begin(), mine->second.end(),
                      [l](const Snapshot& snap) { return snap.line == l; });
      found.push_back(make_violation(
          SanRule::UnflushedCommit, l * kLine, kLine,
          std::string("commit record published while a covered line is ") +
              (pend ? "flushed but not fenced" : "not flushed")));
      // One report per covered range keeps the output readable.
    }
  }
  deliver(std::move(found));
}

void PmemSan::tx_end(std::uint32_t lane) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    tx_[lane].active = false;
    tx_[lane].coverage.clear();
  }
  std::erase_if(t_tx_lane, [&](const auto& e) {
    return e.first == this && e.second == lane;
  });
}

void PmemSan::tx_abort(std::uint32_t lane) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    TxCtx& ctx = tx_[lane];
    for (const auto& [off, end] : ctx.coverage) {
      const std::uint64_t first = off / kLine;
      const std::uint64_t last = (end - 1) / kLine;
      for (std::uint64_t l = first; l <= last; ++l) {
        const auto it = lines_.find(l);
        const bool tracked = it != lines_.end() &&
                             (it->second.stored || it->second.pending > 0);
        if (!tracked && line_matches_durable(l)) continue;
        // Undo-snapshotted ranges were restored and persisted by the
        // rollback; what remains non-durable here is fresh-allocation
        // content the AllocAction rollback just freed.  Dead bytes owe
        // nobody a flush.  No thread's fence made the line durable, so
        // none of them re-flushing it is R3.
        accept(l * kLine, (l + 1) * kLine);
        LineState& s = lines_[l];
        s.stored = false;
        s.durable_by = 0;
      }
    }
    ctx.active = false;
    ctx.coverage.clear();
  }
  std::erase_if(t_tx_lane, [&](const auto& e) {
    return e.first == this && e.second == lane;
  });
}

std::size_t PmemSan::scan_not_durable(std::size_t max_reports,
                                      const char* when) {
  std::vector<SanViolation> found;
  std::size_t dirty = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t line_count = (durable_.size() + kLine - 1) / kLine;
    for (std::uint64_t l = 0; l < line_count; ++l) {
      const auto it = lines_.find(l);
      const char* how = nullptr;
      if (it != lines_.end() && it->second.stored)
        how = "stored but never flushed";
      else if (it != lines_.end() && it->second.pending > 0)
        how = "flushed but never fenced";
      else if (!line_matches_durable(l))
        how = "raw-stored (no annotation) and never flushed";
      if (how == nullptr) continue;
      ++dirty;
      if (found.size() < max_reports)
        found.push_back(make_violation(
            SanRule::DirtyAtClose, l * kLine, kLine,
            std::string(how) + " — not durable at " + when));
    }
  }
  deliver(std::move(found));
  return dirty;
}

std::vector<std::byte> PmemSan::crash_image(CrashPolicy policy,
                                            std::uint64_t seed) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const LiveReads hw;
  if (policy == CrashPolicy::EadrEverythingSurvives) {
    // Caches are inside the persistence domain: media == everything stored.
    return std::vector<std::byte>(live_, live_ + durable_.size());
  }
  std::vector<std::byte> img = durable_;
  if (policy == CrashPolicy::RandomEvict) {
    // Stored lines and flushed-but-unfenced lines alike may or may not
    // have reached media; toss a deterministic coin per line.
    for (const auto& [l, s] : lines_) {
      if (!s.stored && s.pending == 0) continue;
      if ((splitmix64(seed ^ (0xabcdull + l)) & 1) == 0) continue;
      std::memcpy(img.data() + l * kLine, live_ + l * kLine, line_bytes(l));
    }
  }
  return img;
}

std::size_t PmemSan::dirty_lines() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(std::count_if(
      lines_.begin(), lines_.end(),
      [](const auto& e) { return e.second.stored || e.second.pending > 0; }));
}

std::size_t PmemSan::pending_lines() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(std::count_if(
      lines_.begin(), lines_.end(),
      [](const auto& e) { return e.second.pending > 0; }));
}

std::size_t PmemSan::verify(std::size_t max_reports) {
  return scan_not_durable(max_reports, "verify()");
}

std::size_t PmemSan::close_check(std::size_t max_reports) {
  return scan_not_durable(max_reports, "pool close");
}

}  // namespace cxlpmem::pmemkit
