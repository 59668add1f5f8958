// perfbench/src/pool_tx.cpp — pool_tx_mt: transactions on one shared
// api::Pool from min(4, nproc) threads, no network.
//
// Each thread owns 4096 root slots (prefilled in set-up).  One transaction
// = make_sized of a 64..1024 B checksummed payload, a p<> assign of the new
// object into a random slot of the thread's own, and destroy of the object
// it replaced.  Thread t's op stream depends only on (seed, t).  cxlpmemd
// gives every shard its own pool and one thread, so this is the only
// workload in which threads contend for the heap's partial runs, span
// mutex and lane table.
//
// Checks: the live object count equals the number of non-null slots, and
// every payload matches its stored checksum.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/cxlpmem.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cxlpmem;

constexpr int kMaxThreads = 4;
constexpr std::uint64_t kSlotsPerThread = 4096;
constexpr std::uint64_t kPoolBytes = 256ull << 20;
constexpr std::uint64_t kMinPayload = 64;
constexpr std::uint64_t kMaxPayload = 1024;
constexpr std::uint64_t kPrefillPerTx = 64;
/// The traced run traces one transaction in this many (at most
/// kMaxTracedPerThread per thread, which bounds the span file); the rest
/// stay untraced and give the baseline for the tracing overhead.
constexpr std::uint64_t kTraceStride = 64;
constexpr std::size_t kMaxTracedPerThread = 5000;

struct Obj {
  api::p<std::uint64_t> sum;  ///< fingerprint of the payload
  api::p<std::uint32_t> len;  ///< payload bytes, inline after the struct
  api::p<std::uint32_t> slot;
};

struct Slots {
  api::p<api::ptr<Obj>> slot[kSlotsPerThread];
};

struct Root {
  api::p<api::ptr<Slots>> per_thread[kMaxThreads];
};

/// One transaction's inputs, drawn from the thread's seeded stream.
struct TxOp {
  std::uint32_t slot;
  std::uint32_t len;
  std::uint64_t fill;
};

TxOp next_op(Rng& rng) {
  return TxOp{static_cast<std::uint32_t>(rng.below(kSlotsPerThread)),
              static_cast<std::uint32_t>(
                  kMinPayload + rng.below(kMaxPayload - kMinPayload + 1)),
              rng.next()};
}

char* payload(Obj* o) { return reinterpret_cast<char*>(o + 1); }

/// Allocates and fills one object; must run inside a transaction.
api::ptr<Obj> make_obj(api::Pool& pool, const TxOp& op, SpanLog* log,
                       std::int32_t parent, std::uint64_t unit) {
  api::ptr<Obj> o;
  {
    const ScopedSpan s(log, "heap.make_sized", parent, unit);
    o = pool.make_sized<Obj>(sizeof(Obj) + op.len);
  }
  const ScopedSpan s(log, "bench.fill", parent, unit);
  Obj* d = o.get();
  char* pl = payload(d);
  Rng bytes(op.fill, op.len);
  for (std::uint32_t i = 0; i < op.len; i += 8) {
    const std::uint64_t w = bytes.next();
    std::memcpy(pl + i, &w, std::min<std::uint32_t>(8, op.len - i));
  }
  d->len = op.len;
  d->slot = op.slot;
  d->sum = fingerprint(pl, op.len);
  return o;
}

struct ThreadResult {
  Samples lat_us;         ///< untraced transactions
  Samples lat_traced_us;  ///< traced transactions (traced run)
  Samples fences;
  std::uint64_t timed_tx = 0;  ///< every timed transaction
  std::atomic<std::uint64_t> done{0};  ///< timed_tx, published for sampling
  SpanLog log;
  Tally tally;
};

struct PoolState {
  std::unique_ptr<api::Runtime> rt;
  std::unique_ptr<api::Pool> pool;
  fs::path dir;

  void start(const fs::path& d, std::uint64_t seed, int threads) {
    dir = d;
    auto built = api::RuntimeBuilder::setup_one().base_dir(dir).build();
    require(built, "runtime");
    rt = std::make_unique<api::Runtime>(std::move(built).value());
    api::PoolSpec ps;
    ps.file = "pool_tx.pool";
    ps.size = kPoolBytes;
    auto p = rt->create_pool("pmem2", "perfbench-pool-tx", ps);
    require(p, "pool");
    pool = std::make_unique<api::Pool>(std::move(p).value());
    auto root = pool->root<Root>();
    require(root, "root");
    for (int t = 0; t < threads; ++t) {
      Rng rng(seed, 2000 + static_cast<std::uint64_t>(t));
      api::ptr<Slots> slots;
      const api::Result<void> made = pool->run_tx([&] {
        slots = pool->make<Slots>();
        root.value()->per_thread[t] = slots;
      });
      require(made, "prefill");
      for (std::uint64_t s = 0; s < kSlotsPerThread; s += kPrefillPerTx) {
        const api::Result<void> r = pool->run_tx([&] {
          for (std::uint64_t i = s; i < s + kPrefillPerTx; ++i) {
            TxOp op = next_op(rng);
            op.slot = static_cast<std::uint32_t>(i);
            slots->slot[i] = make_obj(*pool, op, nullptr, -1, 0);
          }
        });
        require(r, "prefill");
      }
    }
  }

  void teardown() {
    pool.reset();
    rt.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

void tx_loop(api::Pool& pool, Slots* slots, std::uint64_t seed, int t,
             bool trace, Clock::time_point warm_end,
             Clock::time_point deadline, ThreadResult& out) {
  Rng rng(seed, 1000 + static_cast<std::uint64_t>(t));
  for (std::uint64_t id = 0;; ++id) {
    const Clock::time_point t0 = Clock::now();
    if (t0 >= deadline) break;
    const bool timed = t0 >= warm_end;
    SpanLog* log = (trace && timed && id % kTraceStride == 1 &&
                    out.lat_traced_us.size() < kMaxTracedPerThread)
                       ? &out.log
                       : nullptr;
    const TxOp op = next_op(rng);
    const std::uint64_t f0 = pmemkit::PersistentRegion::thread_drain_count();
    api::Result<void> r;
    {
      const ScopedSpan tx(log, "tx.run_tx", -1, id);
      r = pool.run_tx([&] {
        const api::ptr<Obj> o = make_obj(pool, op, log, tx.index(), id);
        const api::ptr<Obj> old = slots->slot[op.slot];
        {
          const ScopedSpan s(log, "tx.assign", tx.index(), id);
          slots->slot[op.slot] = o;
        }
        const ScopedSpan s(log, "heap.destroy", tx.index(), id);
        pool.destroy(old);
      });
    }
    const Clock::time_point t1 = Clock::now();
    out.tally.attempted += 1;
    if (!r.ok()) {
      out.tally.failed += 1;
      continue;
    }
    if (!timed) continue;
    out.timed_tx += 1;
    out.done.store(out.timed_tx, std::memory_order_relaxed);
    const double us = us_between(t0, t1);
    if (log != nullptr) {
      out.lat_traced_us.add(us);
      out.fences.add(static_cast<double>(
          pmemkit::PersistentRegion::thread_drain_count() - f0));
    } else {
      out.lat_us.add(us);
    }
  }
}

/// Live objects must equal non-null slots, and every payload must verify.
void verify(api::Pool& pool, Root* root, int threads, Tally& tally) {
  std::uint64_t non_null = 0;
  for (int t = 0; t < threads; ++t) {
    Slots* slots = api::ptr<Slots>(root->per_thread[t]).get();
    for (std::uint64_t s = 0; s < kSlotsPerThread; ++s) {
      tally.attempted += 1;
      const api::ptr<Obj> o = slots->slot[s];
      if (o.is_null()) continue;
      ++non_null;
      Obj* d = o.get();
      if (d->len < kMinPayload || d->len > kMaxPayload || d->slot != s ||
          fingerprint(payload(d), d->len) != d->sum)
        tally.failed += 1;
    }
  }
  tally.attempted += 1;
  if (pool.count<Obj>() != non_null ||
      non_null != static_cast<std::uint64_t>(threads) * kSlotsPerThread)
    tally.failed += 1;
}

void run_pool_tx(const Args& args, int threads, Report& report, Tally& tally) {
  PoolState st;
  const SetupTime setup = median_setup_seconds(
      [&](int r) {
        st.start(args.dir / ("setup-" + std::to_string(r)), args.seed, threads);
      },
      [&] { st.teardown(); });
  api::Pool& pool = *st.pool;
  Root* root = pool.root<Root>().value().get();

  const Clock::time_point t0 = Clock::now();
  const auto warm_end = t0 + std::chrono::milliseconds(kWarmupMs);
  const auto deadline = after(warm_end, args.seconds);
  std::vector<ThreadResult> res(static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    Slots* slots = api::ptr<Slots>(root->per_thread[t]).get();
    workers.emplace_back([&, slots, t] {
      tx_loop(pool, slots, args.seed, t, args.trace, warm_end, deadline,
              res[static_cast<std::size_t>(t)]);
    });
  }
  std::this_thread::sleep_until(warm_end);
  const pmemkit::PoolStats s0 = pool.stats();
  const double rss = peak_rss_mb();
  const double rss0 = current_rss_mb();
  CpuPerOp cpu;
  sample_cpu(cpu, warm_end, args.seconds, [&] {
    std::uint64_t n = 0;
    for (const ThreadResult& r : res)
      n += r.done.load(std::memory_order_relaxed);
    return n;
  });
  for (std::thread& w : workers) w.join();
  const double rss1 = current_rss_mb();
  const pmemkit::PoolStats s1 = pool.stats();

  Samples lat, lat_traced, fences;
  std::uint64_t ops = 0;
  for (ThreadResult& r : res) {
    ops += r.timed_tx;
    lat.append(r.lat_us);
    lat_traced.append(r.lat_traced_us);
    fences.append(r.fences);
    tally.attempted += r.tally.attempted;
    tally.failed += r.tally.failed;
  }
  verify(pool, root, threads, tally);

  report.set("cpu_us_per_op", cpu.lower_quartile_us(), cpu.windows());
  const auto reps = static_cast<std::uint64_t>(setup.reps);
  report.set("setup_s", setup.cpu_s, reps);
  report.set("wall.setup_s", setup.wall_s, reps);
  report.set("peak_rss_mb", rss, 1);
  report.set("wall.ops_per_s", static_cast<double>(ops) / args.seconds, ops);
  report.set("wall.p50_us", lat.pct(0.50), lat.size());
  report.set("wall.tail_us", lat.pct(0.99), lat.size());
  report.set("mem.rss_end_mb", rss1, 1);
  report.set("mem.rss_growth_mb", rss1 - rss0, 1);
  if (args.trace) {
    SpanSummary spans;
    for (const ThreadResult& r : res) spans.add_log(r.log);
    spans.write(args.trace_out);
    const SpanStats& tx = spans.at("tx.run_tx");
    report.set("tx.run_tx_p50_us", tx.dur_us.pct(0.5), tx.dur_us.size());
    report.set("tx.run_tx_p99_us", tx.dur_us.pct(0.99), tx.dur_us.size());
    report.set("tx.commit_us_per_tx", tx.self_us.mean(), tx.self_us.size());
    const SpanStats& alloc = spans.at("heap.make_sized");
    report.set("tx.alloc_us_per_tx", alloc.dur_us.mean(), alloc.dur_us.size());
    report.set("pmemkit.fences_per_tx", fences.mean(), fences.size());
    const pmemkit::HeapStats& h0 = s0.heap;
    const pmemkit::HeapStats& h1 = s1.heap;
    const std::uint64_t allocs = h1.alloc_ops - h0.alloc_ops;
    report.set("heap.alloc_ops", static_cast<double>(allocs), 1);
    report.set("heap.run_lock_skips_per_alloc",
               ratio(static_cast<double>(h1.run_lock_skips - h0.run_lock_skips),
                     static_cast<double>(allocs)),
               allocs);
    report.set("heap.run_lock_waits",
               static_cast<double>(h1.run_lock_waits - h0.run_lock_waits), 1);
    report.set("pool.lane_waits",
               static_cast<double>(s1.lane_waits - s0.lane_waits), 1);
    report.set("heap.fragmentation", h1.fragmentation, 1);
    report.set("heap.reserved_per_live",
               ratio(static_cast<double>(h1.reserved_bytes),
                     static_cast<double>(h1.live_bytes)),
               1);
    const double u50 = lat.pct(0.5);
    report.set("trace.overhead_pct",
               ratio(lat_traced.pct(0.5) - u50, u50) * 100.0,
               lat_traced.size());
    std::uint64_t n_spans = 0;
    for (const ThreadResult& r : res) n_spans += r.log.spans().size();
    report.set("trace.spans", static_cast<double>(n_spans), 1);
  }
  st.teardown();
}

}  // namespace

void run_pool_tx_mt(const Args& args, Report& report, Tally& tally) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  run_pool_tx(args, std::clamp(hw, 1, kMaxThreads), report, tally);
}

}  // namespace perfbench
