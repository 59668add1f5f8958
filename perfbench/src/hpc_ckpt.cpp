// perfbench/src/hpc_ckpt.cpp — hpc_ckpt: the solver checkpoint/restart
// loop of the paper's §1.2.
//
// Solver state is three STREAM arrays of 4 Mi doubles (96 MiB) in one DRAM
// buffer.  Step k runs stream::triad_chunk with a seeded scalar s_k over a
// rotating 5% slice of `a` (about 6 of the 384 256-KiB checkpoint chunks),
// then calls api::CheckpointStore::save (incremental, on the solver's
// thread) on a store on pmem2.  a = b + s_k * c keeps the state
// finite for any run length and gives a closed form to check against.
//
// Checks: a byte-exact load_into round trip of the final save, and
// a[i] == b[i] + s_k * c[i] over each slice for the last step that touched
// it (untouched slices still hold their initial values).
//
// The state fits within 4x the 300 MiB L3 of the reference machine, so the
// benchmark reports the bytes the kernel computes, never a bandwidth.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "api/cxlpmem.hpp"
#include "common.hpp"
#include "stream/kernels.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cxlpmem;

constexpr std::uint64_t kN = 4ull << 20;  // doubles per array
constexpr std::uint64_t kSlices = 20;
constexpr std::uint64_t kStateBytes = 3 * kN * sizeof(double);
/// Saves run on the solver's own thread.  Fanned out over the default
/// NUMA-aware worker pool, the CPU time of a save swung by +-18% with the
/// host's memory traffic (four scanners contending for bandwidth); on one
/// thread, +-3.5%.
constexpr int kSaveThreads = 1;

struct Solver {
  std::unique_ptr<api::Runtime> rt;
  std::unique_ptr<api::CheckpointStore> store;
  std::vector<double> state;  ///< a | b | c
  std::vector<double> a0;     ///< initial a, for untouched slices
  fs::path dir;

  stream::ArrayView view() {
    return stream::ArrayView{state.data(), state.data() + kN,
                             state.data() + 2 * kN, kN};
  }
  std::span<const std::byte> bytes() const {
    return std::as_bytes(std::span<const double>(state));
  }

  void start(const fs::path& d, std::uint64_t seed) {
    dir = d;
    auto built = api::RuntimeBuilder::setup_one().base_dir(dir).build();
    require(built, "runtime");
    rt = std::make_unique<api::Runtime>(std::move(built).value());
    state.assign(3 * kN, 0.0);
    Rng rng(seed, 7);
    double* a = state.data();
    double* b = a + kN;
    double* c = b + kN;
    for (std::uint64_t i = 0; i < kN; ++i) {
      b[i] = 1.0 + rng.uniform();
      c[i] = rng.uniform() - 0.5;
      a[i] = b[i];
    }
    a0.assign(a, a + kN);
    api::CheckpointSpec spec;
    spec.threads = kSaveThreads;
    auto s = rt->checkpoint_store("pmem2", "solver.ckpt", kStateBytes, spec);
    require(s, "store");
    store = std::make_unique<api::CheckpointStore>(std::move(s).value());
    const auto first = store->save(bytes());
    require(first, "save");
  }

  void teardown() {
    store.reset();
    rt.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

struct Slice {
  std::uint64_t begin, end;
};

Slice slice_of(std::uint64_t step) {
  const std::uint64_t j = step % kSlices;
  return Slice{j * kN / kSlices, (j + 1) * kN / kSlices};
}

double ms_of(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

void run(const Args& args, Report& report, Tally& tally) {
  Solver sv;
  const SetupTime setup = median_setup_seconds(
      [&](int r) {
        sv.start(args.dir / ("setup-" + std::to_string(r)), args.seed);
      },
      [&] { sv.teardown(); });

  Rng scalars(args.seed, 8);
  std::vector<double> last_s(kSlices, 0.0);
  std::vector<bool> touched(kSlices, false);
  Samples step_us, step_traced_us, chunks, amplification;
  SpanLog log;
  const Clock::time_point t0 = Clock::now();
  const auto warm_end = t0 + std::chrono::milliseconds(kWarmupMs);
  const auto deadline = after(warm_end, args.seconds);
  const int windows = window_count(args.seconds);
  Samples saves;
  CpuPerOp cpu;
  double rss = 0, rss0 = 0;
  int marks = 0;
  std::uint64_t steps = 0;
  std::optional<CpuRotor> rotor(std::in_place);
  for (std::uint64_t k = 0;; ++k) {
    rotor->next();
    const Clock::time_point start = Clock::now();
    for (; marks <= windows &&
           start >= after(warm_end, args.seconds * marks / windows);
         ++marks) {
      if (marks == 0) {
        rss = peak_rss_mb();
        rss0 = current_rss_mb();
      }
      cpu.mark(steps);
    }
    if (start >= deadline) break;
    const bool timed = start >= warm_end;
    SpanLog* sl = (args.trace && timed && k % 2 == 1) ? &log : nullptr;
    const Slice s = slice_of(k);
    const double scalar = 0.5 + scalars.uniform();
    const ScopedSpan root(sl, "step", -1, k);
    {
      const ScopedSpan tr(sl, "stream.triad", root.index(), k);
      stream::triad_chunk(sv.view(), scalar, s.begin, s.end);
    }
    last_s[k % kSlices] = scalar;
    touched[k % kSlices] = true;
    const Clock::time_point s0 = Clock::now();
    api::Result<api::SaveStats> saved = [&] {
      const ScopedSpan sp(sl, "ckpt.save", root.index(), k);
      return sv.store->save(sv.bytes());
    }();
    const Clock::time_point s1 = Clock::now();
    tally.attempted += 1;
    if (!saved.ok()) {
      tally.failed += 1;
      continue;
    }
    if (!timed) continue;
    ++steps;
    const double save = us_between(s0, s1);
    const double step = us_between(start, s1);
    (sl ? step_traced_us : step_us).add(step);
    if (!sl) saves.add(save);
    if (sl) {
      chunks.add(static_cast<double>(saved.value().chunks_written));
      const std::uint64_t dirtied = (s.end - s.begin) * sizeof(double);
      amplification.add(ratio(static_cast<double>(saved.value().bytes_written),
                              static_cast<double>(dirtied)));
    }
  }
  rotor.reset();
  const double rss1 = current_rss_mb();

  // Closed form: a = b + s_k * c for the last step that touched the slice.
  const stream::ArrayView v = sv.view();
  for (std::uint64_t j = 0; j < kSlices; ++j) {
    const Slice s = slice_of(j);
    tally.attempted += 1;
    for (std::uint64_t i = s.begin; i < s.end; ++i) {
      const double want = touched[j] ? v.b[i] + last_s[j] * v.c[i] : sv.a0[i];
      if (v.a[i] != want) {
        tally.failed += 1;
        break;
      }
    }
  }
  // Restart: the final save must reload byte for byte.
  std::vector<std::byte> restored(kStateBytes);
  const Clock::time_point r0 = Clock::now();
  const api::Result<std::uint64_t> loaded = sv.store->load_into(restored);
  const double restart_ms = ms_of(r0);
  tally.attempted += 1;
  if (!loaded.ok() || loaded.value() != kStateBytes ||
      std::memcmp(restored.data(), sv.bytes().data(), kStateBytes) != 0)
    tally.failed += 1;

  report.set("cpu_us_per_op", cpu.lower_quartile_us(), cpu.windows());
  const auto reps = static_cast<std::uint64_t>(setup.reps);
  report.set("setup_s", setup.cpu_s, reps);
  report.set("wall.setup_s", setup.wall_s, reps);
  report.set("peak_rss_mb", rss, 1);
  report.set("mem.rss_end_mb", rss1, 1);
  report.set("mem.rss_growth_mb", rss1 - rss0, 1);
  report.set("wall.ops_per_s", static_cast<double>(steps) / args.seconds,
             steps);
  // A step's latency is its save; p90 is the highest percentile with at
  // least ten samples beyond it at this step rate.
  report.set("wall.p50_us", saves.pct(0.50), saves.size());
  report.set("wall.tail_us", saves.pct(0.90), saves.size());
  if (!args.trace) {
    sv.teardown();
    return;
  }

  // Two saves with nothing dirty: the first catches the other slot up, the
  // second only fingerprints — the pure scan cost.
  tally.attempted += 3;
  if (!sv.store->save(sv.bytes()).ok()) tally.failed += 1;
  const Clock::time_point c0 = Clock::now();
  const auto scan = sv.store->save(sv.bytes());
  const double scan_ms = ms_of(c0);
  if (!scan.ok() || scan.value().chunks_written != 0) tally.failed += 1;
  const Clock::time_point f0 = Clock::now();
  if (!sv.store->save_full(sv.bytes()).ok()) tally.failed += 1;
  const double full_ms = ms_of(f0);

  SpanSummary spans;
  spans.add_log(log);
  spans.write(args.trace_out);
  report.set("ckpt.scan_ms", scan_ms, 1);
  report.set("ckpt.full_save_ms", full_ms, 1);
  const SpanStats& save = spans.at("ckpt.save");
  report.set("ckpt.save_p99_ms", save.dur_us.pct(0.99) / 1e3,
             save.dur_us.size());
  report.set("ckpt.chunks_written_per_save", chunks.mean(), chunks.size());
  report.set("ckpt.write_amplification", amplification.mean(),
             amplification.size());
  report.set("ckpt.restart_ms", restart_ms, 1);
  const SpanStats& triad = spans.at("stream.triad");
  report.set("stream.triad_ms_per_step", triad.dur_us.mean() / 1e3,
             triad.dur_us.size());
  // Triad reads b and c and writes a: 24 bytes per element of the slice.
  report.set("stream.triad_bytes_per_step",
             static_cast<double>(kN / kSlices * 3 * sizeof(double)), 1);
  const double u50 = step_us.pct(0.5);
  report.set("trace.overhead_pct",
             ratio(step_traced_us.pct(0.5) - u50, u50) * 100.0,
             step_traced_us.size());
  report.set("trace.spans", static_cast<double>(log.spans().size()), 1);
  sv.teardown();
}

}  // namespace

void run_hpc_ckpt(const Args& args, Report& report, Tally& tally) {
  run(args, report, tally);
}

}  // namespace perfbench
