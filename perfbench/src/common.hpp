// perfbench/src/common.hpp — shared pieces of the repository benchmark:
// command line, seeded generators, sample statistics, the metric report,
// and the outside-in span tracer.
//
// Every span is recorded by benchmark code around a call into a public
// function of the program; nothing here reaches inside src/.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5.0;
  bool trace = false;
  fs::path dir;        ///< fresh namespace root for this run (removed after)
  fs::path trace_out;  ///< where the traced run writes its spans
  /// Self-test hook: corrupt the Nth GET reply (0-based, connection 0)
  /// before it reaches the checker.  -1 = off.
  long long inject_bad_get = -1;
};

/// Outcome counters every workload fills in; `failed` covers failed,
/// refused, transport-lost and wrong-valued operations alike.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Set-up step check: throws (the run then ends without a result) when the
/// api::Result `r` carries an error.
template <typename R>
void require(const R& r, const char* what) {
  if (!r.ok())
    throw std::runtime_error(std::string(what) + ": " + r.error().to_string());
}

// --- seeded generators -------------------------------------------------------

/// splitmix64 stream; (seed, stream) pairs give independent sequences.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : s_(seed * 0x9e3779b97f4a7c15ull ^
           (stream + 1) * 0xd1b54a32d192ed03ull) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t s_;
};

/// YCSB's scrambled zipfian: ranks drawn with Gray et al.'s generator over
/// [0, n), then hashed across the keyspace so hot keys are not clustered.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta);
  std::uint64_t next(Rng& rng) const noexcept;

 private:
  std::uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

/// 64-bit word hash used for payload fingerprints (values and objects).
std::uint64_t fingerprint(const void* data, std::size_t n) noexcept;

// --- statistics ------------------------------------------------------------

class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  /// Nearest-rank percentile, p in [0, 1]; 0 when empty.
  [[nodiscard]] double pct(double p) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> v_;
};

/// Process CPU time per op, taken per quarter-second window of the measured
/// interval and reported as the lower quartile over windows.  Neighbours on
/// a shared host only ever add time (cache and memory traffic, a busy
/// sibling core), in bursts shorter than a run, so the windows they spare
/// give the steadiest reading of the program's own cost; a change to the
/// program moves every window alike.
class CpuPerOp {
 public:
  /// Window boundary; `ops` is the count completed so far.  The first call
  /// only sets the baseline.
  void mark(std::uint64_t ops);
  [[nodiscard]] double lower_quartile_us() const;
  [[nodiscard]] std::size_t windows() const { return per_window_.size(); }

 private:
  double cpu_s_ = -1;
  std::uint64_t ops_ = 0;
  Samples per_window_;
};

/// Number of quarter-second windows in a measured interval (at least one).
int window_count(double seconds);
/// `t` plus `seconds`.
Clock::time_point after(Clock::time_point t, double seconds);
/// Sleeps through the measured interval [start, start + seconds), marking
/// `cpu` at its start and at the end of each window with `ops()` — for
/// workloads whose main thread only waits.
void sample_cpu(CpuPerOp& cpu, Clock::time_point start, double seconds,
                const std::function<std::uint64_t()>& ops);

double median(std::vector<double> v);
/// Microseconds from `a` to `b`.
double us_between(Clock::time_point a, Clock::time_point b);
double ratio(double num, double den);
double seconds_since(Clock::time_point t0);
double peak_rss_mb();
/// Resident set size now (MB), from /proc/self/statm.
double current_rss_mb();
/// CPU time consumed by every thread of the process so far.
double process_cpu_s();

/// Moves the calling thread round-robin over the CPUs the process may run
/// on.  A single-threaded workload that stays on one vCPU inherits that
/// vCPU's host-side speed for the whole run, and on a shared host the
/// vCPUs differ; visiting each in turn averages that out within the run.
/// The destructor restores the thread's affinity.
class CpuRotor {
 public:
  CpuRotor();
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;
  void next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

// --- report ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The untraced run's result metrics, in BENCHMARK.json's `end_to_end`
/// order.  Only figures that stay steady on a shared, CPU-stolen 4-vCPU
/// runner are here: CPU time is charged per thread and excludes time the
/// hypervisor stole, wall-clock figures of the multi-threaded paths are not
/// (they are reported, unbounded, as the wall.* per-layer metrics).
inline constexpr MetricDef kEndToEnd[] = {
    {"cpu_us_per_op", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"success_ratio", "ratio"},
};

/// The traced run's result metrics, in BENCHMARK.json's `per_layer` order.
/// A layer the workload does not cross reports 0 with n=0.
inline constexpr MetricDef kPerLayer[] = {
    {"wall.ops_per_s", "1/s"},
    {"wall.p50_us", "us"},
    {"wall.tail_us", "us"},
    {"wall.setup_s", "s"},
    {"client.encode_us_per_burst", "us"},
    {"resp.parse_ns_per_cmd", "ns"},
    {"service.unattributed_us_per_burst", "us"},
    {"service.replayed_share_of_burst_p50", "ratio"},
    {"service.ops_per_batch", "count"},
    {"service.shard_skew", "ratio"},
    {"service.busy_ratio", "ratio"},
    {"service.post_batch_stats_us", "us"},
    {"service.compactions", "count"},
    {"cpu.explained_share", "ratio"},
    {"storage.burst_tx_p50_us", "us"},
    {"storage.burst_tx_p99_us", "us"},
    {"map.entries_per_bucket", "count"},
    {"pmemkit.fences_per_burst", "count"},
    {"pmemkit.fences_per_tx", "count"},
    {"heap.fragmentation", "ratio"},
    {"heap.reserved_per_live", "ratio"},
    {"tier.hit_rate", "ratio"},
    {"tier.get_p50_us", "us"},
    {"tier.get_p99_us", "us"},
    {"tier.promotions_per_kop", "1/kop"},
    {"tier.demotions_per_kop", "1/kop"},
    {"tier.prefetch_accuracy", "ratio"},
    {"tier.compression_ratio", "ratio"},
    {"tx.run_tx_p50_us", "us"},
    {"tx.run_tx_p99_us", "us"},
    {"tx.alloc_us_per_tx", "us"},
    {"tx.commit_us_per_tx", "us"},
    {"heap.alloc_ops", "count"},
    {"heap.run_lock_skips_per_alloc", "ratio"},
    {"heap.run_lock_waits", "count"},
    {"pool.lane_waits", "count"},
    {"ckpt.scan_ms", "ms"},
    {"ckpt.full_save_ms", "ms"},
    {"ckpt.save_p99_ms", "ms"},
    {"ckpt.chunks_written_per_save", "count"},
    {"ckpt.write_amplification", "ratio"},
    {"ckpt.restart_ms", "ms"},
    {"stream.triad_ms_per_step", "ms"},
    {"stream.triad_bytes_per_step", "bytes"},
    {"mem.rss_end_mb", "MB"},
    {"mem.rss_growth_mb", "MB"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// The metrics of one run.  Workloads set whatever they measured; the
/// result (the JSON last line) carries exactly the end-to-end set on an
/// untraced run and exactly the per-layer set on a traced one.  print()
/// first writes a human table — name, value, unit, sample count — of the
/// result metrics, then of any other metric the run set.
class Report {
 public:
  explicit Report(bool trace);
  /// Records a metric; throws std::logic_error on an undefined name.
  void set(const std::string& name, double value, std::uint64_t samples);
  void print(const Args& args, const Tally& tally, bool correct) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    bool in_result = false;
    bool measured = false;
    double value = 0;
    std::uint64_t samples = 0;
  };
  std::vector<Metric> metrics_;
};

/// Runs `setup` at least three times and until a second has gone by (at
/// most 25 times), each on its own fresh directory with the previous one
/// torn down by `teardown`.  Returns the medians of the CPU time all threads
/// of the process spent in one set-up and of its wall time, and the count.
/// The last set-up stays alive for the measured run.
struct SetupTime {
  double cpu_s;
  double wall_s;
  int reps;
};
SetupTime median_setup_seconds(const std::function<void(int)>& setup,
                               const std::function<void()>& teardown);

// --- tracing ---------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t t0_ns;
  std::int64_t t1_ns;
  std::int32_t parent;  ///< index in the same log, -1 = root
  std::uint64_t unit;   ///< burst / transaction / step id
};

/// Per-thread in-memory span log.  A null log (tracing off) makes
/// ScopedSpan free apart from a branch.
class SpanLog {
 public:
  std::int32_t open(const char* name, std::int32_t parent, std::uint64_t unit);
  void close(std::int32_t i);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int32_t parent,
             std::uint64_t unit)
      : log_(log), idx_(log ? log->open(name, parent, unit) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t index() const noexcept { return idx_; }

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

/// Per span name: durations and self times (duration minus the time its
/// direct children cover), in microseconds.
struct SpanStats {
  Samples dur_us;
  Samples self_us;
};

class SpanSummary {
 public:
  void add_log(const SpanLog& log);
  [[nodiscard]] const SpanStats& at(const std::string& name) const;
  /// Writes every span as one JSON line; `thread` is the log's position.
  void write(const fs::path& path) const;

 private:
  std::vector<const SpanLog*> logs_;
  std::map<std::string, SpanStats> by_name_;
};

}  // namespace perfbench
