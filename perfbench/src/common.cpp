// perfbench/src/common.cpp — see common.hpp.
#include "common.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

// --- generators ------------------------------------------------------------

Zipf::Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  double zeta2 = 0;
  zetan_ = 0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    const double term = 1.0 / std::pow(static_cast<double>(i), theta);
    zetan_ += term;
    if (i <= 2) zeta2 += term;
  }
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t Zipf::next(Rng& rng) const noexcept {
  const double u = rng.uniform();
  const double uz = u * zetan_;
  std::uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 1;
  } else {
    rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= n_) rank = n_ - 1;
  }
  // FNV-1a over the rank's bytes: the scramble step of YCSB.
  std::uint64_t h = 14695981039346656037ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (rank >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h % n_;
}

std::uint64_t fingerprint(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0x243f6a8885a308d3ull ^ n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x9fb21c651e98df25ull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  h ^= h >> 32;
  return h * 0xd6e8feb86659fd93ull;
}

// --- statistics --------------------------------------------------------------

double Samples::pct(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(s.size())));
  const std::size_t k = std::min(s.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k),
                   s.end());
  return s[k];
}

double Samples::sum() const {
  double t = 0;
  for (const double x : v_) t += x;
  return t;
}

double Samples::mean() const {
  return v_.empty() ? 0 : sum() / static_cast<double>(v_.size());
}

void CpuPerOp::mark(std::uint64_t ops) {
  const double now = process_cpu_s();
  if (cpu_s_ >= 0 && ops > ops_)
    per_window_.add((now - cpu_s_) * 1e6 / static_cast<double>(ops - ops_));
  cpu_s_ = now;
  ops_ = ops;
}

double CpuPerOp::lower_quartile_us() const { return per_window_.pct(0.25); }

int window_count(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds * 4)));
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

void sample_cpu(CpuPerOp& cpu, Clock::time_point start, double seconds,
                const std::function<std::uint64_t()>& ops) {
  const int n = window_count(seconds);
  for (int w = 0; w <= n; ++w) {
    std::this_thread::sleep_until(after(start, seconds * w / n));
    cpu.mark(ops());
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  struct timespec ts = {};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  struct rusage ru = {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  unsigned long long size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

CpuRotor::CpuRotor() {
  CPU_ZERO(&original_);
  ::sched_getaffinity(0, sizeof(original_), &original_);
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
}

CpuRotor::~CpuRotor() { ::sched_setaffinity(0, sizeof(original_), &original_); }

void CpuRotor::next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[at_++ % cpus_.size()], &one);
  ::sched_setaffinity(0, sizeof(one), &one);
}

// --- report ------------------------------------------------------------------

Report::Report(bool trace) {
  for (const MetricDef& d : kEndToEnd)
    metrics_.push_back({d.name, d.unit, !trace});
  for (const MetricDef& d : kPerLayer)
    metrics_.push_back({d.name, d.unit, trace});
}

void Report::set(const std::string& name, double value,
                 std::uint64_t samples) {
  for (Metric& m : metrics_)
    if (m.name == name) {
      m.value = std::isfinite(value) ? value : 0.0;
      m.samples = samples;
      m.measured = true;
      return;
    }
  throw std::logic_error("perfbench: metric '" + name + "' is not defined");
}

void Report::print(const Args& args, const Tally& tally, bool correct) const {
  std::printf("workload=%s seed=%llu seconds=%g trace=%d dir=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.dir.string().c_str());
  for (const bool result : {true, false}) {
    std::printf(result ? "result metrics:\n"
                       : "also measured (not in the result):\n");
    for (const Metric& m : metrics_)
      if (m.in_result == result && (result || m.measured))
        std::printf("  %-36s %16.6f %-6s n=%llu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::printf("attempted=%llu failed=%llu error_ratio=%.6g correct=%s\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              tally.attempted ? static_cast<double>(tally.failed) /
                                    static_cast<double>(tally.attempted)
                              : 0.0,
              correct ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.in_result) continue;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

SetupTime median_setup_seconds(const std::function<void(int)>& setup,
                               const std::function<void()>& teardown) {
  std::vector<double> cpu, wall;
  double total = 0;
  for (int r = 0; r < 25 && (r < 3 || total < 1.0); ++r) {
    if (r > 0) teardown();
    const Clock::time_point t0 = Clock::now();
    const double c0 = process_cpu_s();
    setup(r);
    cpu.push_back(process_cpu_s() - c0);
    wall.push_back(seconds_since(t0));
    total += wall.back();
  }
  return SetupTime{median(cpu), median(wall), static_cast<int>(wall.size())};
}

// --- tracing -----------------------------------------------------------------

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

std::int32_t SpanLog::open(const char* name, std::int32_t parent,
                           std::uint64_t unit) {
  spans_.push_back({name, now_ns(), 0, parent, unit});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::close(std::int32_t i) {
  spans_[static_cast<std::size_t>(i)].t1_ns = now_ns();
}

void SpanSummary::add_log(const SpanLog& log) {
  logs_.push_back(&log);
  const std::vector<Span>& s = log.spans();
  std::vector<std::int64_t> child_ns(s.size(), 0);
  for (const Span& sp : s)
    if (sp.parent >= 0)
      child_ns[static_cast<std::size_t>(sp.parent)] += sp.t1_ns - sp.t0_ns;
  for (std::size_t i = 0; i < s.size(); ++i) {
    SpanStats& st = by_name_[s[i].name];
    const double dur = static_cast<double>(s[i].t1_ns - s[i].t0_ns) / 1e3;
    st.dur_us.add(dur);
    st.self_us.add(dur - static_cast<double>(child_ns[i]) / 1e3);
  }
}

const SpanStats& SpanSummary::at(const std::string& name) const {
  static const SpanStats empty;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? empty : it->second;
}

void SpanSummary::write(const fs::path& path) const {
  if (path.empty()) return;
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t t = 0; t < logs_.size(); ++t)
    for (const Span& s : logs_[t]->spans())
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.t0_ns
          << ",\"end_ns\":" << s.t1_ns << ",\"parent\":" << s.parent
          << ",\"unit\":" << s.unit << ",\"thread\":" << t << "}\n";
}

}  // namespace perfbench
