// perfbench — the repository benchmark binary (driven by perfbench/run.py).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//             [--trace-out FILE] [--inject-bad-get N]
//
// Prints a human-readable metric table followed, as the last line, by one
// JSON object {"correct", "attempted", "failed", "metrics"}.  Exit status:
// 0 all outputs checked correct, 1 a check failed (the JSON line still
// reports it), 2 usage error, 3 the workload could not be set up.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  void (*run)(const Args&, Report&, Tally&);
};

constexpr Workload kWorkloads[] = {
    {"kv_update", run_kv_update},
    {"kv_read_tier", run_kv_read_tier},
    {"pool_tx_mt", run_pool_tx_mt},
    {"hpc_ckpt", run_hpc_ckpt},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--dir DIR [--trace-out FILE] [--inject-bad-get N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      args.workload = val;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(val);
    } else if (flag == "--trace") {
      args.trace = std::string(val) == "1";
    } else if (flag == "--dir") {
      args.dir = val;
    } else if (flag == "--trace-out") {
      args.trace_out = val;
    } else if (flag == "--inject-bad-get") {
      args.inject_bad_get = std::atoll(val);
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || args.dir.empty() || !(args.seconds > 0))
    return usage(argv[0]);
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (args.workload == c.name) w = &c;
  if (w == nullptr) return usage(argv[0]);

  std::error_code ec;
  fs::remove_all(args.dir, ec);
  fs::create_directories(args.dir, ec);
  Report report(args.trace);
  Tally tally;
  try {
    w->run(args, report, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", w->name, e.what());
    fs::remove_all(args.dir, ec);
    return 3;
  }
  fs::remove_all(args.dir, ec);
  report.set("success_ratio",
             1.0 - ratio(static_cast<double>(tally.failed),
                         static_cast<double>(tally.attempted)),
             tally.attempted);
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  report.print(args, tally, correct);
  return correct ? 0 : 1;
}
