// perfbench/src/workloads.hpp — the benchmark's workloads.  Each builds its
// own fresh state under args.dir, sets up several times (setup_s is the
// median), warms up for kWarmupMs, measures for args.seconds, checks every
// output it produced, and reports its metrics (the traced run adds the
// per-layer ones).  Every failed, refused, transport-lost or wrong-valued
// operation counts in tally.failed.
#pragma once

#include "common.hpp"

namespace perfbench {

inline constexpr int kWarmupMs = 1000;

void run_kv_update(const Args& args, Report& report, Tally& tally);
void run_kv_read_tier(const Args& args, Report& report, Tally& tally);
void run_pool_tx_mt(const Args& args, Report& report, Tally& tally);
void run_hpc_ckpt(const Args& args, Report& report, Tally& tally);

}  // namespace perfbench
