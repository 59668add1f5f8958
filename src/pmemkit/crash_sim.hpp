// pmemkit/crash_sim.hpp — systematic crash-injection harness.
//
// CrashSimulator exhaustively tests a scenario against power failure at
// *every* persistence-ordering point the library crosses:
//
//   1. a counting pass runs the scenario and numbers its crash points;
//   2. for each point k: a fresh pool is built with the PmemSan model
//      attached, the scenario runs with a hook that throws CrashInjected
//      at point k, the media image is reconstructed from the model under
//      the configured CrashPolicy, the pool is reopened (running
//      recovery), and the caller's verifier checks invariants.  The model
//      also checks rules R1–R6 on every run, so a sweep fails on a
//      discipline violation even when recovery happens to survive it.
//
// This is the moral equivalent of pmemcheck + a fault-injection rig, and is
// what backs the paper's claim that the PMem programming model gives
// "assurance that the condition of objects will remain internally
// consistent regardless of when the program concludes" (§1.4).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>

#include "pmemkit/pmemsan.hpp"
#include "pmemkit/pool.hpp"

namespace cxlpmem::pmemkit {

class CrashSimulator {
 public:
  struct Config {
    std::filesystem::path pool_path;  ///< scratch file (recreated per run)
    std::string layout = "crash-sim";
    std::uint64_t pool_size = ObjectPool::min_pool_size();
    CrashPolicy policy = CrashPolicy::DropUnflushed;
    std::uint64_t seed = 0;  ///< RandomEvict coin seed (varied per point)
  };

  using PoolFn = std::function<void(ObjectPool&)>;

  explicit CrashSimulator(Config config) : config_(std::move(config)) {}

  /// Runs the full sweep.  `setup` prepares pool contents (not crash-
  /// injected), `scenario` is the code under test, `verify` is called on
  /// the recovered pool after each injected crash and must throw/assert on
  /// an invariant violation.  Returns the number of crash points exercised.
  std::size_t run(const PoolFn& setup, const PoolFn& scenario,
                  const PoolFn& verify);

 private:
  /// Builds a fresh pool, model attached when `pmemcheck`, running
  /// `setup` on it.
  std::unique_ptr<ObjectPool> fresh_pool(bool pmemcheck, const PoolFn& setup);

  Config config_;
};

}  // namespace cxlpmem::pmemkit
