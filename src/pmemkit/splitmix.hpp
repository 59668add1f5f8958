// pmemkit/splitmix.hpp — splitmix64, the project's one deterministic mixer.
//
// Every seeded decision draws from it: fault-schedule injections (faultkit,
// net_fault), retry backoff jitter, the crash model's per-line eviction
// coin and the benchmarks' operation mixers.  One definition keeps a seed
// printed by any harness replaying bit-identically everywhere.
#pragma once

#include <cstdint>

namespace cxlpmem::pmemkit {

[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace cxlpmem::pmemkit
