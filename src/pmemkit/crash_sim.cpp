#include "pmemkit/crash_sim.hpp"

#include <fstream>

#include "pmemkit/crash_hook.hpp"

namespace cxlpmem::pmemkit {

namespace {

void remove_if_exists(const std::filesystem::path& p) {
  std::error_code ec;
  std::filesystem::remove(p, ec);
}

void write_image(const std::filesystem::path& p,
                 const std::vector<std::byte>& image) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) throw PoolError("cannot rewrite crash image: " + p.string());
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  if (!out) throw PoolError("short write of crash image: " + p.string());
}

/// RAII hook guard — never leave a crash hook installed on early exit.
struct HookGuard {
  explicit HookGuard(CrashHook hook) { set_crash_hook(std::move(hook)); }
  ~HookGuard() { set_crash_hook({}); }
};

}  // namespace

std::unique_ptr<ObjectPool> CrashSimulator::fresh_pool(bool pmemcheck,
                                                       const PoolFn& setup) {
  remove_if_exists(config_.pool_path);
  ObjectPool::Options opts;
  opts.pmemcheck = pmemcheck;
  auto pool = ObjectPool::create(config_.pool_path, config_.layout,
                                 config_.pool_size, opts);
  if (setup) setup(*pool);
  return pool;
}

std::size_t CrashSimulator::run(const PoolFn& setup, const PoolFn& scenario,
                                const PoolFn& verify) {
  // Pass 1: count crash points.
  std::size_t total_points = 0;
  {
    auto pool = fresh_pool(/*pmemcheck=*/false, setup);
    HookGuard guard([&](std::string_view) { ++total_points; });
    scenario(*pool);
  }
  remove_if_exists(config_.pool_path);

  // Pass 2: one run per point.
  for (std::size_t k = 1; k <= total_points; ++k) {
    auto pool = fresh_pool(/*pmemcheck=*/true, setup);
    bool crashed = false;
    {
      std::size_t seen = 0;
      HookGuard guard([&](std::string_view point) {
        if (++seen == k) throw CrashInjected{std::string(point)};
      });
      try {
        scenario(*pool);
      } catch (const CrashInjected&) {
        crashed = true;
      }
    }
    if (!crashed)
      throw PoolError("crash point count changed between passes");

    pool->mark_crashed();
    const std::vector<std::byte> image =
        pool->pmemsan()->crash_image(config_.policy, config_.seed + k);
    pool.reset();
    write_image(config_.pool_path, image);

    auto reopened =
        ObjectPool::open(config_.pool_path, config_.layout, {});
    verify(*reopened);
    reopened.reset();
    remove_if_exists(config_.pool_path);
  }
  return total_points;
}

}  // namespace cxlpmem::pmemkit
