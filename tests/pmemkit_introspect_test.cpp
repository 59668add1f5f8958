// Tests for pool introspection plus a multi-threaded stress test whose
// final state is audited by the inspector.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <random>
#include <thread>

#include "pmemkit/introspect.hpp"
#include "pmemkit/pmemkit.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

class IntrospectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::temp_directory_path() /
            ("inspect-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove(path_);
    pool_ = pk::ObjectPool::create(path_, "inspect-me", 64ull << 20);
  }
  void TearDown() override {
    pool_.reset();
    fs::remove(path_);
  }

  fs::path path_;
  std::unique_ptr<pk::ObjectPool> pool_;
};

TEST_F(IntrospectTest, FreshPoolIsConsistentAndEmpty) {
  const auto r = pk::inspect(*pool_);
  EXPECT_TRUE(r.consistent) << pk::to_text(r);
  EXPECT_EQ(r.layout, "inspect-me");
  EXPECT_FALSE(r.has_root);
  EXPECT_EQ(r.heap.object_count, 0u);
  EXPECT_TRUE(r.busy_lanes.empty());
  EXPECT_FALSE(r.clean_shutdown);  // currently open
}

TEST_F(IntrospectTest, CensusTracksTypes) {
  struct R { std::uint64_t x; };
  (void)pool_->root<R>();
  for (int i = 0; i < 5; ++i) (void)pool_->alloc_atomic(100, 7);
  for (int i = 0; i < 3; ++i) (void)pool_->alloc_atomic(5000, 9);

  const auto r = pk::inspect(*pool_);
  EXPECT_TRUE(r.consistent) << pk::to_text(r);
  EXPECT_TRUE(r.has_root);
  std::uint64_t type7 = 0, type9 = 0;
  for (const auto& row : r.census) {
    if (row.type_num == 7) type7 = row.objects;
    if (row.type_num == 9) type9 = row.objects;
  }
  EXPECT_EQ(type7, 5u);
  EXPECT_EQ(type9, 3u);
  // Census usable bytes are at least what was requested.
  for (const auto& row : r.census) {
    if (row.type_num == 7) EXPECT_GE(row.usable_bytes, 500u);
    if (row.type_num == 9) EXPECT_GE(row.usable_bytes, 15000u);
  }
}

TEST_F(IntrospectTest, InFlightTransactionShowsBusyLane) {
  struct R { std::uint64_t x; };
  auto* root = pool_->direct(pool_->root<R>());
  pool_->run_tx([&] {
    pool_->tx_add_range(&root->x, 8);
    root->x = 5;
    const auto r = pk::inspect(*pool_);
    ASSERT_EQ(r.busy_lanes.size(), 1u);
    EXPECT_EQ(r.busy_lanes[0].state, pk::LaneState::Active);
    EXPECT_GT(r.busy_lanes[0].undo_bytes, 0u);
  });
  const auto after = pk::inspect(*pool_);
  EXPECT_TRUE(after.busy_lanes.empty());
}

// Inspecting a pool while other threads run transactions on it must be
// data-race-free (this suite runs under the TSan CI job): a lane another
// thread is actively transacting on is counted in lanes_in_flight, never
// read — its header and log are in motion.  The workers only snapshot;
// LiveInspectionSkipsOrCompletesTheCensus below adds alloc/free.
TEST_F(IntrospectTest, ConcurrentInspectionRacesNoTransaction) {
  struct R {
    std::uint64_t slots[4];
  };
  auto* root = pool_->direct(pool_->root<R>());
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      while (!stop.load()) {
        pool_->run_tx([&] {
          pool_->tx_add_range(&root->slots[t], 8);
          root->slots[t] += 1;
        });
      }
    });
  }
  for (int i = 0; i < 100; ++i) {
    const auto r = pk::inspect(*pool_);
    // Foreign in-flight lanes are counted, not listed; free lanes are
    // always idle (retired before release), so nothing lands in
    // busy_lanes from this thread's perspective.
    EXPECT_TRUE(r.busy_lanes.empty());
    EXPECT_LE(r.lanes_in_flight, 3u);
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  const auto after = pk::inspect(*pool_);
  EXPECT_TRUE(after.busy_lanes.empty());
  EXPECT_EQ(after.lanes_in_flight, 0u);
}

// The census walk reads run bitmaps and headers without chunk locks.  On a
// live pool it runs only while inspect() holds every lane but the caller's
// own, which freezes the heap (every mutation needs a lane); with a lane in
// another thread's hands it is skipped and the report says so, instead of
// a census/bitmap mismatch under PROBLEMS.  These workers allocate and
// free, so a walk that raced them would show under TSan, and a walked
// census must match the heap's occupancy counters exactly.
TEST_F(IntrospectTest, LiveInspectionSkipsOrCompletesTheCensus) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      std::vector<pk::ObjId> mine;
      for (std::uint64_t i = 0; !stop.load(); ++i) {
        mine.push_back(pool_->alloc_atomic(64 + (i * 131) % 3000, 10 + t));
        pool_->run_tx([&] {
          const pk::ObjId fresh = pool_->tx_alloc(200, 20 + t);
          pool_->tx_free(fresh);
        });
        if (mine.size() > 8) {
          pool_->free_atomic(mine.front());
          mine.erase(mine.begin());
        }
      }
      for (const pk::ObjId o : mine) pool_->free_atomic(o);
    });
  }
  for (int i = 0; i < 100; ++i) {
    const auto r = pk::inspect(*pool_);
    EXPECT_TRUE(r.consistent) << pk::to_text(r);
    if (r.census_skipped) {
      EXPECT_GT(r.lanes_in_flight, 0u);
      EXPECT_TRUE(r.census.empty());
      EXPECT_NE(pk::to_text(r).find("census skipped: " +
                                    std::to_string(r.lanes_in_flight) +
                                    " lanes in flight"),
                std::string::npos);
    } else {
      EXPECT_EQ(r.lanes_in_flight, 0u);
    }
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  const auto after = pk::inspect(*pool_);
  EXPECT_FALSE(after.census_skipped);
  EXPECT_TRUE(after.consistent) << pk::to_text(after);
  EXPECT_EQ(after.heap.object_count, 0u);
  EXPECT_EQ(after.heap.live_bytes, 0u);
}

// The caller's own LaneSession lane is not "another thread's": the census
// still runs.
TEST_F(IntrospectTest, OwnLaneSessionKeepsTheCensus) {
  (void)pool_->alloc_atomic(64, 3);
  const pk::ObjectPool::LaneSession lane(*pool_);
  const auto r = pk::inspect(*pool_);
  EXPECT_FALSE(r.census_skipped);
  EXPECT_EQ(r.lanes_in_flight, 0u);
  ASSERT_EQ(r.census.size(), 1u);
  EXPECT_EQ(r.census[0].objects, 1u);
  EXPECT_EQ(r.heap.live_bytes, 64u + sizeof(pk::AllocHeader));
}

TEST_F(IntrospectTest, TextRenderingContainsTheEssentials) {
  (void)pool_->alloc_atomic(64, 3);
  const std::string text = pk::to_text(pk::inspect(*pool_));
  EXPECT_NE(text.find("inspect-me"), std::string::npos);
  EXPECT_NE(text.find("type 3"), std::string::npos);
  EXPECT_NE(text.find("consistency   : OK"), std::string::npos);
}

TEST_F(IntrospectTest, CleanShutdownFlagAfterClose) {
  pool_.reset();
  auto reopened = pk::ObjectPool::open(path_, "inspect-me");
  // The flag is cleared again while open, but recovery did not run.
  EXPECT_FALSE(reopened->recovered());
  pool_ = std::move(reopened);
}

// ---------------------------------------------------------------------------
// Stress: concurrent transactions + atomic ops, audited afterwards.
// ---------------------------------------------------------------------------

TEST_F(IntrospectTest, ConcurrentStressLeavesAConsistentPool) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 120;
  struct R {
    std::uint64_t counters[kThreads];
  };
  auto* root = pool_->direct(pool_->root<R>());

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<std::uint32_t>(t) + 1);
      std::vector<pk::ObjId> mine;
      for (int i = 0; i < kOpsPerThread; ++i) {
        switch (rng() % 4) {
          case 0:  // transactional counter bump
            pool_->run_tx([&] {
              pool_->tx_add_range(&root->counters[t], 8);
              root->counters[t] += 1;
            });
            break;
          case 1:  // atomic alloc
            mine.push_back(
                pool_->alloc_atomic(64 + rng() % 2000, 100 + t));
            break;
          case 2:  // atomic free
            if (!mine.empty()) {
              pool_->free_atomic(mine.back());
              mine.pop_back();
            }
            break;
          case 3:  // tx alloc + deferred free of an older object
            pool_->run_tx([&] {
              const pk::ObjId fresh =
                  pool_->tx_alloc(128, 100 + t);
              if (!mine.empty()) {
                pool_->tx_free(mine.back());
                mine.pop_back();
              }
              mine.push_back(fresh);
            });
            break;
        }
      }
      // Drop the survivors so the census is predictable.
      for (const pk::ObjId o : mine) pool_->free_atomic(o);
    });
  }
  for (auto& w : workers) w.join();

  const auto report = pk::inspect(*pool_);
  EXPECT_TRUE(report.consistent) << pk::to_text(report);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_TRUE(pool_->first(100 + t).is_null()) << "type leak " << t;
  EXPECT_TRUE(report.busy_lanes.empty());

  // And the pool survives a reopen with the counters intact.
  std::array<std::uint64_t, kThreads> snapshot{};
  for (int t = 0; t < kThreads; ++t) snapshot[t] = root->counters[t];
  pool_.reset();
  pool_ = pk::ObjectPool::open(path_, "inspect-me");
  auto* again = pool_->direct(pool_->root<R>());
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(again->counters[t], snapshot[t]);
}

}  // namespace
