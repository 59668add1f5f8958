// Tests for ObjectPool lifecycle: create/open/close, validation, root
// objects, persistence across reopen.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pmemkit/evolve.hpp"
#include "pmemkit/introspect.hpp"
#include "pmemkit/pmemkit.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

class PoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pooltest-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] fs::path pool_path(const std::string& n = "p") const {
    return dir_ / n;
  }
  fs::path dir_;
};

constexpr std::uint64_t kSize = pk::ObjectPool::min_pool_size() * 2;

// Readers hammer the cached registry lookups while other pools churn
// open/close: lookups must stay coherent (never the churning pool for the
// stable pool's id) and data-race-free (this test is in the TSan CI
// suite).  The churn threads force continual generation bumps, so both the
// hit path and the invalidate-and-refill path run hot.
TEST_F(PoolTest, RegistryLookupsRaceWithOpenClose) {
  auto stable = pk::ObjectPool::create(pool_path("stable"), "reg", kSize);
  const std::uint64_t id = stable->pool_id();
  const void* inside = stable->region().base() + 4096;

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    for (int i = 0; i < 40; ++i) {
      auto p = pk::ObjectPool::create(pool_path("churn"), "reg", kSize);
      p.reset();
      fs::remove(pool_path("churn"));
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        ASSERT_EQ(pk::pool_by_id(id), stable.get());
        ASSERT_EQ(pk::pool_containing(inside), stable.get());
      }
    });
  }
  churn.join();
  for (auto& r : readers) r.join();
}

// The registry lookups are served from a generation-validated thread-local
// cache on the hot path.  Every open/close must bump the generation so a
// cached answer can never outlive the pool it names or shadow a newer
// same-id pool.
TEST_F(PoolTest, RegistryLookupCacheInvalidatesOnOpenAndClose) {
  auto a = pk::ObjectPool::create(pool_path("a"), "reg", kSize);
  const std::uint64_t id = a->pool_id();
  const void* inside = a->region().base() + 4096;

  // Warm the cache, then hit it.
  EXPECT_EQ(pk::pool_by_id(id), a.get());
  EXPECT_EQ(pk::pool_by_id(id), a.get());
  EXPECT_EQ(pk::pool_containing(inside), a.get());
  EXPECT_EQ(pk::pool_containing(inside), a.get());

  const std::uint64_t gen_before = pk::pool_registry_generation();
  auto b = pk::ObjectPool::create(pool_path("b"), "reg", kSize);
  EXPECT_GT(pk::pool_registry_generation(), gen_before);
  EXPECT_EQ(pk::pool_by_id(b->pool_id()), b.get());
  EXPECT_EQ(pk::pool_by_id(id), a.get());  // refilled after invalidation

  // Close A: cached hits for it must die with the generation bump.
  a.reset();
  EXPECT_EQ(pk::pool_by_id(id), nullptr);
  EXPECT_EQ(pk::pool_containing(inside), nullptr);
  // B survives, through a fresh cache fill.
  EXPECT_EQ(pk::pool_by_id(b->pool_id()), b.get());
}

TEST_F(PoolTest, CreateOpenRoundtrip) {
  std::uint64_t id = 0;
  {
    auto p = pk::ObjectPool::create(pool_path(), "layout-x", kSize);
    id = p->pool_id();
    EXPECT_NE(id, 0u);
    EXPECT_EQ(p->layout(), "layout-x");
    EXPECT_EQ(p->size(), kSize);
  }
  auto p = pk::ObjectPool::open(pool_path(), "layout-x");
  EXPECT_EQ(p->pool_id(), id);
  EXPECT_FALSE(p->recovered());  // clean shutdown
}

TEST_F(PoolTest, CreateRejectsBadArguments) {
  EXPECT_THROW(pk::ObjectPool::create(pool_path(), "l",
                                      pk::ObjectPool::min_pool_size() - 1),
               pk::PoolError);
  const std::string long_layout(100, 'x');
  EXPECT_THROW(pk::ObjectPool::create(pool_path(), long_layout, kSize),
               pk::PoolError);
  // Existing file refuses create.
  { auto p = pk::ObjectPool::create(pool_path(), "l", kSize); }
  EXPECT_THROW(pk::ObjectPool::create(pool_path(), "l", kSize),
               pk::PoolError);
}

TEST_F(PoolTest, OpenRejectsWrongLayout) {
  { auto p = pk::ObjectPool::create(pool_path(), "alpha", kSize); }
  EXPECT_THROW(pk::ObjectPool::open(pool_path(), "beta"), pk::PoolError);
}

TEST_F(PoolTest, OpenRejectsNonPoolFile) {
  std::ofstream(pool_path()) << std::string(1 << 20, 'z');
  EXPECT_THROW(pk::ObjectPool::open(pool_path(), "l"), pk::PoolError);
}

TEST_F(PoolTest, OpenDetectsHeaderCorruption) {
  { auto p = pk::ObjectPool::create(pool_path(), "l", kSize); }
  // Flip a byte inside the checksummed identity area (pool_id).  Inverted,
  // not overwritten: the random pool id may already hold any given value.
  std::fstream f(pool_path(),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(80);
  const char old = static_cast<char>(f.get());
  f.seekp(80);
  f.put(static_cast<char>(~old));
  f.close();
  EXPECT_THROW(pk::ObjectPool::open(pool_path(), "l"), pk::PoolError);
}

TEST_F(PoolTest, DirtyShutdownIsReportedAsRecovered) {
  {
    auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
    p->mark_crashed();  // destructor skips the clean-shutdown flag
  }
  auto p = pk::ObjectPool::open(pool_path(), "l");
  EXPECT_TRUE(p->recovered());
  // A clean close then resets it.
  p.reset();
  auto q = pk::ObjectPool::open(pool_path(), "l");
  EXPECT_FALSE(q->recovered());
}

struct Root {
  std::uint64_t magic;
  pk::ObjId list;
};

TEST_F(PoolTest, RootIsZeroedAndStable) {
  {
    auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
    auto root = p->root<Root>();
    Root* r = p->direct(root);
    EXPECT_EQ(r->magic, 0u);
    EXPECT_TRUE(r->list.is_null());
    r->magic = 0xfeed;
    p->persist(&r->magic, sizeof(r->magic));
    // Second call returns the same object.
    EXPECT_EQ(p->root<Root>().raw, root.raw);
  }
  auto p = pk::ObjectPool::open(pool_path(), "l");
  EXPECT_EQ(p->direct(p->root<Root>())->magic, 0xfeedu);
}

TEST_F(PoolTest, RootSizeMismatchThrows) {
  auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
  (void)p->root_raw(64);
  EXPECT_NO_THROW((void)p->root_raw(32));  // smaller is fine
  EXPECT_THROW((void)p->root_raw(128), pk::PoolError);
}

TEST_F(PoolTest, DirectValidatesOids) {
  auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
  EXPECT_THROW((void)p->direct(pk::kNullOid), pk::PoolError);
  EXPECT_THROW((void)p->direct(pk::ObjId{1234, 64}), pk::PoolError);
  EXPECT_THROW((void)p->direct(pk::ObjId{p->pool_id(), p->size() + 1}),
               pk::PoolError);
}

TEST_F(PoolTest, OidForInvertsDirect) {
  auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
  const pk::ObjId oid = p->alloc_atomic(256, 1);
  void* ptr = p->direct(oid);
  EXPECT_EQ(p->oid_for(ptr), oid);
  int local = 0;
  EXPECT_THROW((void)p->oid_for(&local), pk::PoolError);
}

TEST_F(PoolTest, DataPersistsAcrossReopen) {
  const char msg[] = "CXL memory as persistent memory";
  pk::ObjId oid{};
  {
    auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
    struct R { pk::ObjId data; };
    auto* r = p->direct(p->root<R>());
    oid = p->alloc_atomic(sizeof(msg), 9, &r->data);
    p->memcpy_persist(p->direct(oid), msg, sizeof(msg));
  }
  auto p = pk::ObjectPool::open(pool_path(), "l");
  struct R { pk::ObjId data; };
  auto* r = p->direct(p->root<R>());
  EXPECT_EQ(r->data, oid);
  EXPECT_STREQ(static_cast<const char*>(p->direct(r->data)), msg);
}

TEST_F(PoolTest, StatsReflectAllocations) {
  auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
  const auto before = p->stats();
  (void)p->alloc_atomic(1000, 1);
  (void)p->alloc_atomic(1000, 1);
  const auto after = p->stats();
  EXPECT_EQ(after.heap.object_count, before.heap.object_count + 2);
  EXPECT_GT(after.heap.allocated_bytes, before.heap.allocated_bytes);
  EXPECT_EQ(after.lane_count, pk::kLaneCount);
  EXPECT_EQ(after.heap.alloc_ops, before.heap.alloc_ops + 2);
}

// Home runs (one per lane and size class) must never cost capacity: with
// no free chunk left, a lane without a usable home shares another lane's
// home run instead of failing.  Lane A is the main thread's LaneSession;
// each `on_lane_b` call runs on a fresh thread, which (no lane history,
// A holding the top lane) is always handed the same next lane.
TEST_F(PoolTest, LaneWithoutFreeChunkSharesAnotherLanesHomeRun) {
  auto p = pk::ObjectPool::create(pool_path(), "homes",
                                  pk::ObjectPool::min_pool_size());
  const pk::ObjectPool::LaneSession lane_a(*p);
  const auto on_lane_b = [&](std::uint64_t size) {
    pk::ObjId oid;
    std::uint32_t lane = 0;
    std::string error;
    std::thread([&] {
      const pk::ObjectPool::LaneSession lane_b(*p);
      lane = lane_b.lane();
      try {
        oid = p->alloc_atomic(size, 2);
      } catch (const pk::AllocError& e) {
        error = e.what();
      }
    }).join();
    EXPECT_NE(lane, lane_a.lane());
    EXPECT_EQ(error, "") << "lane B, " << size << " bytes";
    return oid;
  };
  const auto chunk_of = [&](pk::ObjId o) {
    return p->heap().chunk_index_of(o.off);
  };

  const pk::ObjId a1 = p->alloc_atomic(1000, 1);  // A's 1 KiB-class home
  const pk::ObjId b1 = on_lane_b(100);            // B's 128 B-class home
  ASSERT_NE(chunk_of(a1), chunk_of(b1));
  // Use up every free chunk with single-chunk huge spans.
  int fillers = 0;
  for (;; ++fillers) {
    try {
      (void)p->alloc_atomic(200u << 10, 3);
    } catch (const pk::AllocError& e) {
      ASSERT_EQ(e.kind(), pk::ErrKind::OutOfSpace);
      break;
    }
  }
  ASSERT_GT(fillers, 0);
  ASSERT_EQ(p->stats().heap.free_chunks, 0u);

  // Each lane allocates the class only the other lane has a home run for.
  const pk::ObjId b2 = on_lane_b(1000);
  ASSERT_FALSE(b2.is_null());
  EXPECT_EQ(chunk_of(b2), chunk_of(a1));
  pk::ObjId a2;
  ASSERT_NO_THROW(a2 = p->alloc_atomic(100, 1));
  EXPECT_EQ(chunk_of(a2), chunk_of(b1));

  // A's home keeps serving A until its last block, then space runs out.
  const std::uint32_t blocks = pk::blocks_per_run(1024);
  for (std::uint32_t i = 2; i < blocks; ++i) {
    pk::ObjId o;
    ASSERT_NO_THROW(o = p->alloc_atomic(1000, 1)) << "block " << i;
    EXPECT_EQ(chunk_of(o), chunk_of(a1));
  }
  EXPECT_THROW((void)p->alloc_atomic(1000, 1), pk::AllocError);
  EXPECT_TRUE(pk::inspect(*p).consistent);
}

// reclaim_empty_runs() returning a home run to the free map must retire
// the home with it: the chunk may come back as a run of another class, and
// a stale home would place the old class's blocks into it.
TEST_F(PoolTest, ReclaimedHomeRunIsNotReusedForAnotherClass) {
  auto p = pk::ObjectPool::create(pool_path(), "homes",
                                  pk::ObjectPool::min_pool_size());
  const pk::ObjectPool::LaneSession lane_a(*p);
  const auto chunk_of = [&](pk::ObjId o) {
    return p->heap().chunk_index_of(o.off);
  };

  pk::ObjId a1 = p->alloc_atomic(1000, 1);  // A's 1 KiB-class home
  const std::uint32_t home = chunk_of(a1);
  p->free_atomic(&a1);
  ASSERT_GE(p->heap().reclaim_empty_runs(), 1u);

  // Another lane claims the lowest free chunk — A's former home — for the
  // 128 B class.
  pk::ObjId b1;
  std::thread([&] {
    const pk::ObjectPool::LaneSession lane_b(*p);
    b1 = p->alloc_atomic(100, 2);
  }).join();
  ASSERT_EQ(chunk_of(b1), home);

  const pk::ObjId a2 = p->alloc_atomic(1000, 1);
  EXPECT_NE(chunk_of(a2), home);
  EXPECT_EQ(p->usable_size(a2), 1000u);
  EXPECT_EQ(p->type_of(b1), 2u);
  const pk::PoolReport report = pk::inspect(*p);
  EXPECT_TRUE(report.consistent);
  EXPECT_EQ(report.heap.object_count, 2u);
}

// Holds stats()' running occupancy counters to the object walk's census:
// same object count, and live_bytes == sum(usable + header).
void expect_counters_match_census(const pk::ObjectPool& p) {
  const pk::PoolReport r = pk::inspect(p);
  ASSERT_TRUE(r.consistent) << pk::to_text(r);
  ASSERT_FALSE(r.census_skipped);
  std::uint64_t objects = 0, live = 0;
  for (const pk::TypeCensusRow& row : r.census) {
    objects += row.objects;
    live += row.usable_bytes + row.objects * sizeof(pk::AllocHeader);
  }
  EXPECT_EQ(r.heap.object_count, objects);
  EXPECT_EQ(r.heap.live_bytes, live);
}

void expect_same_occupancy(const pk::HeapStats& a, const pk::HeapStats& b) {
  EXPECT_EQ(a.object_count, b.object_count);
  EXPECT_EQ(a.allocated_bytes, b.allocated_bytes);
  EXPECT_EQ(a.live_bytes, b.live_bytes);
  EXPECT_EQ(a.reserved_bytes, b.reserved_bytes);
  EXPECT_EQ(a.free_chunks, b.free_chunks);
  EXPECT_EQ(a.chunk_count, b.chunk_count);
  EXPECT_EQ(a.span_count, b.span_count);
  EXPECT_EQ(a.fragmentation, b.fragmentation);
}

// stats() keeps heap occupancy in running counters; only rebuild() walks
// the heap, once at open.  After churn through every path that changes
// occupancy, the counters must equal both the baseline a reopen counts
// from the image and the census the object walk produces.
TEST_F(PoolTest, StatsCountersMatchReopenAndCensus) {
  constexpr int kThreads = 4;
  constexpr int kSlots = 16;
  constexpr std::uint64_t kBase = 64ull << 20;
  struct R {
    pk::ObjId slot[kThreads][kSlots];
  };
  auto p = pk::ObjectPool::create(pool_path(), "exact", kBase);
  auto* r = p->direct(p->root<R>());
  const auto check = [&](const char* phase) {
    SCOPED_TRACE(phase);
    expect_counters_match_census(*p);
    const pk::HeapStats running = p->stats().heap;
    p.reset();
    p = pk::ObjectPool::open(pool_path(), "exact");
    r = p->direct(p->root<R>());
    expect_same_occupancy(running, p->stats().heap);
  };

  // Four threads on one pool: atomic and transactional alloc/free across
  // size classes and huge (> 128 KiB, one- and three-chunk) spans, and
  // transactions that abort after allocating and freeing.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 120; ++i) {
        pk::ObjId& slot = r->slot[t][i % kSlots];
        const std::uint64_t size = i % 25 == 7    ? (600u << 10)
                                   : i % 10 == 3  ? (150u << 10) + i
                                                  : 40 + (i * 97) % 5000;
        switch (i % 4) {
          case 0:
            p->free_atomic(&slot);
            (void)p->alloc_atomic(size, 10 + t, &slot);
            break;
          case 1:
            p->run_tx([&] {
              p->tx_add_range(&slot, sizeof(slot));
              if (!slot.is_null()) p->tx_free(slot);
              slot = p->tx_alloc(size, 20 + t);
            });
            break;
          case 2:
            try {
              p->run_tx([&] {
                (void)p->tx_alloc(size, 30 + t);
                if (!slot.is_null()) p->tx_free(slot);
                throw std::runtime_error("abort");
              });
            } catch (const std::runtime_error&) {
            }
            break;
          default: {
            const pk::ObjId tmp = p->alloc_atomic(size, 40 + t);
            p->free_atomic(tmp);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  check("after concurrent churn");

  // Compaction: thin the slots out, then relocate (tx alloc + free per
  // move, aborted when a block lands back in its chunk) and reclaim.
  std::vector<pk::ObjId*> refs;
  for (int t = 0; t < kThreads; ++t)
    for (int k = 0; k < kSlots; ++k) {
      if (k % 2 == 0) p->free_atomic(&r->slot[t][k]);
      refs.push_back(&r->slot[t][k]);
    }
  (void)pk::compact_pool(*p, refs);
  check("after compact_pool");

  // A run of an otherwise unused class, emptied and reclaimed.
  std::vector<pk::ObjId> mid;
  for (int i = 0; i < 3; ++i) mid.push_back(p->alloc_atomic(10000, 50));
  for (const pk::ObjId o : mid) p->free_atomic(o);
  EXPECT_GE(p->heap().reclaim_empty_runs(), 1u);
  check("after reclaim_empty_runs");

  // Grow, occupy chunks of the new span, then drain it and shrink back
  // (the shrink reclaims the emptied runs itself).
  p->resize(kBase + (16ull << 20));
  std::vector<pk::ObjId> grown;
  while (grown.size() < 8 ||
         grown.back().off < kBase) {  // until one lands in the new span
    grown.push_back(p->alloc_atomic(200u << 10, 60));
    grown.push_back(p->alloc_atomic(3000, 61));
  }
  check("after grow");
  for (pk::ObjId& o : grown) p->free_atomic(&o);
  p->resize(kBase);
  EXPECT_EQ(p->stats().heap.span_count, 1u);
  check("after shrink");
}

// Sharded-allocator stress: concurrent atomic alloc/free and transactions
// from many threads, across size classes and huge spans, must neither lose
// nor leak objects — and must not serialize through any global mutex (the
// contention counters exist so regressions here are observable).
TEST_F(PoolTest, ConcurrentMixedAllocFreeIsConsistent) {
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  auto p = pk::ObjectPool::create(pool_path(), "mt", 64ull << 20);
  struct R {
    pk::ObjId keep[kThreads];
  };
  auto* r = p->direct(p->root<R>());

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Small object, published into the root (replacing the previous
        // one: free + alloc through the same in-pool destination).
        p->free_atomic(&r->keep[t]);
        (void)p->alloc_atomic(64 + (i % 7) * 100, 1000 + t, &r->keep[t]);
        // Scratch object across classes, freed immediately.
        const pk::ObjId tmp = p->alloc_atomic(48 + (i * 37) % 2000, 77);
        p->free_atomic(tmp);
        // Every few iterations, a huge span and a transaction.
        if (i % 16 == t % 16) {
          const pk::ObjId huge = p->alloc_atomic(300u << 10, 88);
          p->free_atomic(huge);
        }
        p->run_tx([&] {
          const pk::ObjId fresh = p->tx_alloc(256, 2000 + t);
          p->tx_free(fresh);
        });
      }
    });
  }
  for (auto& th : threads) th.join();

  // Exactly one published object per thread of its type; scratch types empty.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_FALSE(r->keep[t].is_null());
    EXPECT_EQ(p->type_of(r->keep[t]), 1000u + t);
    int live = 0;
    for (pk::ObjId o = p->first(1000 + t); !o.is_null();
         o = p->next(o, 1000 + t))
      ++live;
    EXPECT_EQ(live, 1) << "t=" << t;
  }
  EXPECT_TRUE(p->first(77).is_null());
  EXPECT_TRUE(p->first(88).is_null());
  for (int t = 0; t < kThreads; ++t)
    EXPECT_TRUE(p->first(2000 + t).is_null());

  const auto s = p->stats();
  EXPECT_GE(s.heap.alloc_ops,
            static_cast<std::uint64_t>(kThreads) * kIters * 3);
  // Reopen: the image a clean close leaves behind must rebuild.
  p.reset();
  p = pk::ObjectPool::open(pool_path(), "mt");
  EXPECT_FALSE(p->recovered());
}

}  // namespace
