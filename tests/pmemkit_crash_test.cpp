// Exhaustive crash-injection tests: power failure at every persistence-
// ordering point, under both crash policies.  These are the tests that back
// the paper's §1.4 claim of transactional integrity on (CXL-) PMem.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "pmemkit/introspect.hpp"
#include "pmemkit/pmemkit.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

struct Root {
  std::uint64_t a;
  std::uint64_t b;
  pk::ObjId obj;
  std::uint64_t len;
};

pk::CrashSimulator::Config config_for(const std::string& name,
                                      pk::CrashPolicy policy,
                                      std::uint64_t seed) {
  pk::CrashSimulator::Config cfg;
  cfg.pool_path = fs::temp_directory_path() /
                  ("crash-" + std::to_string(::getpid()) + "-" + name);
  cfg.policy = policy;
  cfg.seed = seed;
  return cfg;
}

class CrashPolicyTest
    : public ::testing::TestWithParam<pk::CrashPolicy> {};

// The fundamental tx guarantee: a multi-field update is all-or-nothing.
TEST_P(CrashPolicyTest, TransactionIsAtomic) {
  auto cfg = config_for("tx-atomic", GetParam(), 11);
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    r->a = 1;
    r->b = 2;
    p.persist(r, sizeof(Root));
  };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    p.run_tx([&] {
      p.tx_add_range(r, sizeof(Root));
      r->a = 100;
      r->b = 200;
    });
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    const bool pre = r->a == 1 && r->b == 2;
    const bool post = r->a == 100 && r->b == 200;
    ASSERT_TRUE(pre || post)
        << "torn transaction: a=" << r->a << " b=" << r->b;
  };
  const std::size_t points = pk::CrashSimulator(cfg).run(setup, scenario,
                                                         verify);
  EXPECT_GT(points, 4u);
}

// Gap-only snapshotting (one add_range may publish several entries under
// one fence, and covered bytes are never re-logged): atomicity must hold at
// every crash point of a transaction built from overlapping ranges.
TEST_P(CrashPolicyTest, OverlappingSnapshotsStayAtomic) {
  auto cfg = config_for("tx-overlap", GetParam(), 17);
  struct WideRoot {
    std::uint64_t v[8];
  };
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<WideRoot>());
    for (int i = 0; i < 8; ++i) r->v[i] = 10 + i;
    p.persist(r, sizeof(WideRoot));
  };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<WideRoot>());
    p.run_tx([&] {
      p.tx_add_range(&r->v[0], 16);  // [0, 2)
      r->v[0] = 100;
      p.tx_add_range(&r->v[1], 24);  // [1, 4): logs only [2, 4)
      r->v[1] = 101;
      r->v[3] = 103;
      p.tx_add_range(&r->v[5], 8);   // island [5, 6)
      r->v[5] = 105;
      p.tx_add_range(r->v, sizeof(r->v));  // bridges gaps [4,5) + [6,8)
      for (int i = 0; i < 8; ++i) r->v[i] = 100 + i;
    });
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<WideRoot>());
    const bool pre = r->v[0] == 10;
    for (std::uint64_t i = 0; i < 8; ++i)
      ASSERT_EQ(r->v[i], (pre ? 10 : 100) + i)
          << "torn overlapping-snapshot tx at i=" << i;
  };
  const std::size_t points =
      pk::CrashSimulator(cfg).run(setup, scenario, verify);
  EXPECT_GT(points, 8u);
}

// POBJ_ALLOC semantics: the object and the destination oid appear together.
TEST_P(CrashPolicyTest, AtomicAllocPublishesAllOrNothing) {
  auto cfg = config_for("alloc-publish", GetParam(), 23);
  const auto setup = [](pk::ObjectPool& p) { (void)p.root<Root>(); };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    const pk::ObjId oid = p.alloc_atomic(512, 7, &r->obj);
    std::memset(p.direct(oid), 0xAB, 512);
    p.persist(p.direct(oid), 512);
    r->len = 512;
    p.persist(&r->len, 8);
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    if (r->obj.is_null()) {
      // Not published: no leaked object may exist.
      ASSERT_TRUE(p.first(7).is_null()) << "leaked allocation";
    } else {
      // Published: the oid must point at a live object of the right type.
      ASSERT_EQ(p.type_of(r->obj), 7u);
      ASSERT_GE(p.usable_size(r->obj), 512u);
    }
  };
  pk::CrashSimulator(cfg).run(setup, scenario, verify);
}

// An atomic allocation that takes a fresh chunk, cut at every point.  Once
// its redo log is published, recovery replays it and the chunk becomes a
// run; the heap's transient free-chunk map must be built from that
// replayed image, or the next allocation of another class claims the chunk
// again and re-formats its run header under the recovered object.  The
// verify step also holds the recovered pool's counter-based stats to the
// census the object walk produces.
TEST_P(CrashPolicyTest, RecoveredFreshRunIsNotClaimedAgain) {
  auto cfg = config_for("fresh-run", GetParam(), 29);
  const auto setup = [](pk::ObjectPool& p) { (void)p.root<Root>(); };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    (void)p.alloc_atomic(512, 7, &r->obj);
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    for (int i = 0; i < 4; ++i) (void)p.alloc_atomic(4000, 8);
    if (!r->obj.is_null()) {
      ASSERT_EQ(p.type_of(r->obj), 7u) << "recovered object was lost";
      ASSERT_GE(p.usable_size(r->obj), 512u);
    }
    const pk::PoolReport report = pk::inspect(p);
    ASSERT_TRUE(report.consistent) << pk::to_text(report);
    std::uint64_t objects = 0, live = 0;
    for (const pk::TypeCensusRow& row : report.census) {
      objects += row.objects;
      live += row.usable_bytes + row.objects * sizeof(pk::AllocHeader);
    }
    ASSERT_EQ(report.heap.object_count, objects);
    ASSERT_EQ(report.heap.live_bytes, live);
  };
  const std::size_t points =
      pk::CrashSimulator(cfg).run(setup, scenario, verify);
  EXPECT_GT(points, 3u);
}

// POBJ_FREE semantics: free + null-the-oid happen together.
TEST_P(CrashPolicyTest, AtomicFreeUnpublishesAllOrNothing) {
  auto cfg = config_for("free-unpublish", GetParam(), 37);
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    (void)p.alloc_atomic(256, 9, &r->obj);
  };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    p.free_atomic(&r->obj);
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    if (r->obj.is_null()) {
      ASSERT_TRUE(p.first(9).is_null()) << "freed object still reachable";
    } else {
      ASSERT_EQ(p.type_of(r->obj), 9u) << "dangling oid after crash";
    }
  };
  pk::CrashSimulator(cfg).run(setup, scenario, verify);
}

// Transactional alloc + free + data update in one tx.
TEST_P(CrashPolicyTest, ComposedTransactionAtomicity) {
  auto cfg = config_for("composed", GetParam(), 41);
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    const pk::ObjId old = p.alloc_atomic(128, 5, &r->obj);
    std::memset(p.direct(old), 0x01, 128);
    p.persist(p.direct(old), 128);
    r->len = 128;
    r->a = 1;
    p.persist(r, sizeof(Root));
  };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    p.run_tx([&] {
      // Replace the object with a bigger one, transactionally.
      const pk::ObjId fresh = p.tx_alloc(256, 5);
      // No explicit persist: tx_alloc registers the block as a fresh range
      // and commit flushes it before the record publishes.
      std::memset(p.direct(fresh), 0x02, 256);
      p.tx_free(r->obj);
      p.tx_add_range(r, sizeof(Root));
      r->obj = fresh;
      r->len = 256;
      r->a = 2;
    });
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    // Either the old world or the new world, consistently.
    ASSERT_TRUE(r->a == 1 || r->a == 2);
    const std::uint64_t expect_len = r->a == 1 ? 128 : 256;
    const int expect_fill = r->a == 1 ? 0x01 : 0x02;
    ASSERT_EQ(r->len, expect_len);
    ASSERT_FALSE(r->obj.is_null());
    ASSERT_GE(p.usable_size(r->obj), expect_len);
    const auto* data = static_cast<const std::uint8_t*>(p.direct(r->obj));
    for (std::uint64_t i = 0; i < expect_len; i += 17)
      ASSERT_EQ(data[i], expect_fill);
    // Exactly one live object of type 5 in either world.
    int count = 0;
    for (pk::ObjId o = p.first(5); !o.is_null(); o = p.next(o, 5)) ++count;
    ASSERT_EQ(count, 1) << "leak or lost object";
  };
  const std::size_t points =
      pk::CrashSimulator(cfg).run(setup, scenario, verify);
  EXPECT_GT(points, 10u);
}

// Unflushed user data must not be trusted: a store without persist() is
// allowed to vanish — the framework's DropUnflushed policy enforces the
// discipline.
TEST(CrashSim, UnpersistedUserDataVanishes) {
  auto cfg = config_for("vanish", pk::CrashPolicy::DropUnflushed, 3);
  const auto setup = [](pk::ObjectPool& p) { (void)p.root<Root>(); };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    r->a = 0xBAD;     // no persist on purpose
    p.persist(&r->b, 8);  // unrelated persist creates a crash point
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    ASSERT_EQ(r->a, 0u) << "unflushed store survived under strict policy";
  };
  pk::CrashSimulator(cfg).run(setup, scenario, verify);
}

// eADR (battery covers the caches): the same scenario as above, but every
// store survives — and transactional atomicity STILL holds, because the
// undo protocol never depends on losing data, only on ordering.
TEST(CrashSim, EadrKeepsUnflushedStoresAndPreservesAtomicity) {
  auto cfg = config_for("eadr", pk::CrashPolicy::EadrEverythingSurvives, 5);
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    r->a = 1;
    r->b = 2;
    p.persist(r, sizeof(Root));
  };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    r->len = 0xBAD;  // deliberately never flushed
    p.persist(&r->obj, sizeof(r->obj));  // unrelated crash point
    p.run_tx([&] {
      p.tx_add_range(&r->a, 16);
      r->a = 100;
      r->b = 200;
    });
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    // Under eADR the unflushed store is durable at every crash point past
    // its execution; atomicity of the tx is unaffected.
    const bool pre = r->a == 1 && r->b == 2;
    const bool post = r->a == 100 && r->b == 200;
    ASSERT_TRUE(pre || post) << "torn tx under eADR";
    if (post) ASSERT_EQ(r->len, 0xBADu) << "eADR lost an executed store";
  };
  pk::CrashSimulator(cfg).run(setup, scenario, verify);
}

TEST(CrashSim, CountsAreStableAcrossPolicies) {
  // Both policies see the same instrumentation points.
  const auto setup = [](pk::ObjectPool& p) { (void)p.root<Root>(); };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    p.run_tx([&] {
      p.tx_add_range(&r->a, 8);
      r->a = 9;
    });
  };
  const auto verify = [](pk::ObjectPool&) {};
  auto cfg1 = config_for("count-a", pk::CrashPolicy::DropUnflushed, 1);
  auto cfg2 = config_for("count-b", pk::CrashPolicy::RandomEvict, 1);
  EXPECT_EQ(pk::CrashSimulator(cfg1).run(setup, scenario, verify),
            pk::CrashSimulator(cfg2).run(setup, scenario, verify));
}

// --- multi-threaded crash consistency ---------------------------------------
//
// N threads drive mixed tx/atomic workloads through distinct lanes; a
// thread-safe hook turns every crash point past a global trip count into a
// power cut, so each lane stops at one of ITS persistence points with
// several lanes in flight at once.  Reopen must recover every lane and
// leave the heap internally consistent.
TEST(CrashSimMT, MixedWorkloadAcrossLanesRecoversConsistently) {
  constexpr int kThreads = 4;
  struct MtRoot {
    pk::ObjId slot[kThreads];
    std::uint64_t val[kThreads];
  };
  const fs::path path = fs::temp_directory_path() /
                        ("crash-mt-" + std::to_string(::getpid()));

  for (const std::uint64_t trip : {40ull, 97ull, 230ull, 555ull}) {
    fs::remove(path);
    pk::PoolOptions opts;
    opts.pmemcheck = true;
    auto pool = pk::ObjectPool::create(path, "mt", 64ull << 20, opts);
    (void)pool->direct(pool->root<MtRoot>());

    // Install AFTER setup so the trip count only meters the workload.
    std::atomic<std::uint64_t> points{0};
    pk::set_crash_hook([&points, trip](std::string_view pt) {
      if (points.fetch_add(1, std::memory_order_relaxed) >= trip)
        throw pk::CrashInjected{std::string(pt)};
    });

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&pool, &points, trip, t] {
        auto* r = pool->direct(pool->root<MtRoot>());
        try {
          for (std::uint64_t i = 1; points.load() <= trip; ++i) {
            // Transactional publish: slot[t]/val[t] swap to a fresh object
            // whose payload encodes (t, i); the old object dies at commit.
            pool->run_tx([&] {
              const pk::ObjId fresh = pool->tx_alloc(128, 10 + t);
              auto* d = static_cast<std::uint64_t*>(pool->direct(fresh));
              d[0] = static_cast<std::uint64_t>(t);
              d[1] = i;
              // No explicit persist: the fresh range is flushed by commit
              // before the record publishes, so the payload is durable
              // whenever the commit is.
              pool->tx_add_range(&r->slot[t], sizeof(r->slot[t]));
              pool->tx_add_range(&r->val[t], sizeof(r->val[t]));
              if (!r->slot[t].is_null()) pool->tx_free(r->slot[t]);
              r->slot[t] = fresh;
              r->val[t] = i;
            });
            // Atomic churn on a per-thread side type.
            const pk::ObjId tmp = pool->alloc_atomic(64, 50 + t);
            pool->free_atomic(tmp);
          }
        } catch (const pk::CrashInjected&) {
          // This lane's power cut: stop dead, no cleanup.
        }
      });
    }
    for (auto& w : workers) w.join();
    pk::set_crash_hook({});
    ASSERT_GT(points.load(), trip) << "workload never reached the trip";

    pool->mark_crashed();
    const std::vector<std::byte> image =
        pool->pmemsan()->crash_image(pk::CrashPolicy::DropUnflushed, trip);
    pool.reset();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out);
      out.write(reinterpret_cast<const char*>(image.data()),
                static_cast<std::streamsize>(image.size()));
      ASSERT_TRUE(out);
    }

    auto re = pk::ObjectPool::open(path, "mt");
    auto* r = re->direct(re->root<MtRoot>());
    for (int t = 0; t < kThreads; ++t) {
      // Per-lane atomicity: slot and val moved together, and exactly the
      // published object of this type is live (no leak, no lost object).
      int live = 0;
      for (pk::ObjId o = re->first(10 + t); !o.is_null();
           o = re->next(o, 10 + t))
        ++live;
      if (r->slot[t].is_null()) {
        EXPECT_EQ(r->val[t], 0u) << "t=" << t;
        EXPECT_EQ(live, 0) << "t=" << t;
      } else {
        ASSERT_EQ(live, 1) << "t=" << t << ": leak or lost object";
        ASSERT_EQ(re->type_of(r->slot[t]), 10u + t);
        const auto* d =
            static_cast<const std::uint64_t*>(re->direct(r->slot[t]));
        EXPECT_EQ(d[0], static_cast<std::uint64_t>(t));
        EXPECT_EQ(d[1], r->val[t]) << "t=" << t << ": torn slot/val pair";
      }
      // Atomic churn: at most the one in-flight object may survive
      // (alloc_atomic without a destination is unreachable by design).
      int churn = 0;
      for (pk::ObjId o = re->first(50 + t); !o.is_null();
           o = re->next(o, 50 + t))
        ++churn;
      EXPECT_LE(churn, 1) << "t=" << t;
    }
    // Heap-wide structural consistency, via the same validation rebuild()
    // runs plus the introspection walker.
    const pk::PoolReport report = pk::inspect(*re);
    EXPECT_TRUE(report.consistent) << [&] {
      std::string all;
      for (const auto& p : report.problems) all += p + "; ";
      return all;
    }();
    EXPECT_TRUE(report.busy_lanes.empty())
        << "recovery left a lane non-idle";
    re.reset();
    fs::remove(path);
  }
}

// Two lanes in flight at the power cut, ordered deterministically: lane 63
// holds a published, applied, unretired redo log for a run's bitmap word;
// lane 62 holds a committed transaction whose deferred free targets an
// older block of the same word.  Recovery must replay the redo log before
// running the deferred free — the other way round, the stale log re-sets
// the freed block's bit under a dead header (a leaked block).
TEST(CrashSimMT, StaleRedoLogCannotResurrectAFreedBlock) {
  const fs::path path = fs::temp_directory_path() /
                        ("crash-redo-order-" + std::to_string(::getpid()));
  fs::remove(path);
  pk::PoolOptions opts;
  opts.pmemcheck = true;
  auto pool = pk::ObjectPool::create(path, "order", 8ull << 20, opts);
  const pk::ObjId old_obj = pool->alloc_atomic(128, 1);

  const auto crash_at = [](std::string_view point) {
    pk::set_crash_hook([point](std::string_view pt) {
      if (pt == point) throw pk::CrashInjected{std::string(pt)};
    });
  };
  pk::ObjId fresh;
  {
    // Pins the first lane handed out (63) past its owner's power cut.
    const pk::ObjectPool::LaneSession pinned(*pool);
    // The premise: recovery visits the other thread's lane first.
    ASSERT_EQ(pinned.lane(), pk::kLaneCount - 1);
    crash_at("redo:applied");
    EXPECT_THROW((void)pool->alloc_atomic(128, 2, &fresh),
                 pk::CrashInjected);
    std::thread other([&] {
      crash_at("tx:committed");
      EXPECT_THROW(pool->run_tx([&] { pool->tx_free(old_obj); }),
                   pk::CrashInjected);
    });
    other.join();
    pk::set_crash_hook({});
    pool->mark_crashed();
  }
  const std::vector<std::byte> image =
      pool->pmemsan()->crash_image(pk::CrashPolicy::DropUnflushed);
  pool.reset();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    ASSERT_TRUE(out);
  }

  auto re = pk::ObjectPool::open(path, "order");
  const pk::PoolReport report = pk::inspect(*re);
  EXPECT_TRUE(report.consistent) << [&] {
    std::string all;
    for (const auto& p : report.problems) all += p + "; ";
    return all;
  }();
  EXPECT_TRUE(re->first(1).is_null()) << "the committed free was lost";
  EXPECT_FALSE(re->first(2).is_null()) << "the published alloc was lost";
  re.reset();
  fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Policies, CrashPolicyTest,
                         ::testing::Values(pk::CrashPolicy::DropUnflushed,
                                           pk::CrashPolicy::RandomEvict),
                         [](const auto& info) {
                           return info.param ==
                                          pk::CrashPolicy::DropUnflushed
                                      ? "DropUnflushed"
                                      : "RandomEvict";
                         });

}  // namespace
