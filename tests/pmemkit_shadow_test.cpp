// Tests for the crash images of the persistence-domain model (PmemSan) —
// the crash-consistency oracle — including its per-thread fence semantics.
#include <gtest/gtest.h>

#include <barrier>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "pmemkit/pmemsan.hpp"

namespace pk = cxlpmem::pmemkit;

namespace {

class ShadowTest : public ::testing::Test {
 protected:
  ShadowTest()
      : live(1024, std::byte{0}),
        model(live.data(), live.size(), "model"),
        sink(std::make_shared<pk::CountSink>()) {
    model.set_sink(sink);
  }

  void store(std::size_t off, std::uint8_t value, std::size_t len = 1,
             pk::PmemSan::StoreOrigin origin =
                 pk::PmemSan::StoreOrigin::Infra) {
    std::memset(live.data() + off, value, len);
    model.on_store(off, len, origin);
  }

  std::vector<std::byte> live;
  pk::PmemSan model;
  std::shared_ptr<pk::CountSink> sink;
};

TEST_F(ShadowTest, UnflushedStoreIsLostUnderStrictPolicy) {
  store(0, 0xAA);
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0});
}

TEST_F(ShadowTest, FlushWithoutFenceIsStillLost) {
  store(0, 0xAA);
  model.on_flush(0, 1);
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0});
}

TEST_F(ShadowTest, FlushPlusFencePersists) {
  store(0, 0xAA);
  model.on_flush(0, 1);
  model.on_fence();
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0xAA});
  EXPECT_EQ(model.dirty_lines(), 0u);
}

TEST_F(ShadowTest, FenceOnlyCommitsFlushedLines) {
  store(0, 0xAA);
  store(128, 0xBB);  // a different line
  model.on_flush(0, 1);
  model.on_fence();
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0xAA});
  EXPECT_EQ(img[128], std::byte{0});
  EXPECT_EQ(model.dirty_lines(), 1u);
}

TEST_F(ShadowTest, FlushCoversWholeLines) {
  // A store at offset 10 and a flush at offset 60 share the line [0, 64):
  // flushing any byte of the line flushes the line.
  store(10, 0xCC);
  model.on_flush(60, 1);
  model.on_fence();
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[10], std::byte{0xCC});
}

TEST_F(ShadowTest, MultiLineRangeFlush) {
  store(0, 0xDD, 256);  // four lines
  model.on_flush(0, 256);
  model.on_fence();
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(img[i], std::byte{0xDD});
}

TEST_F(ShadowTest, RandomEvictIsSeedDeterministic) {
  store(0, 0xEE, 512);
  const auto a = model.crash_image(pk::CrashPolicy::RandomEvict, 7);
  const auto b = model.crash_image(pk::CrashPolicy::RandomEvict, 7);
  EXPECT_EQ(a, b);
}

TEST_F(ShadowTest, RandomEvictMayKeepSomeDirtyLines) {
  store(0, 0xEE, 1024);  // 16 dirty lines
  const auto img = model.crash_image(pk::CrashPolicy::RandomEvict, 1);
  int evicted = 0, dropped = 0;
  for (std::size_t line = 0; line < 16; ++line) {
    if (img[line * 64] == std::byte{0xEE})
      ++evicted;
    else
      ++dropped;
  }
  // With 16 lines and a fair coin, both outcomes occur for seed 1.
  EXPECT_GT(evicted, 0);
  EXPECT_GT(dropped, 0);
}

TEST_F(ShadowTest, StoreAfterFenceDirtiesAgain) {
  store(0, 0x11);
  model.on_flush(0, 1);
  model.on_fence();
  store(0, 0x22);
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0x11});  // the fenced value, not the new one
}

TEST_F(ShadowTest, ZeroLengthOpsAreNoops) {
  model.on_store(0, 0, pk::PmemSan::StoreOrigin::Infra);
  model.on_flush(0, 0);
  model.on_fence();
  EXPECT_EQ(model.dirty_lines(), 0u);
  EXPECT_EQ(model.pending_lines(), 0u);
  EXPECT_EQ(sink->total(), 0u);
}

// --- flush snapshots --------------------------------------------------------

TEST_F(ShadowTest, FenceWritesBackTheFlushedSnapshotNotLaterStores) {
  // CLWB guarantees the bytes the line held when it was flushed; a store
  // after the flush rides no write-back until someone flushes it.
  store(0, 0x11);
  model.on_flush(0, 1);
  store(8, 0x22);  // same line, after the flush
  model.on_fence();
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0x11});
  EXPECT_EQ(img[8], std::byte{0});
  EXPECT_EQ(model.dirty_lines(), 1u);  // the second store is still owed
  model.on_flush(8, 1);
  model.on_fence();
  EXPECT_EQ(model.crash_image(pk::CrashPolicy::DropUnflushed)[8],
            std::byte{0x22});
  EXPECT_EQ(sink->total(), 0u);
}

// --- per-thread fences ------------------------------------------------------

/// Runs step i of `a` on thread A and step i of `b` on thread B in lockstep:
/// both threads finish step i before either starts step i+1.  An empty
/// step does nothing, so each step gives one thread the floor.
using Steps = std::vector<std::function<void()>>;
void lockstep(const Steps& a, const Steps& b) {
  ASSERT_EQ(a.size(), b.size());
  std::barrier sync(2);
  const auto run = [&sync](const Steps& steps) {
    for (const auto& step : steps) {
      if (step) step();
      sync.arrive_and_wait();
    }
  };
  std::thread ta(run, std::cref(a));
  std::thread tb(run, std::cref(b));
  ta.join();
  tb.join();
}

TEST_F(ShadowTest, FenceDoesNotPublishAnotherThreadsPendingFlush) {
  std::vector<std::byte> after_a_fence;
  std::size_t pending_after_a = 0;
  lockstep(
      {
          nullptr,
          [&] {
            store(0, 0xAA);
            model.on_flush(0, 1);
            model.on_fence();  // A's SFENCE orders A's flushes only
            after_a_fence = model.crash_image(pk::CrashPolicy::DropUnflushed);
            pending_after_a = model.pending_lines();
          },
          nullptr,
      },
      {
          [&] {
            store(128, 0xBB);
            model.on_flush(128, 1);
          },
          nullptr,
          [&] { model.on_fence(); },
      });
  EXPECT_EQ(after_a_fence[0], std::byte{0xAA});
  EXPECT_EQ(after_a_fence[128], std::byte{0}) << "A's fence published B";
  EXPECT_EQ(pending_after_a, 1u);
  EXPECT_EQ(model.crash_image(pk::CrashPolicy::DropUnflushed)[128],
            std::byte{0xBB});
  EXPECT_EQ(model.dirty_lines(), 0u);
  EXPECT_EQ(sink->total(), 0u);
}

TEST_F(ShadowTest, LateFlushOfLineAnotherThreadFencedIsNotRedundant) {
  // B stores its bytes of a shared line; A stores its own bytes of the
  // same line and persists the line — which writes B's bytes back too.
  // B's own persist afterwards is late, not wasted: B could not know.
  std::uint64_t r3_after_b = 0;
  lockstep(
      {
          nullptr,
          [&] {
            store(8, 0xA1, 8);
            model.on_flush(8, 8);
            model.on_fence();
          },
          nullptr,
          nullptr,
      },
      {
          [&] { store(0, 0xB1, 8); },
          nullptr,
          [&] {
            model.on_flush(0, 8);
            model.on_fence();
            r3_after_b = sink->count(pk::SanRule::RedundantFlush);
          },
          [&] {
            // A second flush with no store in between IS B's own waste.
            model.on_flush(0, 8);
          },
      });
  EXPECT_EQ(r3_after_b, 0u);
  EXPECT_EQ(sink->count(pk::SanRule::RedundantFlush), 1u);
  EXPECT_EQ(sink->total(), 1u);
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0xB1});
  EXPECT_EQ(img[8], std::byte{0xA1});
}

TEST_F(ShadowTest, ForeignStoreToFlushedLineDoesNotFailCommit) {
  // B's transaction covers [0, 8), stores and flushes it; A then stores
  // its own bytes on the same line before B fences.  B's snapshot still
  // carries B's bytes to the media, so B's commit record is sound (R2
  // clean); A's store stays owed by A.
  constexpr std::uint32_t kLane = 3;
  lockstep(
      {
          nullptr,
          [&] { store(16, 0xA2, 8); },
          nullptr,
      },
      {
          [&] {
            model.tx_begin(kLane);
            model.tx_cover(kLane, 0, 8);
            store(0, 0xB2, 8, pk::PmemSan::StoreOrigin::User);
            model.on_flush(0, 8);
          },
          nullptr,
          [&] {
            model.on_fence();
            model.tx_commit_publish(kLane);
            model.tx_end(kLane);
          },
      });
  EXPECT_EQ(sink->count(pk::SanRule::UnflushedCommit), 0u);
  EXPECT_EQ(sink->total(), 0u);
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0xB2});
  EXPECT_EQ(img[16], std::byte{0});
  EXPECT_EQ(model.dirty_lines(), 1u);
}

}  // namespace
