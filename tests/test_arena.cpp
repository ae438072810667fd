// Tests of the per-network memory arena (common/arena.hpp): alignment,
// the huge-page chunk rule, block reuse, flat growth, the network-size
// rule end to end, and that AddressSanitizer still sees inside it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "buffers/input_buffer.hpp"
#include "buffers/packet.hpp"
#include "common/arena.hpp"
#include "common/event_lane.hpp"
#include "sim/config.hpp"
#include "sim/network.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define FLEXNET_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FLEXNET_TEST_ASAN 1
#endif
#endif

namespace flexnet {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

std::uintptr_t addr(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

TEST(Arena, BlocksAreAlignedForPackets) {
  Arena arena;
  std::pmr::vector<Packet> slab(&arena);
  for (int i = 0; i < 100; ++i) {
    slab.emplace_back();
    ASSERT_EQ(addr(slab.data()) % 64, 0u) << "size " << slab.size();
  }
  // Small blocks keep 16-byte alignment; odd request alignments hold.
  void* small = arena.allocate(24, 8);
  EXPECT_EQ(addr(small) % 16, 0u);
  void* wide = arena.allocate(512, 256);
  EXPECT_EQ(addr(wide) % 256, 0u);
  arena.deallocate(wide, 512, 256);
  arena.deallocate(small, 24, 8);
}

TEST(Arena, AdvisedChunksAreHugePageAligned) {
  Arena arena;
  void* big = arena.allocate(3 * kMiB);
  ASSERT_GE(arena.advised_chunks(), 1u);
  for (const Arena::Chunk& c : arena.chunks()) {
    EXPECT_EQ(c.advised, c.size >= Arena::kHugePage);
    if (!c.advised) continue;
    EXPECT_EQ(addr(c.base) % Arena::kHugePage, 0u);
    EXPECT_EQ(c.size % Arena::kHugePage, 0u);
  }
  arena.deallocate(big, 3 * kMiB);
}

TEST(Arena, FreedBlockComesBackForItsSize) {
  Arena arena;
  void* a = arena.allocate(256);
  void* b = arena.allocate(256);
  void* c = arena.allocate(256);
  arena.deallocate(b, 256);
  EXPECT_EQ(arena.allocate(256), b);
  // Sizes that round to the same block reuse it too.
  arena.deallocate(b, 256);
  EXPECT_EQ(arena.allocate(200), b);
  EXPECT_EQ(arena.used_bytes(), 3 * Arena::block_size(256));
  arena.deallocate(a, 256);
  arena.deallocate(b, 200);
  arena.deallocate(c, 256);
  EXPECT_EQ(arena.used_bytes(), 0u);
}

TEST(Arena, NeighbouringFreesCoalesceForLargerRequests) {
  // A wave of doublings frees side-by-side blocks; together they must
  // hold the next wave's larger block without new OS memory.
  Arena arena;
  std::vector<void*> wave;
  for (int i = 0; i < 64; ++i) wave.push_back(arena.allocate(1024));
  // Leave the bump region too small for the larger block.
  void* filler = arena.allocate(120 * 1024);
  const std::size_t os = arena.os_bytes();
  for (void* p : wave) arena.deallocate(p, 1024);
  void* merged = arena.allocate(32 * 1024);
  EXPECT_EQ(arena.os_bytes(), os);
  arena.deallocate(merged, 32 * 1024);
  arena.deallocate(filler, 120 * 1024);
  EXPECT_EQ(arena.used_bytes(), 0u);
}

struct Flying {
  std::int32_t ref;
  std::int32_t vc;
  Cycle arrive;
};

TEST(Arena, GrowClearRoundsKeepOsBytesFlat) {
  Arena arena;
  const auto round = [&arena](int n) {
    EventLane<Flying> lane(&arena);
    InputBuffer buf(std::allocator_arg, &arena, 3, 1 << 20);
    for (int i = 0; i < n; ++i) {
      lane.push_back(Flying{i, i % 3, i});
      buf.push(i % 3, i, 1);
    }
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(lane.front().ref, i);
      lane.pop_front();
      ASSERT_EQ(buf.pop(i % 3).ref, i);
    }
    lane.clear();
  };
  round(600);
  const std::size_t os = arena.os_bytes();
  ASSERT_GT(os, 0u);
  for (int r = 0; r < 10000; ++r) round(600);
  EXPECT_EQ(arena.os_bytes(), os);
  EXPECT_EQ(arena.used_bytes(), 0u);
}

TEST(Arena, SmallArenaAdvisesNothing) {
  Arena arena;
  std::vector<void*> blocks;
  for (int i = 0; i < 1500; ++i) blocks.push_back(arena.allocate(1000));
  EXPECT_LT(arena.os_bytes(), Arena::kHugePage);
  EXPECT_EQ(arena.advised_chunks(), 0u);
  for (void* p : blocks) arena.deallocate(p, 1000);
}

TEST(Arena, ChunkRuleFollowsNetworkSize) {
  // The smoke network every CI suite runs stays on base pages...
  const Network smoke{SimConfig{}};
  EXPECT_LT(smoke.arena().os_bytes(), Arena::kHugePage);
  EXPECT_EQ(smoke.arena().advised_chunks(), 0u);
  EXPECT_GT(smoke.arena().used_bytes(), 0u);
  // ...while a 264-router Dragonfly(4,8,4) crosses into advised chunks.
  SimConfig mid;
  mid.dragonfly = DragonflyParams{4, 8, 4};
  const Network net(mid);
  EXPECT_GT(net.arena().advised_chunks(), 0u);
}

TEST(Arena, EveryFlowControlAndBufferOrgDrawsFromTheArena) {
  for (const char* flow_control : {"packet", "wormhole", "vct"}) {
    for (const char* buffer_org : {"static", "damq"}) {
      SimConfig cfg;
      cfg.flow_control = flow_control;
      cfg.buffer_org = buffer_org;
      const Network net(cfg);
      EXPECT_GT(net.arena().os_bytes(), 0u)
          << flow_control << " / " << buffer_org;
    }
  }
}

TEST(Arena, EventLaneGrowthKeepsFifoOrderOnEitherResource) {
  Arena arena;
  for (std::pmr::memory_resource* mr :
       {std::pmr::get_default_resource(),
        static_cast<std::pmr::memory_resource*>(&arena)}) {
    EventLane<Flying> lane(mr);
    int next_in = 0;
    int next_out = 0;
    // Wrap the ring, then grow it from a wrapped head through several
    // doublings, popping as we go.
    for (int step = 0; step < 5000; ++step) {
      lane.push_back(Flying{next_in, 0, next_in});
      ++next_in;
      if (step % 3 == 0) {
        ASSERT_EQ(lane.front().ref, next_out);
        lane.pop_front();
        ++next_out;
      }
    }
    EXPECT_EQ(lane.size(), static_cast<std::size_t>(next_in - next_out));
    for (std::size_t i = 0; i < lane.size(); ++i)
      ASSERT_EQ(lane.at(i).ref, next_out + static_cast<int>(i));
  }
}

// The arena poisons every byte it has not handed out, so ASan keeps
// reporting inside engine containers. Death tests: each statement must
// die with an AddressSanitizer report.
TEST(ArenaAsanDeathTest, OverflowAndUseAfterFreeStillReport) {
#ifndef FLEXNET_TEST_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build (the asan preset)";
#else
  EXPECT_DEATH(
      {
        Arena arena;
        std::pmr::vector<std::int32_t> v(5, 0, &arena);
        volatile std::int32_t past = v.data()[5];  // one slot past the block
        (void)past;
      },
      "AddressSanitizer");
  EXPECT_DEATH(
      {
        Arena arena;
        auto* p = static_cast<std::int32_t*>(arena.allocate(64));
        arena.deallocate(p, 64);
        volatile std::int32_t freed = p[0];  // read after free
        (void)freed;
      },
      "AddressSanitizer");
#endif
}

}  // namespace
}  // namespace flexnet
