// Unit tests for the hot-path containers behind the city-scale sparse
// state: the open-addressed FlatMap (per-link stats, MAC dup table) and
// the power-of-two RingQueue (MAC send queue).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/net/topology.h"
#include "src/util/flat_map.h"
#include "src/util/ring_queue.h"
#include "src/util/rng.h"

namespace essat::util {
namespace {

TEST(FlatMap, StartsEmptyWithNoHeap) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity_bytes(), 0u);
  EXPECT_EQ(m.find(42), nullptr);
}

TEST(FlatMap, BracketDefaultConstructsOnFirstAccess) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_EQ(m[7], 0);
  m[7] = 3;
  EXPECT_EQ(m[7], 3);
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 3);
  EXPECT_EQ(m.find(8), nullptr);
}

TEST(FlatMap, MatchesStdMapUnderRandomChurn) {
  FlatMap<std::uint32_t, std::uint64_t> m;
  std::map<std::uint32_t, std::uint64_t> ref;
  Rng rng{1234};
  // Enough keys to force several grows through the 7/8 load ceiling;
  // repeated keys exercise the found-existing probe path.
  for (int i = 0; i < 20000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.uniform_int(0, 4999));
    m[key] += key + 1;
    ref[key] += key + 1;
  }
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.find(k), nullptr) << "lost key " << k;
    EXPECT_EQ(*m.find(k), v) << "wrong value for key " << k;
  }
  // for_each visits every pair exactly once.
  std::map<std::uint32_t, std::uint64_t> seen;
  m.for_each([&seen](std::uint32_t k, std::uint64_t v) { seen[k] = v; });
  EXPECT_EQ(seen, ref);
}

TEST(FlatMap, AdjacentPackedKeysAllResolve) {
  // The channel packs (src,dst) as src<<32|dst: consecutive destinations
  // differ only in low bits. The multiplicative scatter must still keep
  // them distinct and findable.
  FlatMap<std::uint64_t, int> m;
  const std::uint64_t src = std::uint64_t{17} << 32;
  for (std::uint64_t d = 0; d < 512; ++d) m[src | d] = static_cast<int>(d);
  EXPECT_EQ(m.size(), 512u);
  for (std::uint64_t d = 0; d < 512; ++d) {
    ASSERT_NE(m.find(src | d), nullptr);
    EXPECT_EQ(*m.find(src | d), static_cast<int>(d));
  }
}

// The channel's sparse link statistics key a directed link as
// src << 32 | dst. Take every in-range link of a 120-node grid (11 columns
// 50 m apart, 125 m range, so a node hears up to 20 others). The home slot
// is the high bits of key x phi, so the 1 942 links spread over 1 764 of
// the 4 096 slots, at most 3 on one. The low bits of the product depend on
// dst alone: they would give 120 home slots with up to 20 links each.
TEST(FlatMap, PackedLinkKeysSpreadOverHomeSlots) {
  const net::Topology grid = net::Topology::grid_area(120, 500.0, 125.0);
  FlatMap<std::uint64_t, int> m;
  std::vector<std::uint64_t> keys;
  for (net::NodeId src = 0; src < 120; ++src) {
    for (net::NodeId dst : grid.neighbors(src)) {
      keys.push_back(static_cast<std::uint64_t>(src) << 32 |
                     static_cast<std::uint32_t>(dst));
      m[keys.back()] = 1;
    }
  }
  ASSERT_EQ(keys.size(), 1942u);
  ASSERT_EQ(m.size(), keys.size());
  std::map<std::size_t, int> per_slot;
  for (std::uint64_t k : keys) ++per_slot[m.home_slot(k)];
  int most = 0;
  for (const auto& [slot, count] : per_slot) most = std::max(most, count);
  EXPECT_EQ(per_slot.size(), 1764u);
  EXPECT_EQ(most, 3);
}

TEST(FlatMap, CapacityBytesGrowsGeometrically) {
  FlatMap<std::uint32_t, std::uint32_t> m;
  m[1];
  const std::size_t first = m.capacity_bytes();
  EXPECT_GT(first, 0u);
  for (std::uint32_t k = 2; k <= 1000; ++k) m[k];
  // Power-of-two doubling: capacity is a power-of-two multiple of the
  // initial table, and the load stays at or below 7/8.
  EXPECT_GE(m.capacity_bytes(), 1000 * sizeof(std::uint32_t) * 2);
  EXPECT_EQ(m.capacity_bytes() % first, 0u);
}

TEST(RingQueue, FifoOrderAcrossGrowth) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);  // lazy: no heap until first push
  for (int i = 0; i < 100; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(q.pop_front(), i);
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapsWithoutGrowing) {
  RingQueue<int> q;
  for (int i = 0; i < 4; ++i) q.push_back(i);
  const std::size_t cap = q.capacity();
  // Drive head around the ring many times at constant occupancy.
  for (int i = 4; i < 1000; ++i) {
    EXPECT_EQ(q.pop_front(), i - 4);
    q.push_back(i);
  }
  EXPECT_EQ(q.capacity(), cap) << "steady-state churn must not grow the ring";
  EXPECT_EQ(q.front(), 996);
  EXPECT_EQ(q.back(), 999);
}

TEST(RingQueue, IndexingCountsFromTheFront) {
  RingQueue<int> q;
  for (int i = 0; i < 6; ++i) q.push_back(10 * i);
  q.pop_front();
  q.pop_front();
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i], 10 * static_cast<int>(i + 2));
  }
}

TEST(RingQueue, TakeAtPreservesRelativeOrder) {
  // Pull from every position of a 5-element queue, wrapped and unwrapped.
  for (std::size_t victim = 0; victim < 5; ++victim) {
    RingQueue<int> q;
    for (int i = 0; i < 3; ++i) q.push_back(-1);  // rotate the head
    for (int i = 0; i < 3; ++i) (void)q.pop_front();
    for (int i = 0; i < 5; ++i) q.push_back(i);
    EXPECT_EQ(q.take_at(victim), static_cast<int>(victim));
    std::vector<int> rest;
    while (!q.empty()) rest.push_back(q.pop_front());
    std::vector<int> expected;
    for (int i = 0; i < 5; ++i) {
      if (i != static_cast<int>(victim)) expected.push_back(i);
    }
    EXPECT_EQ(rest, expected) << "victim index " << victim;
  }
}

TEST(RingQueue, MoveOnlyElements) {
  RingQueue<std::unique_ptr<std::string>> q;
  for (int i = 0; i < 10; ++i) {
    q.push_back(std::make_unique<std::string>(std::to_string(i)));
  }
  auto taken = q.take_at(4);
  EXPECT_EQ(*taken, "4");
  EXPECT_EQ(*q.pop_front(), "0");
  EXPECT_EQ(*q.back(), "9");
}

}  // namespace
}  // namespace essat::util
