// Tests for the sharded LRU point-pair distance cache
// (src/index/distance_cache.*): LRU semantics and eviction, the
// zero-capacity off switch, and value consistency under a concurrent
// hammer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "index/distance_cache.h"

namespace netclus {
namespace {

TEST(DistanceCacheTest, LruSemanticsAndEviction) {
  DistanceCache cache(4, 1);  // one shard: deterministic LRU order
  double d = 0.0;
  EXPECT_FALSE(cache.Lookup(1, 2, &d));
  cache.Store(1, 2, 1.5);
  cache.Store(2, 1, 2.5);  // same unordered pair: refresh, not insert
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.Lookup(2, 1, &d));
  EXPECT_EQ(d, 2.5);

  cache.Store(3, 4, 3.0);
  cache.Store(5, 6, 4.0);
  cache.Store(7, 8, 5.0);
  EXPECT_EQ(cache.size(), 4u);
  ASSERT_TRUE(cache.Lookup(1, 2, &d));  // refresh {1,2}: now {3,4} is LRU
  cache.Store(9, 10, 6.0);              // evicts {3,4}
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.Lookup(3, 4, &d));
  EXPECT_TRUE(cache.Lookup(1, 2, &d));

  DistanceCache::Counters c = cache.counters();
  EXPECT_EQ(c.stores, 6u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_GE(c.hits, 3u);
  EXPECT_GE(c.misses, 2u);
}

TEST(DistanceCacheTest, ZeroCapacityDropsEverything) {
  DistanceCache cache(0);
  cache.Store(1, 2, 1.0);
  double d = 0.0;
  EXPECT_FALSE(cache.Lookup(1, 2, &d));
  EXPECT_EQ(cache.size(), 0u);
}

// Matched by the tsan suite filter (run_all.sh tsan): concurrent writers,
// readers, and counter aggregators on a small cache force constant shard
// contention and eviction races.
TEST(DistanceCacheTest, ConcurrentHammerKeepsValuesConsistent) {
  DistanceCache cache(128, 4);
  std::atomic<bool> bad_value{false};
  auto value_for = [](PointId a, PointId b) {
    return static_cast<double>(a < b ? a : b) * 1000.0 +
           static_cast<double>(a < b ? b : a);
  };
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < 20000; ++i) {
        PointId a = static_cast<PointId>(rng.NextBounded(300));
        PointId b = static_cast<PointId>(rng.NextBounded(300));
        switch (i % 4) {
          case 0:
          case 1:
            cache.Store(a, b, value_for(a, b));
            break;
          case 2: {
            double d = 0.0;
            if (cache.Lookup(a, b, &d) && d != value_for(a, b)) {
              bad_value.store(true);
            }
            break;
          }
          default:
            if (i % 4096 == 3) (void)cache.counters();
            break;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_FALSE(bad_value.load());
  EXPECT_LE(cache.size(), cache.capacity());
}

}  // namespace
}  // namespace netclus
