// Unit and property tests for vns::util — RNG determinism and distribution
// sanity, summary statistics, percentiles, CDF/CCDF construction and table
// formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include <unordered_map>
#include <vector>

#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace vns::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a{42}, b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng{11};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng{13};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng{17};
  Summary summary;
  for (int i = 0; i < 100000; ++i) summary.add(rng.normal());
  EXPECT_NEAR(summary.mean(), 0.0, 0.02);
  EXPECT_NEAR(summary.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng{19};
  Summary summary;
  for (int i = 0; i < 100000; ++i) summary.add(rng.exponential(4.0));
  EXPECT_NEAR(summary.mean(), 4.0, 0.1);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng{23};
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, PoissonMeanMatchesSmallAndLarge) {
  Rng rng{29};
  Summary small, large;
  for (int i = 0; i < 50000; ++i) small.add(rng.poisson(3.0));
  for (int i = 0; i < 50000; ++i) large.add(rng.poisson(200.0));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 200.0, 1.0);
}

TEST(Rng, BernoulliEdgesAreDeterministic) {
  Rng rng{31};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyTracksP) {
  Rng rng{37};
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForkByTagProducesIndependentStreams) {
  Rng parent{41};
  Rng loss = parent.fork("loss");
  Rng jitter = parent.fork("jitter");
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (loss() == jitter());
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkByIndexIsDeterministic) {
  Rng parent{43};
  Rng a = parent.fork(std::uint64_t{7});
  Rng b = parent.fork(std::uint64_t{7});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng{47};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 90000; ++i) counts[rng.weighted_index({1.0, 2.0, 6.0})]++;
  EXPECT_NEAR(counts[0] / 90000.0, 1.0 / 9.0, 0.01);
  EXPECT_NEAR(counts[2] / 90000.0, 6.0 / 9.0, 0.01);
}

TEST(Rng, WeightedIndexZeroWeightsFallBackToUniform) {
  Rng rng{53};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) counts[rng.weighted_index({0.0, 0.0})]++;
  EXPECT_GT(counts[0], 3000);
  EXPECT_GT(counts[1], 3000);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng{59};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Summary, KnownValues) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, MergeEqualsCombinedStream) {
  Rng rng{61};
  Summary whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    whole.add(v);
    (i % 2 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Percentiles, MedianAndInterpolation) {
  Percentiles p{{1.0, 2.0, 3.0, 4.0}};
  EXPECT_DOUBLE_EQ(p.median(), 2.5);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.25), 1.75);
}

TEST(Percentiles, FractionQueries) {
  Percentiles p{{1.0, 2.0, 2.0, 3.0}};
  EXPECT_DOUBLE_EQ(p.fraction_at_most(2.0), 0.75);
  EXPECT_DOUBLE_EQ(p.fraction_above(2.0), 0.25);
  EXPECT_DOUBLE_EQ(p.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.fraction_above(10.0), 0.0);
}

TEST(Cdf, MonotoneAndEndsAtOne) {
  auto curve = empirical_cdf({3.0, 1.0, 2.0, 2.0});
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve.front().x, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().y, 1.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].x, curve[i - 1].x);
    EXPECT_GT(curve[i].y, curve[i - 1].y);
  }
}

TEST(Ccdf, ComplementOfCdf) {
  auto cdf = empirical_cdf({1.0, 2.0, 3.0});
  auto ccdf = empirical_ccdf({1.0, 2.0, 3.0});
  ASSERT_EQ(cdf.size(), ccdf.size());
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    EXPECT_DOUBLE_EQ(cdf[i].y + ccdf[i].y, 1.0);
  }
}

TEST(ThinCurve, KeepsEndpointsAndBounds) {
  std::vector<CurvePoint> curve;
  for (int i = 0; i < 1000; ++i) curve.push_back({double(i), double(i) / 999.0});
  auto thin = thin_curve(curve, 10);
  ASSERT_EQ(thin.size(), 10u);
  EXPECT_DOUBLE_EQ(thin.front().x, 0.0);
  EXPECT_DOUBLE_EQ(thin.back().x, 999.0);
}

TEST(ThinCurve, ShortCurvePassesThrough) {
  std::vector<CurvePoint> curve{{1, 1}, {2, 2}};
  auto thin = thin_curve(curve, 10);
  EXPECT_EQ(thin.size(), 2u);
}

TEST(Table, AlignedOutputContainsCells) {
  TextTable table{{"name", "value"}};
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  std::ostringstream out;
  table.print(out);
  const auto text = out.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable table{{"a", "b"}};
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvOutput) {
  TextTable table{{"a", "b"}};
  table.add_row({"1", "2"});
  std::ostringstream out;
  table.print_csv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Format, DoubleAndPercent) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.432, 1), "43.2%");
}

TEST(Arena, BumpAllocationAdvancesWithinOneChunk) {
  Arena arena;
  void* a = arena.allocate(64, 8);
  void* b = arena.allocate(64, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  const auto stats = arena.stats();
  EXPECT_EQ(stats.chunks, 1u);
  EXPECT_EQ(stats.allocations, 2u);
  EXPECT_EQ(stats.live_bytes, 128u);
  EXPECT_EQ(stats.freelist_reuses, 0u);
  // Writes must not overlap.
  std::memset(a, 0xaa, 64);
  std::memset(b, 0xbb, 64);
  EXPECT_EQ(static_cast<unsigned char*>(a)[63], 0xaa);
  EXPECT_EQ(static_cast<unsigned char*>(b)[0], 0xbb);
}

TEST(Arena, FreelistRecyclesSameSizeClass) {
  Arena arena;
  void* a = arena.allocate(48, 8);  // 64-byte class
  arena.deallocate(a, 48, 8);
  void* b = arena.allocate(64, 8);  // same class: must reuse the block
  EXPECT_EQ(a, b);
  const auto stats = arena.stats();
  EXPECT_EQ(stats.freelist_reuses, 1u);
  EXPECT_EQ(stats.live_bytes, 64u);
  arena.deallocate(b, 64, 8);
  EXPECT_EQ(arena.stats().live_bytes, 0u);
}

TEST(Arena, ChurnDoesNotGrowReservation) {
  Arena arena;
  std::vector<void*> blocks;
  // Warm up: one full population, then release everything.
  for (int i = 0; i < 10000; ++i) blocks.push_back(arena.allocate(96, 8));
  for (void* p : blocks) arena.deallocate(p, 96, 8);
  blocks.clear();
  const auto warmed = arena.stats();
  // Steady-state churn at the same population must be served entirely from
  // the freelists: no new chunks, no new reservation.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10000; ++i) blocks.push_back(arena.allocate(96, 8));
    for (void* p : blocks) arena.deallocate(p, 96, 8);
    blocks.clear();
  }
  const auto after = arena.stats();
  EXPECT_EQ(after.chunks, warmed.chunks);
  EXPECT_EQ(after.reserved_bytes, warmed.reserved_bytes);
  EXPECT_GT(after.freelist_reuses, warmed.freelist_reuses);
  EXPECT_EQ(after.live_bytes, 0u);
}

TEST(Arena, OversizedAllocationsRoundTrip) {
  Arena arena;
  const std::size_t big = 64 * 1024;  // past the largest freelist class
  void* p = arena.allocate(big, 16);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5c, big);
  auto stats = arena.stats();
  EXPECT_EQ(stats.large_bytes, big);
  EXPECT_EQ(stats.live_bytes, big);
  arena.deallocate(p, big, 16);
  stats = arena.stats();
  EXPECT_EQ(stats.live_bytes, 0u);
}

TEST(Arena, BacksAnUnorderedMapThroughRehashAndErase) {
  Arena arena;
  using Alloc = ArenaAllocator<std::pair<const int, int>>;
  std::unordered_map<int, int, std::hash<int>, std::equal_to<int>, Alloc> map{Alloc{arena}};
  for (int i = 0; i < 5000; ++i) map[i] = i * 3;
  for (int i = 0; i < 5000; i += 2) map.erase(i);
  for (int i = 5000; i < 7000; ++i) map[i] = i * 3;
  EXPECT_EQ(map.size(), 2500u + 2000u);
  EXPECT_EQ(map.at(4999), 4999 * 3);
  EXPECT_EQ(map.at(6000), 6000 * 3);
  EXPECT_GT(arena.stats().freelist_reuses, 0u);
  map.clear();
  // Node memory is back on the freelists; the arena stays reserved for the
  // owner's next population (live_bytes excludes the bucket array, which
  // unordered_map only releases on destruction).
  EXPECT_GT(arena.stats().reserved_bytes, 0u);
}

}  // namespace
}  // namespace vns::util
