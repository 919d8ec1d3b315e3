/// \file test_random.cpp
/// \brief Tests for the DESP random streams and distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "desp/random.hpp"
#include "util/check.hpp"

namespace voodb::desp {
namespace {

TEST(RandomStream, DeterministicBySeed) {
  RandomStream a(42);
  RandomStream b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RandomStream, DifferentSeedsDiffer) {
  RandomStream a(1);
  RandomStream b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomStream, DeriveIsDeterministicAndIndependent) {
  RandomStream parent(7);
  RandomStream c1 = parent.Derive(1);
  RandomStream c1_again = RandomStream(7).Derive(1);
  RandomStream c2 = parent.Derive(2);
  EXPECT_EQ(c1.NextU64(), c1_again.NextU64());
  EXPECT_NE(c1.NextU64(), c2.NextU64());
}

TEST(RandomStream, NextDoubleInUnitInterval) {
  RandomStream rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomStream, UniformIntCoversFullRangeInclusively) {
  RandomStream rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values observed
}

TEST(RandomStream, UniformIntDegenerateRange) {
  RandomStream rng(5);
  EXPECT_EQ(rng.UniformInt(9, 9), 9);
  EXPECT_THROW(rng.UniformInt(2, 1), util::Error);
}

TEST(RandomStream, UniformIntSpansTheWholeInt64Range) {
  constexpr int64_t kMin = INT64_MIN;
  constexpr int64_t kMax = INT64_MAX;
  // The full range is the raw stream.
  RandomStream rng(3);
  RandomStream raw(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.UniformInt(kMin, kMax), static_cast<int64_t>(raw.NextU64()));
  }
  // Spans above 2^63: the sum lo + r passes INT64_MAX on its way into
  // range, and neither half of the range is ever left out.
  for (const auto& [lo, hi] : {std::pair<int64_t, int64_t>{-10, kMax},
                               std::pair<int64_t, int64_t>{kMin, 5},
                               std::pair<int64_t, int64_t>{kMin + 1, kMax}}) {
    SCOPED_TRACE(lo);
    bool low_half = false;
    bool high_half = false;
    for (int i = 0; i < 1000; ++i) {
      const int64_t v = rng.UniformInt(lo, hi);
      ASSERT_GE(v, lo);
      ASSERT_LE(v, hi);
      (v < lo / 2 + hi / 2 ? low_half : high_half) = true;
    }
    EXPECT_TRUE(low_half);
    EXPECT_TRUE(high_half);
  }
}

/// The draw UniformInt made while it divided with `%`: the reference that
/// RandomStream::Below and UniformInt must match draw for draw.
uint64_t ReferenceBelow(RandomStream& rng, uint64_t range) {
  const uint64_t threshold = (0 - range) % range;
  uint64_t r;
  do {
    r = rng.NextU64();
  } while (r < threshold);
  return r % range;
}

TEST(RandomStream, BelowMatchesTheDivisionFormulaDrawForDraw) {
  std::vector<uint64_t> ranges = {1,
                                  2,
                                  3,
                                  7,
                                  100,
                                  (uint64_t{1} << 32) - 1,
                                  (uint64_t{1} << 32) + 1,
                                  (uint64_t{1} << 63) + 1,
                                  UINT64_MAX};
  RandomStream pick(17);
  for (int i = 0; i < 200; ++i) {
    ranges.push_back(1 + (pick.NextU64() >> pick.UniformInt(0, 63)));
  }
  for (const uint64_t range : ranges) {
    SCOPED_TRACE(range);
    RandomStream a(range);
    RandomStream b(range);
    const UniformBelow bound(range);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(a.Below(bound), ReferenceBelow(b, range));
    }
    // UniformInt over a range of the same width draws the same values.
    if (range <= static_cast<uint64_t>(INT64_MAX)) {
      const int64_t hi = static_cast<int64_t>(range) - 1 - 7;
      for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(a.UniformInt(-7, hi),
                  -7 + static_cast<int64_t>(ReferenceBelow(b, range)));
      }
    }
  }
}

TEST(RandomStream, UniformIntIsApproximatelyUniform) {
  RandomStream rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<size_t>(rng.UniformInt(0, kBuckets - 1))];
  }
  // Chi-square with 9 dof; 99.9th percentile ~ 27.9.
  double chi2 = 0.0;
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 27.9);
}

TEST(RandomStream, ExponentialHasRequestedMean) {
  RandomStream rng(13);
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / kDraws, 5.0, 0.1);
}

TEST(RandomStream, ExponentialIsPositive) {
  RandomStream rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.Exponential(1.0), 0.0);
  EXPECT_THROW(rng.Exponential(0.0), util::Error);
}

TEST(RandomStream, NormalMomentsMatch) {
  RandomStream rng(19);
  constexpr int kDraws = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.Normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RandomStream, NormalZeroStddevIsConstant) {
  RandomStream rng(23);
  EXPECT_DOUBLE_EQ(rng.Normal(4.0, 0.0), 4.0);
  EXPECT_THROW(rng.Normal(0.0, -1.0), util::Error);
}

TEST(RandomStream, BernoulliEdgesAndRate) {
  RandomStream rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(RandomStream, ZipfZeroSkewIsUniform) {
  RandomStream rng(31);
  constexpr int64_t kN = 8;
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < 80000; ++i) {
    ++counts[static_cast<size_t>(rng.Zipf(kN, 0.0))];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(RandomStream, ZipfRanksAreMonotonicallyLessLikely) {
  RandomStream rng(37);
  constexpr int64_t kN = 100;
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < 200000; ++i) {
    const int64_t r = rng.Zipf(kN, 1.0);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, kN);
    ++counts[static_cast<size_t>(r)];
  }
  // Rank 0 most popular; aggregate head beats aggregate tail.
  EXPECT_GT(counts[0], counts[10]);
  const int head = std::accumulate(counts.begin(), counts.begin() + 10, 0);
  const int tail = std::accumulate(counts.end() - 10, counts.end(), 0);
  EXPECT_GT(head, 5 * tail);
}

TEST(RandomStream, ZipfMatchesTheoreticalHeadProbability) {
  RandomStream rng(41);
  constexpr int64_t kN = 50;
  const double s = 1.0;
  double harmonic = 0.0;
  for (int64_t k = 1; k <= kN; ++k) harmonic += std::pow(k, -s);
  constexpr int kDraws = 300000;
  int rank0 = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Zipf(kN, s) == 0) ++rank0;
  }
  EXPECT_NEAR(static_cast<double>(rank0) / kDraws, 1.0 / harmonic, 0.01);
}

TEST(RandomStream, DiscretePicksByWeight) {
  RandomStream rng(43);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
  EXPECT_THROW(rng.Discrete({}), util::Error);
  EXPECT_THROW(rng.Discrete({0.0, 0.0}), util::Error);
  EXPECT_THROW(rng.Discrete({-1.0, 2.0}), util::Error);
}

TEST(RandomStream, ShuffleIsAPermutation) {
  RandomStream rng(47);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(v);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), original.begin()));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

/// Property sweep: every distribution stays within its support for many
/// seeds.
class RandomStreamSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomStreamSeeds, AllDistributionsStayInSupport) {
  RandomStream rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    EXPECT_GT(rng.Exponential(0.5), 0.0);
    const int64_t z = rng.Zipf(10, 0.8);
    EXPECT_GE(z, 0);
    EXPECT_LT(z, 10);
    const int64_t k = rng.UniformInt(0, 6);
    EXPECT_GE(k, 0);
    EXPECT_LE(k, 6);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, RandomStreamSeeds,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 1999ULL,
                                           0xDEADBEEFULL, 0xFFFFFFFFFFFFFFFFULL));

}  // namespace
}  // namespace voodb::desp
