#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace nocw {
namespace {

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro, ReproducibleStream) {
  Xoshiro256pp a(7);
  Xoshiro256pp b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, JumpMatchesSequentialDraws) {
  // The jump moves the state; the output stream after it must be the one n
  // sequential draws reach, cached normal deviate untouched.
  for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{63}, std::uint64_t{1} << 16,
                                (std::uint64_t{1} << 16) + 7,
                                std::uint64_t{102760448}}) {
    Xoshiro256pp stepped(99);
    (void)stepped.normal();  // leaves a cached deviate behind
    Xoshiro256pp jumped = stepped;
    for (std::uint64_t i = 0; i < n; ++i) (void)stepped();
    Xoshiro256pp::Jump(n).apply(jumped);
    EXPECT_EQ(jumped.normal(), stepped.normal()) << "n = " << n;
    for (int i = 0; i < 8; ++i) ASSERT_EQ(jumped(), stepped()) << "n = " << n;
  }
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256pp rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, UniformRangeRespectsBounds) {
  Xoshiro256pp rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(Xoshiro, UniformMeanApproximatelyHalf) {
  Xoshiro256pp rng(99);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Xoshiro, BoundedStaysBelowBound) {
  Xoshiro256pp rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Xoshiro, BoundedZeroReturnsZero) {
  Xoshiro256pp rng(11);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Xoshiro, BoundedCoversAllResidues) {
  Xoshiro256pp rng(3);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 4000; ++i) ++seen[rng.bounded(8)];
  for (int r = 0; r < 8; ++r) EXPECT_GT(seen[r], 0) << "residue " << r;
}

TEST(Xoshiro, NormalMomentsMatchStandardNormal) {
  Xoshiro256pp rng(2024);
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Xoshiro, NormalWithParamsShiftsAndScales) {
  Xoshiro256pp rng(77);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 0.5);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Xoshiro, ChanceExtremes) {
  Xoshiro256pp rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

}  // namespace
}  // namespace nocw
