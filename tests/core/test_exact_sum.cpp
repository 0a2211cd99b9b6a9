// core::ExactSum: the sum is exact, rounds once (to nearest, ties to even)
// and does not depend on the order of adds and merges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/exact_sum.hpp"

namespace fbm::core {
namespace {

ExactSum sum_of(const std::vector<double>& xs) {
  ExactSum s;
  for (const double x : xs) s.add(x);
  return s;
}

/// Doubles over the whole exponent range, both signs, subnormals included.
std::vector<double> wild_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  std::uniform_int_distribution<int> exp(-1074, 1000);
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = std::ldexp(mant(rng), exp(rng));
    xs.push_back(rng() % 2 == 0 ? x : -x);
  }
  return xs;
}

TEST(ExactSum, EmptyIsZero) {
  const ExactSum s;
  EXPECT_EQ(s.value(), 0.0);
  EXPECT_EQ(s.quotient(3), 0.0);
}

TEST(ExactSum, NoCancellationError) {
  EXPECT_EQ(sum_of({1e16, 1.0, -1e16}).value(), 1.0);
  EXPECT_EQ(sum_of({1e308, 1e308, -1e308, -1e308, 0x1p-1074}).value(),
            0x1p-1074);
  EXPECT_EQ(sum_of({-1.5, 0.25}).value(), -1.25);
  EXPECT_EQ(sum_of({0.5, -0.5}).value(), 0.0);
}

TEST(ExactSum, RoundsOnceToNearestEven) {
  // 2^53 + 1 is a tie between 2^53 and 2^53 + 2: even wins.
  EXPECT_EQ(sum_of({0x1p53, 1.0}).value(), 0x1p53);
  // Anything above the tie rounds up, however far below the last bit.
  EXPECT_EQ(sum_of({0x1p53, 1.0, 0x1p-1000}).value(), 0x1p53 + 2.0);
  // 2^53 + 3 ties between +2 and +4: +4 is even.
  EXPECT_EQ(sum_of({0x1p53, 3.0}).value(), 0x1p53 + 4.0);
  // Ten 0.1s: the exact sum is just above 1, and 1 is the nearest double.
  EXPECT_EQ(sum_of(std::vector<double>(10, 0.1)).value(), 1.0);
}

TEST(ExactSum, SubnormalsAndOverflow) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(sum_of({tiny, tiny, tiny}).value(), 3 * tiny);
  const double big = std::numeric_limits<double>::max();
  EXPECT_EQ(sum_of({big, big}).value(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(sum_of({big, big, -big}).value(), big);
}

TEST(ExactSum, QuotientIsCorrectlyRounded) {
  EXPECT_EQ(ExactSum::of_integer(10).quotient(4), 2.5);
  EXPECT_EQ(ExactSum::of_integer(1).quotient(3), 1.0 / 3.0);
  EXPECT_EQ(ExactSum::of_integer(1).quotient(21), 1.0 / 21.0);
  EXPECT_EQ(sum_of({0.1, 0.2}).quotient(1), 0.1 + 0.2);
  EXPECT_EQ(sum_of({-1.0}).quotient(3), -1.0 / 3.0);
  // A divisor above 2^32 takes the wide path.
  EXPECT_EQ(ExactSum::of_integer(1).quotient(std::uint64_t{1} << 40),
            0x1p-40);
  EXPECT_EQ(sum_of({7.0}).quotient(5'000'000'011ULL), 7.0 / 5000000011.0);
  EXPECT_THROW((void)sum_of({1.0}).quotient(0), std::invalid_argument);
}

TEST(ExactSum, IntegersAreExact) {
  const unsigned __int128 v =
      (static_cast<unsigned __int128>(0x0123456789abcdefULL) << 64) | 7u;
  const ExactSum s = ExactSum::of_integer(v);
  EXPECT_EQ(s.value(), static_cast<double>(v));
  ExactSum twice = s;
  twice.merge(s);
  EXPECT_EQ(twice.value(), 2.0 * static_cast<double>(v));
}

TEST(ExactSum, OrderAndMergeShapeDoNotMatter) {
  std::vector<double> xs = wild_values(5000, 7);
  // Keep the values near each other's scale too, where rounding would
  // show: a second set around 1 with both signs.
  std::mt19937_64 rng(11);
  std::normal_distribution<double> near_one(1.0, 1e-3);
  for (int i = 0; i < 5000; ++i) xs.push_back(near_one(rng));

  const ExactSum reference = sum_of(xs);
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(xs.begin(), xs.end(), rng);
    // Split into a random number of partial sums, merged in random order.
    const std::size_t parts =
        std::uniform_int_distribution<std::size_t>(1, 9)(rng);
    std::vector<ExactSum> partial(parts);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      partial[rng() % parts].add(xs[i]);
    }
    std::shuffle(partial.begin(), partial.end(), rng);
    ExactSum merged;
    for (const auto& p : partial) merged.merge(p);
    EXPECT_TRUE(merged == reference);
    EXPECT_EQ(merged.canonical_cells(), reference.canonical_cells());
    EXPECT_EQ(merged.value(), reference.value());
    EXPECT_EQ(merged.quotient(xs.size()), reference.quotient(xs.size()));
  }
}

TEST(ExactSum, LazyCarriesResolveOnLongMergeChains) {
  // Each self-merge doubles the sum and the carry budget it has used, so
  // forty of them cross the point where the cells must be normalized.
  ExactSum s = sum_of({1.5, -3.25, 0.125, 0x1p-1074, -0x1p-1074});
  for (int k = 0; k < 40; ++k) s.merge(s);
  EXPECT_EQ(s.value(), std::ldexp(-1.625, 40));
  EXPECT_TRUE(ExactSum::from_canonical(s.canonical_cells()) == s);
}

TEST(ExactSum, CanonicalCellsRoundTrip) {
  const ExactSum s = sum_of(wild_values(300, 3));
  const ExactSum back = ExactSum::from_canonical(s.canonical_cells());
  EXPECT_TRUE(back == s);
  EXPECT_EQ(back.value(), s.value());

  ExactSum::Cells bad = s.canonical_cells();
  bad[5] = -1;
  EXPECT_THROW((void)ExactSum::from_canonical(bad), std::invalid_argument);
  bad = s.canonical_cells();
  bad.back() = std::int64_t{1} << 40;
  EXPECT_THROW((void)ExactSum::from_canonical(bad), std::invalid_argument);
}

TEST(ExactSum, RejectsNonFiniteAddends) {
  ExactSum s;
  EXPECT_THROW(s.add(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(s.value(), 0.0);
}

}  // namespace
}  // namespace fbm::core
