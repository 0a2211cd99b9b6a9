#include "stats/timeseries.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace fbm::stats {
namespace {

TEST(RateBinner, Validation) {
  EXPECT_THROW(RateBinner(1.0, 1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(RateBinner(0.0, 1.0, 0.0), std::invalid_argument);
}

TEST(RateBinner, RejectsNonFiniteDeltaAndGridsPastTheCap) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(RateBinner(0.0, 60.0, inf), std::invalid_argument);
  EXPECT_THROW(RateBinner(0.0, 60.0, std::nan("")), std::invalid_argument);
  // 6e301 bins: the old size_t cast of this count was undefined behaviour.
  EXPECT_THROW(RateBinner(0.0, 60.0, 1e-300), std::invalid_argument);
  const auto cap = static_cast<double>(RateBinner::kMaxBins);
  EXPECT_THROW(RateBinner(0.0, cap + 1.0, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(RateBinner(0.0, 60.0, 60.0 / 1024));
}

TEST(RateBinner, BytesToBitsPerSecond) {
  RateBinner b(0.0, 1.0, 0.5);
  b.add(0.1, 100.0);  // bin 0
  b.add(0.6, 50.0);   // bin 1
  const RateSeries s = b.series();
  ASSERT_EQ(s.values.size(), 2u);
  EXPECT_DOUBLE_EQ(s.values[0], 100.0 * 8.0 / 0.5);
  EXPECT_DOUBLE_EQ(s.values[1], 50.0 * 8.0 / 0.5);
}

TEST(RateBinner, OutOfRangeDropped) {
  RateBinner b(0.0, 1.0, 0.5);
  b.add(-0.1, 10.0);
  b.add(1.0, 10.0);  // end is exclusive
  b.add(0.2, 10.0);
  EXPECT_EQ(b.dropped(), 2u);
  EXPECT_DOUBLE_EQ(b.total_bytes(), 10.0);
}

TEST(RateBinner, AccumulatesWithinBin) {
  RateBinner b(0.0, 1.0, 1.0);
  b.add(0.1, 10.0);
  b.add(0.9, 30.0);
  EXPECT_DOUBLE_EQ(b.series().values[0], 40.0 * 8.0);
}

TEST(RateBinner, PartialLastBin) {
  // [0, 0.7) with delta 0.3 -> bins [0,.3) [.3,.6) [.6,.7); ceil -> 3 bins.
  RateBinner b(0.0, 0.7, 0.3);
  b.add(0.65, 9.0);
  const RateSeries s = b.series();
  ASSERT_EQ(s.values.size(), 3u);
  EXPECT_GT(s.values[2], 0.0);
}

TEST(RateSeries, TimeAtAndDuration) {
  RateSeries s;
  s.start = 10.0;
  s.delta = 2.0;
  s.values = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(s.time_at(0), 10.0);
  EXPECT_DOUBLE_EQ(s.time_at(2), 14.0);
  EXPECT_DOUBLE_EQ(s.duration(), 6.0);
}

TEST(Resample, FactorOneIsIdentity) {
  RateSeries s;
  s.delta = 1.0;
  s.values = {1.0, 2.0, 3.0};
  const RateSeries r = resample(s, 1);
  EXPECT_EQ(r.values, s.values);
}

TEST(Resample, GroupsAreAveraged) {
  RateSeries s;
  s.delta = 0.5;
  s.values = {1.0, 3.0, 5.0, 7.0, 9.0};  // trailing 9.0 dropped
  const RateSeries r = resample(s, 2);
  ASSERT_EQ(r.values.size(), 2u);
  EXPECT_DOUBLE_EQ(r.values[0], 2.0);
  EXPECT_DOUBLE_EQ(r.values[1], 6.0);
  EXPECT_DOUBLE_EQ(r.delta, 1.0);
}

TEST(Resample, ZeroFactorThrows) {
  RateSeries s;
  EXPECT_THROW((void)resample(s, 0), std::invalid_argument);
}

TEST(Resample, AveragingReducesVariance) {
  RateSeries s;
  s.delta = 0.1;
  for (int i = 0; i < 1000; ++i) {
    s.values.push_back(i % 2 == 0 ? 0.0 : 10.0);
  }
  const RateSeries r = resample(s, 2);
  EXPECT_LT(series_variance(r), series_variance(s));
  EXPECT_NEAR(series_mean(r), series_mean(s), 1e-9);
}

TEST(SeriesStats, CovOfConstantIsZero) {
  RateSeries s;
  s.delta = 1.0;
  s.values.assign(10, 5.0);
  EXPECT_DOUBLE_EQ(series_cov(s), 0.0);
}

}  // namespace
}  // namespace fbm::stats
