// Unit tests of the benchmark's measurement rules (src/measure.hpp).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "measure.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 95.0), 95.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  // 20 samples: the median leaves exactly 10 beyond it, p75 only 5.
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(39), 50.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(2000), 99.5);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
  // Too few samples for even the median: the maximum, with none beyond.
  EXPECT_EQ(tail_percentile(19), 100.0);
  EXPECT_EQ(tail_percentile(0), 100.0);
}

TEST(TailPercentile, ChosenPercentileLeavesTenBeyond) {
  for (std::size_t n = 20; n < 5000; n += 7) {
    const double p = tail_percentile(n);
    EXPECT_GE(samples_beyond(n, p), 10u) << n;
    const auto v = one_to(n);
    // Nearest rank: exactly samples_beyond() samples exceed the value.
    const double at = percentile(v, p);
    EXPECT_EQ(static_cast<std::size_t>(static_cast<double>(n) - at),
              samples_beyond(n, p))
        << n;
  }
}

TEST(Schedule, DueAndLatenessFromTraceTime) {
  Schedule s(8.0);
  s.start(100.0);
  EXPECT_DOUBLE_EQ(s.due(0.0), 100.0);
  EXPECT_DOUBLE_EQ(s.due(4.0), 100.5);
  EXPECT_DOUBLE_EQ(s.horizon(100.5), 4.0);
  // A packet due at 100.5 handed over at 100.53 ran 30 ms late.
  EXPECT_NEAR(s.lateness(100.53, 4.0), 0.03, 1e-12);
  // Handed over early (never happens in the driver) reads negative.
  EXPECT_LT(s.lateness(100.4, 4.0), 0.0);
  // Without a tick the driver wakes at the due time itself.
  EXPECT_DOUBLE_EQ(s.wake(4.0), 100.5);
}

TEST(Schedule, WakesOnTheTickGrid) {
  Schedule s(8.0, 0.001);
  s.start(100.0);
  // Trace 4.004 s is due at 100.5005: the wake rounds up to 100.501.
  EXPECT_NEAR(s.wake(4.004), 100.501, 1e-9);
  // Every packet due within one tick shares that wake.
  EXPECT_NEAR(s.wake(4.0041), s.wake(4.0079), 1e-12);
  // A packet due on the grid wakes on time, and never before it is due.
  EXPECT_NEAR(s.wake(4.0), 100.5, 1e-9);
  for (double ts = 0.0; ts < 10.0; ts += 0.0137) {
    EXPECT_GE(s.wake(ts), s.due(ts) - 1e-9) << ts;
    EXPECT_LT(s.wake(ts), s.due(ts) + 0.001) << ts;
  }
}

TEST(LagBook, OpenLoopLagRunsFromDueTimeOfWindowEnd) {
  Schedule s(10.0);
  s.start(50.0);
  LagBook book(2.0, &s);
  // Window 0 ends at trace 2 s, due at 50.2; window 3 ends at 8 s, due 50.8.
  EXPECT_NEAR(book.delivered(0, 50.25), 0.05, 1e-12);
  EXPECT_NEAR(book.delivered(3, 50.81), 0.01, 1e-12);
}

TEST(BestPerWindow, LowestOfEachWindowOverReplays) {
  EXPECT_EQ(best_per_window({{3.0, 1.0, 5.0}, {2.0, 4.0, 6.0}, {9.0, 2.0, 0.5}}),
            (std::vector<double>{2.0, 1.0, 0.5}));
  // Only the windows every replay delivered.
  EXPECT_EQ(best_per_window({{3.0, 1.0, 5.0}, {2.0}}),
            (std::vector<double>{2.0}));
  EXPECT_TRUE(best_per_window({}).empty());
}

TEST(LagBook, ClosedLoopLagRunsFromPushCarryingFirstPacketPastEnd) {
  LagBook book(5.0);
  book.push_started(4.9, 1.0);   // no window ends by 4.9
  book.push_started(5.0, 2.0);   // window 0 ends at 5.0: closable at 2.0
  book.push_started(17.0, 3.0);  // windows 1 and 2 closable at 3.0
  EXPECT_THROW((void)book.delivered(3, 3.5), std::logic_error);
  book.finish_started(3, 4.0);   // window 3 closes at end of stream
  EXPECT_NEAR(book.delivered(0, 2.25), 0.25, 1e-12);
  EXPECT_NEAR(book.delivered(1, 3.5), 0.5, 1e-12);
  EXPECT_NEAR(book.delivered(2, 3.75), 0.75, 1e-12);
  EXPECT_NEAR(book.delivered(3, 4.125), 0.125, 1e-12);
}

TEST(Usage, CpuTimeAdvancesWithWork) {
  const Usage before = process_usage();
  const double start = now_s();
  volatile double sink = 0.0;
  while (now_s() - start < 0.2) {
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  }
  const Usage after = process_usage();
  EXPECT_GE(after.cpu_s - before.cpu_s, 0.15);
  EXPECT_LE(after.cpu_s - before.cpu_s, 0.2 + 0.1);
}

TEST(Usage, PeakRssSeesTouchedMemory) {
  const Usage before = process_usage();
  constexpr std::size_t kBytes = 256u << 20;
  auto block = std::make_unique<char[]>(kBytes);
  std::memset(block.get(), 1, kBytes);
  const Usage after = process_usage();
  EXPECT_GE(after.max_rss_mb, before.max_rss_mb + 200.0);
  EXPECT_EQ(block[kBytes - 1], 1);
}

}  // namespace
}  // namespace perfbench
