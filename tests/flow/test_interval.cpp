#include "flow/interval.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fbm::flow {
namespace {

FlowRecord flow(double start, double duration, std::uint64_t bytes,
                bool continued = false) {
  FlowRecord f;
  f.start = start;
  f.end = start + duration;
  f.size_bytes = bytes;
  f.packets = 2;
  f.continued = continued;
  return f;
}

TEST(GroupByInterval, AssignsByStartTime) {
  std::vector<FlowRecord> flows = {flow(1.0, 2.0, 100), flow(11.0, 2.0, 100),
                                   flow(9.999, 0.5, 100)};
  const auto intervals = group_by_interval(flows, 10.0, 20.0);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0].flows.size(), 2u);
  EXPECT_EQ(intervals[1].flows.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0].start, 0.0);
  EXPECT_DOUBLE_EQ(intervals[1].start, 10.0);
  EXPECT_DOUBLE_EQ(intervals[1].end(), 20.0);
}

TEST(GroupByInterval, KeepsEmptyIntervals) {
  std::vector<FlowRecord> flows = {flow(25.0, 1.0, 10)};
  const auto intervals = group_by_interval(flows, 10.0, 30.0);
  ASSERT_EQ(intervals.size(), 3u);
  EXPECT_TRUE(intervals[0].flows.empty());
  EXPECT_TRUE(intervals[1].flows.empty());
  EXPECT_EQ(intervals[2].flows.size(), 1u);
}

TEST(GroupByInterval, DropsFlowsBeyondHorizon) {
  std::vector<FlowRecord> flows = {flow(35.0, 1.0, 10), flow(-1.0, 1.0, 10)};
  const auto intervals = group_by_interval(flows, 10.0, 30.0);
  for (const auto& iv : intervals) EXPECT_TRUE(iv.flows.empty());
}

TEST(GroupByInterval, SortsWithinInterval) {
  std::vector<FlowRecord> flows = {flow(5.0, 1.0, 10), flow(2.0, 1.0, 10),
                                   flow(8.0, 1.0, 10)};
  const auto intervals = group_by_interval(flows, 10.0, 10.0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0].flows[0].start, 2.0);
  EXPECT_DOUBLE_EQ(intervals[0].flows[2].start, 8.0);
}

TEST(GroupByInterval, Validation) {
  std::vector<FlowRecord> flows;
  EXPECT_THROW((void)group_by_interval(flows, 0.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW((void)group_by_interval(flows, 10.0, 0.0),
               std::invalid_argument);
}

TEST(EstimateInputs, ThreeParameters) {
  IntervalData iv;
  iv.start = 0.0;
  iv.length = 10.0;
  iv.flows = {flow(0.0, 2.0, 1000), flow(1.0, 4.0, 2000)};
  const ModelInputs in = estimate_inputs(iv);
  EXPECT_EQ(in.flows, 2u);
  EXPECT_DOUBLE_EQ(in.lambda, 0.2);
  EXPECT_DOUBLE_EQ(in.mean_size_bits, (8000.0 + 16000.0) / 2.0);
  const double e1 = 8000.0 * 8000.0 / 2.0;
  const double e2 = 16000.0 * 16000.0 / 4.0;
  EXPECT_DOUBLE_EQ(in.mean_s2_over_d, (e1 + e2) / 2.0);
  EXPECT_DOUBLE_EQ(in.mean_rate_bps(), 0.2 * 12000.0);
}

TEST(EstimateInputs, EmptyIntervalIsZero) {
  IntervalData iv;
  iv.length = 10.0;
  const ModelInputs in = estimate_inputs(iv);
  EXPECT_DOUBLE_EQ(in.lambda, 0.0);
  EXPECT_EQ(in.flows, 0u);
}

TEST(EstimateInputs, MinDurationGuard) {
  IntervalData iv;
  iv.length = 10.0;
  iv.flows = {flow(0.0, 1e-9, 1000)};  // near-zero duration
  const ModelInputs in = estimate_inputs(iv);
  // Duration clamped to 1 ms.
  EXPECT_DOUBLE_EQ(in.mean_s2_over_d, 8000.0 * 8000.0 / 1e-3);
}

TEST(InterarrivalTimes, Differences) {
  IntervalData iv;
  iv.length = 10.0;
  iv.flows = {flow(1.0, 1.0, 10), flow(3.0, 1.0, 10), flow(3.5, 1.0, 10)};
  const auto gaps = interarrival_times(iv);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 2.0);
  EXPECT_DOUBLE_EQ(gaps[1], 0.5);
}

TEST(InterarrivalTimes, FewFlowsGiveEmpty) {
  IntervalData iv;
  iv.flows = {flow(1.0, 1.0, 10)};
  EXPECT_TRUE(interarrival_times(iv).empty());
}

TEST(SeriesExtraction, SizesAndDurations) {
  IntervalData iv;
  iv.flows = {flow(0.0, 2.0, 100), flow(1.0, 3.0, 200)};
  const auto sizes = sizes_bytes(iv);
  const auto durs = durations_s(iv);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_DOUBLE_EQ(sizes[1], 200.0);
  EXPECT_DOUBLE_EQ(durs[0], 2.0);
}

TEST(CumulativeArrivals, StepFunction) {
  IntervalData iv;
  iv.start = 0.0;
  iv.length = 10.0;
  iv.flows = {flow(0.5, 1.0, 10), flow(1.5, 1.0, 10), flow(1.8, 1.0, 10),
              flow(9.5, 1.0, 10)};
  const auto cum = cumulative_arrivals(iv, 1.0);
  // cum[i] counts arrivals strictly before i*step... by construction at
  // index floor(rel/step)+1.
  ASSERT_EQ(cum.size(), 11u);
  EXPECT_EQ(cum[0], 0u);
  EXPECT_EQ(cum[1], 1u);   // the 0.5 arrival
  EXPECT_EQ(cum[2], 3u);   // + 1.5, 1.8
  EXPECT_EQ(cum[10], 4u);  // everything
}

TEST(CumulativeArrivals, RelativeToIntervalStart) {
  IntervalData iv;
  iv.start = 100.0;
  iv.length = 10.0;
  iv.flows = {flow(100.5, 1.0, 10)};
  const auto cum = cumulative_arrivals(iv, 1.0);
  EXPECT_EQ(cum[1], 1u);
}

TEST(CumulativeArrivals, Validation) {
  IntervalData iv;
  EXPECT_THROW((void)cumulative_arrivals(iv, 0.0), std::invalid_argument);
}

TEST(ContinuedCount, CountsFlaggedFlows) {
  IntervalData iv;
  iv.flows = {flow(0.0, 1.0, 10, true), flow(1.0, 1.0, 10, false),
              flow(2.0, 1.0, 10, true)};
  EXPECT_EQ(continued_count(iv), 2u);
}

}  // namespace
}  // namespace fbm::flow
