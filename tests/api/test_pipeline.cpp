// api::analyze runs one estimator of tiling windows (live::batch_windows).
// It must reproduce, bit for bit, a batch fit of each interval's packets in
// isolation built from the flow and measure primitives; differ from the
// paper's offline rule only in one-packet pieces of flows at interval
// edges; and hold only a bounded window of state while streaming.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "../support/collect.hpp"
#include "../support/push.hpp"
#include "../support/sharded.hpp"
#include "api/api.hpp"
#include "core/fitting.hpp"
#include "flow/classifier.hpp"
#include "flow/interval.hpp"
#include "live/windowed_estimator.hpp"
#include "measure/rate_meter.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

using testsupport::collect_intervals;
using testsupport::push_all;
using testsupport::push_one;

std::vector<net::PacketRecord> seeded_trace(double duration_s = 60.0,
                                            double util_bps = 8e6,
                                            std::uint64_t seed = 4242) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = duration_s;
  cfg.apply_defaults();
  cfg.target_utilization_bps(util_bps);
  cfg.seed = seed;
  return trace::generate_packets(cfg);
}

struct BatchInterval {
  flow::ModelInputs inputs;
  measure::RateMoments measured;
  std::optional<double> shot_b;
};

/// The batch fit of each interval's packets alone, from the primitives:
/// classify, group, estimate, measure, fit.
template <typename Key>
std::vector<BatchInterval> batch_path(
    const std::vector<net::PacketRecord>& packets, double interval_s,
    double horizon_s, double timeout_s, double delta_s) {
  flow::ClassifierOptions opt;
  opt.timeout = timeout_s;
  opt.record_discards = true;
  std::vector<flow::FlowRecord> flows;
  std::vector<flow::DiscardedPacket> discards;
  for (std::int64_t k = 0; static_cast<double>(k) * interval_s < horizon_s;
       ++k) {
    const double start = static_cast<double>(k) * interval_s;
    flow::FlowClassifier<Key> classifier(opt);
    for (const auto& p : packets) {
      if (p.timestamp >= start && p.timestamp < start + interval_s) {
        classifier.add(p);
      }
    }
    classifier.flush();
    for (const auto& f : classifier.take_flows()) flows.push_back(f);
    for (const auto& d : classifier.take_discards()) discards.push_back(d);
  }
  std::sort(flows.begin(), flows.end(), flow::ByStart{});

  std::vector<BatchInterval> out;
  for (auto& iv : flow::group_by_interval(flows, interval_s, horizon_s)) {
    BatchInterval r;
    r.inputs = flow::estimate_inputs(iv);
    const auto series =
        measure::measure_rate(packets, iv.start, iv.end(), delta_s, discards);
    r.measured = measure::rate_moments(series);
    r.shot_b = core::fit_power_b(r.measured.variance_bps2, r.inputs);
    out.push_back(r);
  }
  return out;
}

void expect_identical(const std::vector<BatchInterval>& batch,
                      const std::vector<api::AnalysisReport>& streamed) {
  ASSERT_EQ(batch.size(), streamed.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& b = batch[i];
    const auto& s = streamed[i];
    EXPECT_EQ(s.interval_index, i);
    // ModelInputs, bit-for-bit.
    EXPECT_EQ(b.inputs.flows, s.inputs.flows);
    EXPECT_EQ(b.inputs.lambda, s.inputs.lambda);
    EXPECT_EQ(b.inputs.mean_size_bits, s.inputs.mean_size_bits);
    EXPECT_EQ(b.inputs.mean_s2_over_d, s.inputs.mean_s2_over_d);
    // RateMoments, bit-for-bit.
    EXPECT_EQ(b.measured.samples, s.measured.samples);
    EXPECT_EQ(b.measured.mean_bps, s.measured.mean_bps);
    EXPECT_EQ(b.measured.variance_bps2, s.measured.variance_bps2);
    EXPECT_EQ(b.measured.cov, s.measured.cov);
    // Fitted shot power, bit-for-bit.
    ASSERT_EQ(b.shot_b.has_value(), s.shot_b.has_value());
    if (b.shot_b) {
      EXPECT_EQ(*b.shot_b, *s.shot_b);
    }
  }
}

TEST(PipelineEquality, FiveTupleMultiInterval) {
  const auto packets = seeded_trace();
  const double interval_s = 15.0;
  // Scaled timeout (60 s : 30 min in the paper), so flows complete and
  // intervals close while the stream is still running.
  const double timeout_s = 1.0;

  api::AnalysisConfig config;
  config.interval_s(interval_s).timeout_s(timeout_s);
  const auto streamed = api::analyze(packets, config);

  const auto batch = batch_path<flow::FiveTupleKey>(
      packets, interval_s, 60.0, timeout_s, config.delta_s());
  expect_identical(batch, streamed);
}

TEST(PipelineEquality, Prefix24MultiInterval) {
  const auto packets = seeded_trace(60.0, 6e6, 99);
  const double interval_s = 20.0;
  const double timeout_s = 1.0;

  api::AnalysisConfig config;
  config.flow_definition(api::FlowDefinition::prefix24)
      .interval_s(interval_s)
      .timeout_s(timeout_s);
  const auto streamed = api::analyze(packets, config);

  const auto batch = batch_path<flow::PrefixKey<24>>(
      packets, interval_s, 60.0, timeout_s, config.delta_s());
  expect_identical(batch, streamed);
}

TEST(PipelineEquality, LongTimeoutSingleInterval) {
  // Whole-trace analysis (the quickstart setting): one interval, paper
  // 60 s timeout, nothing ever expires before the flush.
  const auto packets = seeded_trace(40.0, 10e6, 7);
  api::AnalysisConfig config;
  config.interval_s(40.0).timeout_s(60.0);
  const auto streamed = api::analyze(packets, config);
  const auto batch = batch_path<flow::FiveTupleKey>(packets, 40.0, 40.0, 60.0,
                                                    config.delta_s());
  expect_identical(batch, streamed);
}

TEST(PipelineEquality, OfflineRuleKeepsOnlyOnePacketEdgePiecesMore) {
  // The paper's offline rule keeps a one-packet piece of a flow split at an
  // interval edge; an interval that reports when it closes cannot know the
  // flow continued and drops the piece as a single-packet flow. Dropping
  // the offline rule's one-packet pieces therefore gives analyze()'s flow
  // population, bit for bit.
  const auto packets = seeded_trace();
  const double interval_s = 10.0;
  const double timeout_s = 10.0;
  flow::ClassifierOptions opt;
  opt.timeout = timeout_s;
  opt.interval = interval_s;
  const auto flows = flow::classify_all<flow::FiveTupleKey>(packets, opt);

  api::AnalysisConfig config;
  config.interval_s(interval_s).timeout_s(timeout_s);
  const auto streamed = api::analyze(packets, config);
  const auto offline = flow::group_by_interval(flows, interval_s, 60.0);
  ASSERT_EQ(streamed.size(), offline.size());
  std::size_t one_packet_pieces = 0;
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    SCOPED_TRACE(i);
    flow::IntervalData multi{offline[i].start, offline[i].length, {}};
    for (const auto& f : offline[i].flows) {
      if (f.packets >= 2) {
        multi.flows.push_back(f);
      } else {
        ++one_packet_pieces;
      }
    }
    const auto inputs = flow::estimate_inputs(multi);
    EXPECT_EQ(inputs.flows, streamed[i].inputs.flows);
    EXPECT_EQ(inputs.lambda, streamed[i].inputs.lambda);
    EXPECT_EQ(inputs.mean_size_bits, streamed[i].inputs.mean_size_bits);
    EXPECT_EQ(inputs.mean_s2_over_d, streamed[i].inputs.mean_s2_over_d);
  }
  // Flows straddle interval edges, so the relationship is exercised.
  EXPECT_GT(one_packet_pieces, 0u);
}

TEST(PipelineStreaming, ReportsEmittedIncrementally) {
  const auto packets = seeded_trace();
  const auto config = api::AnalysisConfig{}.interval_s(10.0).timeout_s(1.0);
  live::WindowedEstimator estimator(live::batch_windows(config));
  const auto reports = collect_intervals(estimator, config);

  std::size_t emitted_mid_stream = 0;
  for (const auto& p : packets) {
    push_one(estimator, p);
    for (const auto& r : reports->take()) {
      EXPECT_EQ(r.interval_index, emitted_mid_stream);
      // Never early: interval k closes once the clock reaches its end.
      EXPECT_GE(p.timestamp, r.start_s + r.length_s);
      ++emitted_mid_stream;
    }
  }
  // A 60 s trace with 10 s intervals: every interval but the last is
  // reported before end of stream.
  EXPECT_EQ(emitted_mid_stream, 5u);
  estimator.finish();
  EXPECT_EQ(reports->take().size(), 1u);
}

TEST(PipelineStreaming, MemoryBoundedByWindow) {
  const auto packets = seeded_trace();
  const auto config = api::AnalysisConfig{}.interval_s(5.0).timeout_s(1.0);
  live::WindowedEstimator estimator(live::batch_windows(config));
  const auto reports = collect_intervals(estimator, config);

  std::size_t max_open = 0;
  for (const auto& p : packets) {
    push_one(estimator, p);
    max_open = std::max(max_open, estimator.open_windows());
    (void)reports->take();  // a consumer drains as it goes
  }
  // Tiling windows close the moment the clock passes their end: one
  // interval is open at a time, never all 12 of a 60 s trace.
  EXPECT_EQ(max_open, 1u);
}

TEST(PipelineConfig, MinFlowsFiltersThinIntervals) {
  const auto packets = seeded_trace();
  api::AnalysisConfig config;
  config.interval_s(15.0).timeout_s(1.0).min_flows(1u << 30);
  EXPECT_TRUE(api::analyze(packets, config).empty());
}

TEST(PipelineConfig, FixedShotSkipsFit) {
  const auto packets = seeded_trace();
  api::AnalysisConfig config;
  config.interval_s(60.0).fixed_shot_b(0.0);
  const auto reports = api::analyze(packets, config);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].shot_b.has_value());
  EXPECT_EQ(reports[0].shot_b_used, 0.0);
}

TEST(PipelineConfig, RejectsBadParameters) {
  const std::vector<net::PacketRecord> none;
  for (const auto& bad :
       {api::AnalysisConfig{}.timeout_s(0.0),
        api::AnalysisConfig{}.interval_s(-1.0),
        api::AnalysisConfig{}.epsilon(1.5),
        api::AnalysisConfig{}.delta_s(
            std::numeric_limits<double>::infinity())}) {
    EXPECT_THROW((void)api::analyze(none, bad), std::invalid_argument);
    EXPECT_THROW((void)testsupport::sharded_engine(bad, 1, 1),
                 std::invalid_argument);
  }
  // A finite Delta too small for the interval's bin grid is refused when
  // the first interval opens.
  const std::vector<net::PacketRecord> one{{0.0, {}, 100}};
  EXPECT_THROW(
      (void)api::analyze(one, api::AnalysisConfig{}.delta_s(1e-300)),
      std::invalid_argument);
}

TEST(PipelineConfig, PushWithoutSinkThrows) {
  // Closed intervals leave through a sink only: an estimator without one
  // refuses its first push and names the setter.
  live::WindowedEstimator estimator(live::batch_windows({}));
  try {
    push_one(estimator, {0.0, {}, 100});
    FAIL() << "push without a sink did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("set_partial_sink"),
              std::string::npos)
        << e.what();
  }
}

TEST(PipelineConfig, PushAfterFinishThrows) {
  live::WindowedEstimator estimator(live::batch_windows({}));
  (void)collect_intervals(estimator, {});
  push_one(estimator, {0.0, {}, 100});
  estimator.finish();
  EXPECT_THROW(push_one(estimator, {1.0, {}, 100}), std::logic_error);
}

TEST(PipelineReport, JsonContainsTheHeadlineNumbers) {
  const auto packets = seeded_trace(30.0, 6e6, 3);
  api::AnalysisConfig config;
  config.interval_s(30.0);
  const auto reports = api::analyze(packets, config);
  ASSERT_EQ(reports.size(), 1u);

  const std::string json = api::to_json(reports[0]);
  for (const char* key :
       {"interval_index", "lambda_per_s", "mean_size_bits",
        "mean_s2_over_d_bits2_per_s", "variance_bps2", "shot_b_fitted",
        "capacity_bps", "headroom"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(PipelineSummary, MatchesTraceTotals) {
  const auto packets = seeded_trace();
  auto eng = testsupport::sharded_engine(api::AnalysisConfig{}, 1, 1);
  (void)testsupport::collect(*eng);
  push_all(*eng, packets);
  eng->finish();
  std::uint64_t total_bytes = 0;
  for (const auto& p : packets) total_bytes += p.size_bytes;
  EXPECT_EQ(eng->summary().packets, packets.size());
  EXPECT_EQ(eng->summary().total_bytes, total_bytes);
  EXPECT_EQ(eng->summary().last_ts, packets.back().timestamp);
  const auto links = eng->links();
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].counters.packets, packets.size());
  EXPECT_EQ(links[0].counters.bytes, total_bytes);
}

}  // namespace
}  // namespace fbm
