// The streaming AnalysisPipeline must reproduce the batch path bit-for-bit
// and hold only a bounded window of state while doing so.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "../support/push.hpp"
#include "api/api.hpp"
#include "core/fitting.hpp"
#include "flow/classifier.hpp"
#include "flow/interval.hpp"
#include "measure/rate_meter.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

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

/// The pre-api batch pipeline, verbatim: classify everything, sort, group,
/// estimate, measure, fit.
struct BatchInterval {
  flow::ModelInputs inputs;
  measure::RateMoments measured;
  std::optional<double> shot_b;
};

template <typename Key>
std::vector<BatchInterval> batch_path(
    const std::vector<net::PacketRecord>& packets, double interval_s,
    double horizon_s, double timeout_s, double delta_s) {
  flow::ClassifierOptions opt;
  opt.timeout = timeout_s;
  opt.interval = interval_s;
  opt.record_discards = true;
  flow::FlowClassifier<Key> classifier(opt);
  for (const auto& p : packets) classifier.add(p);
  classifier.flush();
  const auto& discards = classifier.discards();
  auto flows = classifier.take_flows();
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

TEST(PipelineStreaming, ReportsEmittedIncrementally) {
  const auto packets = seeded_trace();
  api::AnalysisPipeline pipeline(
      api::AnalysisConfig{}.interval_s(10.0).timeout_s(1.0));

  std::size_t emitted_mid_stream = 0;
  for (const auto& p : packets) {
    push_one(pipeline, p);
    while (pipeline.has_report()) {
      const auto r = pipeline.pop_report();
      EXPECT_EQ(r.interval_index, emitted_mid_stream);
      // Never early: interval k closes only after the clock passes its end
      // by more than the flow timeout.
      EXPECT_GT(p.timestamp, r.start_s + r.length_s + 1.0);
      ++emitted_mid_stream;
    }
  }
  // A 60 s trace with 10 s intervals: at least the first four intervals
  // must have been reported before end of stream.
  EXPECT_GE(emitted_mid_stream, 4u);
  pipeline.finish();
  const auto rest = pipeline.take_reports();
  EXPECT_EQ(emitted_mid_stream + rest.size(), 6u);
}

TEST(PipelineStreaming, MemoryBoundedByWindow) {
  const auto packets = seeded_trace();
  api::AnalysisPipeline pipeline(
      api::AnalysisConfig{}.interval_s(5.0).timeout_s(1.0));

  std::size_t max_open = 0;
  for (const auto& p : packets) {
    push_one(pipeline, p);
    max_open = std::max(max_open, pipeline.open_intervals());
    (void)pipeline.take_reports();  // a consumer drains as it goes
  }
  // Closing lags the clock by timeout + expire cadence, so at most the
  // current interval plus ~ceil((timeout + cadence) / interval) stay open —
  // never all 12 of a 60 s trace.
  EXPECT_LE(max_open, 3u);
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
  EXPECT_THROW(api::AnalysisPipeline(api::AnalysisConfig{}.timeout_s(0.0)),
               std::invalid_argument);
  EXPECT_THROW(api::AnalysisPipeline(api::AnalysisConfig{}.interval_s(-1.0)),
               std::invalid_argument);
  EXPECT_THROW(api::AnalysisPipeline(api::AnalysisConfig{}.epsilon(1.5)),
               std::invalid_argument);
  EXPECT_THROW(api::AnalysisPipeline(api::AnalysisConfig{}.delta_s(
                   std::numeric_limits<double>::infinity())),
               std::invalid_argument);
  // A finite Delta too small for the interval's bin grid is refused when
  // the first interval opens.
  api::AnalysisPipeline tiny(api::AnalysisConfig{}.delta_s(1e-300));
  EXPECT_THROW(push_one(tiny, {0.0, {}, 100}), std::invalid_argument);
}

TEST(PipelineConfig, PushAfterFinishThrows) {
  api::AnalysisPipeline pipeline(api::AnalysisConfig{});
  push_one(pipeline, {0.0, {}, 100});
  pipeline.finish();
  EXPECT_THROW(push_one(pipeline, {1.0, {}, 100}), std::logic_error);
}

TEST(PipelineReport, KeepFlowsPopulatesInterval) {
  const auto packets = seeded_trace(30.0, 6e6, 3);
  api::AnalysisConfig config;
  config.interval_s(30.0).keep_flows(true);
  const auto reports = api::analyze(packets, config);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].interval.flows.size(), reports[0].inputs.flows);
  EXPECT_TRUE(std::is_sorted(reports[0].interval.flows.begin(),
                             reports[0].interval.flows.end(),
                             flow::ByStart{}));
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
  api::AnalysisPipeline pipeline(api::AnalysisConfig{});
  push_all(pipeline, packets);
  pipeline.finish();
  std::uint64_t total_bytes = 0;
  for (const auto& p : packets) total_bytes += p.size_bytes;
  EXPECT_EQ(pipeline.summary().packets, packets.size());
  EXPECT_EQ(pipeline.summary().total_bytes, total_bytes);
  EXPECT_EQ(pipeline.summary().last_ts, packets.back().timestamp);
}

}  // namespace
}  // namespace fbm
