// The differential proof behind fbm::live: replaying a finished trace
// through live::WindowedEstimator reproduces — bit for bit — the parameters
// an offline batch fit computes on each window's packets in isolation.
//
//  1. For any window/stride: the batch primitives (FlowClassifier fed the
//     window's packets, estimate_inputs, measure_rate, fit_power_b,
//     plan_link) run per window on a filtered copy of the trace.
//  2. For tiling windows (stride == width): api::analyze and a sharded
//     batch engine link, whose intervals are exactly the live windows.
//
// Both run across both flow definitions and multiple window/stride shapes
// (tiling, overlapping, gapped), and over the bundled flood scenario, where
// every window after the first runs on a table a closed window grew.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "../support/collect.hpp"
#include "../support/flood.hpp"
#include "../support/push.hpp"
#include "../support/sharded.hpp"
#include "api/api.hpp"
#include "core/fitting.hpp"
#include "core/moments.hpp"
#include "dimension/provisioning.hpp"
#include "flow/classifier.hpp"
#include "flow/interval.hpp"
#include "live/live.hpp"
#include "measure/rate_meter.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

using testsupport::push_all;

std::vector<net::PacketRecord> seeded_trace(double duration_s = 60.0,
                                            double util_bps = 8e6,
                                            std::uint64_t seed = 777) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = duration_s;
  cfg.apply_defaults();
  cfg.target_utilization_bps(util_bps);
  cfg.seed = seed;
  return trace::generate_packets(cfg);
}

/// Everything the acceptance criterion calls "the window parameters".
struct WindowRef {
  flow::ModelInputs inputs;
  measure::RateMoments measured;
  std::optional<double> shot_b;
  double shot_b_used = 1.0;
  double model_cov = 0.0;
  dimension::ProvisioningPlan plan;
};

/// Offline batch fit of one window in isolation, via the PR-1 primitives —
/// not one line shared with the live window bookkeeping.
template <typename Key>
WindowRef batch_fit_window(const std::vector<net::PacketRecord>& packets,
                           double start, double width,
                           const api::AnalysisConfig& cfg) {
  std::vector<net::PacketRecord> inside;
  for (const auto& p : packets) {
    if (p.timestamp >= start && p.timestamp < start + width) {
      inside.push_back(p);
    }
  }

  flow::ClassifierOptions opt;
  opt.timeout = cfg.timeout_s();  // no interval splitting: window = interval
  opt.record_discards = true;
  flow::FlowClassifier<Key> classifier(opt);
  for (const auto& p : inside) classifier.add(p);
  classifier.flush();
  const auto discards = classifier.take_discards();
  auto flows = classifier.take_flows();
  std::sort(flows.begin(), flows.end(), flow::ByStart{});

  WindowRef ref;
  flow::IntervalData iv;
  iv.start = start;
  iv.length = width;
  iv.flows = std::move(flows);
  ref.inputs = flow::estimate_inputs(iv);
  const auto series = measure::measure_rate(inside, start, start + width,
                                            cfg.delta_s(), discards);
  ref.measured = measure::rate_moments(series);
  ref.shot_b = core::fit_power_b(ref.measured.variance_bps2, ref.inputs);
  ref.shot_b_used = ref.shot_b.value_or(cfg.fallback_shot_b());
  ref.model_cov = core::power_shot_cov(ref.inputs, ref.shot_b_used);
  ref.plan = dimension::plan_link(ref.inputs, ref.shot_b_used, cfg.epsilon());
  return ref;
}

void expect_bitwise(const WindowRef& ref, const live::WindowReport& live) {
  EXPECT_EQ(ref.inputs.flows, live.inputs.flows);
  EXPECT_EQ(ref.inputs.lambda, live.inputs.lambda);
  EXPECT_EQ(ref.inputs.mean_size_bits, live.inputs.mean_size_bits);
  EXPECT_EQ(ref.inputs.mean_s2_over_d, live.inputs.mean_s2_over_d);
  EXPECT_EQ(ref.measured.samples, live.measured.samples);
  EXPECT_EQ(ref.measured.mean_bps, live.measured.mean_bps);
  EXPECT_EQ(ref.measured.variance_bps2, live.measured.variance_bps2);
  EXPECT_EQ(ref.measured.cov, live.measured.cov);
  EXPECT_EQ(ref.shot_b.has_value(), live.shot_b.has_value());
  if (ref.shot_b && live.shot_b) {
    EXPECT_EQ(*ref.shot_b, *live.shot_b);
  }
  EXPECT_EQ(ref.shot_b_used, live.shot_b_used);
  EXPECT_EQ(ref.model_cov, live.model_cov);
  EXPECT_EQ(ref.plan.mean_bps, live.plan.mean_bps);
  EXPECT_EQ(ref.plan.stddev_bps, live.plan.stddev_bps);
  EXPECT_EQ(ref.plan.capacity_bps, live.plan.capacity_bps);
  EXPECT_EQ(ref.plan.headroom, live.plan.headroom);
}

template <typename Key>
void run_differential(api::FlowDefinition def, double width, double stride) {
  const auto packets = seeded_trace();

  live::LiveConfig config;
  config.window_s = width;
  config.stride_s = stride;
  config.analysis.flow_definition(def).timeout_s(10.0);
  live::WindowedEstimator estimator(config);
  const auto estimator_reports = testsupport::collect(estimator);
  push_all(estimator, packets);
  estimator.finish();
  const auto reports = estimator_reports->take();
  ASSERT_GT(reports.size(), 3u);

  for (const auto& r : reports) {
    SCOPED_TRACE(r.window_index);
    // The live window start is k*stride; recompute it the same way.
    EXPECT_EQ(r.start_s,
              static_cast<double>(r.window_index) * config.stride());
    const WindowRef ref = batch_fit_window<Key>(packets, r.start_s, width,
                                                config.analysis);
    expect_bitwise(ref, r);
  }

  // Contiguous window indices, one report each.
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].window_index, i);
  }
}

TEST(WindowedDifferential, TilingFiveTuple) {
  run_differential<flow::FiveTupleKey>(api::FlowDefinition::five_tuple, 10.0,
                                       10.0);
}

TEST(WindowedDifferential, TilingPrefix24) {
  run_differential<flow::PrefixKey<24>>(api::FlowDefinition::prefix24, 10.0,
                                        10.0);
}

TEST(WindowedDifferential, OverlappingFiveTuple) {
  run_differential<flow::FiveTupleKey>(api::FlowDefinition::five_tuple, 10.0,
                                       4.0);
}

TEST(WindowedDifferential, OverlappingPrefix24) {
  run_differential<flow::PrefixKey<24>>(api::FlowDefinition::prefix24, 10.0,
                                        4.0);
}

TEST(WindowedDifferential, GappedFiveTuple) {
  run_differential<flow::FiveTupleKey>(api::FlowDefinition::five_tuple, 6.0,
                                       9.0);
}

TEST(WindowedDifferential, GappedPrefix24) {
  run_differential<flow::PrefixKey<24>>(api::FlowDefinition::prefix24, 6.0,
                                        9.0);
}

/// With tiling windows a live window is a batch interval: the live reports
/// and the batch reports of intervals of the window's width agree on every
/// shared field, bit for bit (the batch report differs in rendering only).
/// The tool-level twin is the fbm_analyze/fbm_live differential in
/// tests/tools/test_tools.sh.
void expect_matches_batch(
    const std::vector<live::WindowReport>& live_reports,
    const std::vector<api::AnalysisReport>& batch_reports) {
  ASSERT_EQ(live_reports.size(), batch_reports.size());
  for (std::size_t i = 0; i < live_reports.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& l = live_reports[i];
    const auto& b = batch_reports[i];
    EXPECT_EQ(b.interval_index, l.window_index);
    EXPECT_EQ(b.start_s, l.start_s);
    EXPECT_EQ(b.length_s, l.width_s);
    EXPECT_EQ(b.inputs.flows, l.inputs.flows);
    EXPECT_EQ(b.inputs.lambda, l.inputs.lambda);
    EXPECT_EQ(b.inputs.mean_size_bits, l.inputs.mean_size_bits);
    EXPECT_EQ(b.inputs.mean_s2_over_d, l.inputs.mean_s2_over_d);
    EXPECT_EQ(b.measured.samples, l.measured.samples);
    EXPECT_EQ(b.measured.mean_bps, l.measured.mean_bps);
    EXPECT_EQ(b.measured.variance_bps2, l.measured.variance_bps2);
    EXPECT_EQ(b.measured.cov, l.measured.cov);
    EXPECT_EQ(b.shot_b, l.shot_b);
    EXPECT_EQ(b.shot_b_used, l.shot_b_used);
    EXPECT_EQ(b.model_cov, l.model_cov);
    EXPECT_EQ(b.plan.capacity_bps, l.plan.capacity_bps);
    EXPECT_EQ(b.plan.headroom, l.plan.headroom);
  }
}

TEST(WindowedDifferential, MatchesShardedPipeline) {
  const auto packets = seeded_trace();
  live::LiveConfig config;
  config.window_s = 10.0;
  config.analysis.timeout_s(10.0);
  live::WindowedEstimator estimator(config);
  const auto estimator_reports = testsupport::collect(estimator);
  push_all(estimator, packets);
  estimator.finish();

  api::AnalysisConfig batch = config.analysis;
  batch.interval_s(config.window_s);
  expect_matches_batch(estimator_reports->take(),
                       testsupport::sharded_analyze(packets, batch, 4, 4));
}

/// The flood scenario at the perfbench ddos settings (1 s timeout): a table
/// grown by the flood serves every later window. Each batch size's reports
/// equal the per-window isolation reference, and tiling windows equal
/// api::analyze's intervals at the same batch size.
void run_flood(double width, double stride) {
  const auto packets = testsupport::flood_trace();
  live::LiveConfig config;
  config.window_s = width;
  config.stride_s = stride;
  config.analysis.timeout_s(1.0);

  std::vector<WindowRef> refs;
  for (std::int64_t k = 0;
       static_cast<double>(k) * config.stride() <= packets.back().timestamp;
       ++k) {
    refs.push_back(batch_fit_window<flow::FiveTupleKey>(
        packets, static_cast<double>(k) * config.stride(), width,
        config.analysis));
  }
  ASSERT_GT(static_cast<double>(refs.size()) * config.stride(),
            testsupport::kFloodEnd);

  for (const std::size_t batch_size : {1u, 64u, 4096u}) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    live::WindowedEstimator estimator(config);
    const auto estimator_reports = testsupport::collect(estimator);
    push_all(estimator, packets, batch_size);
    estimator.finish();
    const auto reports = estimator_reports->take();
    ASSERT_EQ(reports.size(), refs.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      SCOPED_TRACE(i);
      ASSERT_EQ(reports[i].window_index, i);
      expect_bitwise(refs[i], reports[i]);
    }
    if (stride == width) {
      api::AnalysisConfig batch = config.analysis;
      batch.interval_s(width).batch_packets(batch_size);
      expect_matches_batch(reports, api::analyze(packets, batch));
    }
  }
}

TEST(WindowedDifferential, FloodTiling) { run_flood(2.0, 2.0); }

TEST(WindowedDifferential, FloodOverlapping) { run_flood(4.0, 1.0); }

/// Replay determinism end to end, forecast and anomaly fields included: the
/// rendered JSONL of two runs over the same stream is byte-identical.
TEST(WindowedDifferential, ReplayIsByteIdentical) {
  const auto packets = seeded_trace(45.0);
  live::LiveConfig config;
  config.window_s = 5.0;
  config.stride_s = 2.0;
  config.analysis.timeout_s(5.0);

  const auto render = [&] {
    live::WindowedEstimator estimator(config);
    std::string out;
    estimator.set_window_sink([&](live::WindowReport&& r) {
      out += live::to_jsonl(r);
      out += '\n';
    });
    push_all(estimator, packets);
    estimator.finish();
    return out;
  };

  const std::string first = render();
  const std::string second = render();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace fbm
