// Property tests over every TraceSource implementation: timestamps never
// decrease, byte counts are conserved from source to pipeline summary to
// rate bins, and the model-driven source is exactly reproducible per seed.
// These are the invariants the analysis pipelines (serial and sharded)
// lean on; a source that violated them would poison everything downstream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <vector>

#include "../support/collect.hpp"
#include "../support/model_spec.hpp"
#include "../support/sharded.hpp"
#include "api/api.hpp"
#include "scenario/source.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"

namespace fbm {
namespace {

/// The stationary model source: a baseline-only scenario.
scenario::ScenarioTraceSource model_source(std::uint64_t seed = 31) {
  return scenario::ScenarioTraceSource(testsupport::model_spec(
      15.0, 40.0, std::log(3e4), 1.0, std::log(0.4), 0.8, seed));
}

struct SourceTotals {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  double first_ts = 0.0;
  double last_ts = 0.0;
};

/// Drains the source, asserting the ordering property as it goes.
SourceTotals drain_checking_order(api::TraceSource& source) {
  SourceTotals t;
  double last = -std::numeric_limits<double>::infinity();
  net::PacketBatch batch;
  while (source.next_batch(batch, 256) > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double ts = batch.timestamps[i];
      EXPECT_GE(ts, last) << "timestamps must be non-decreasing";
      last = ts;
      if (t.packets == 0) t.first_ts = ts;
      t.last_ts = ts;
      ++t.packets;
      t.bytes += batch.sizes[i];
    }
  }
  return t;
}

TEST(TraceSourceProperties, ModelSourceTimestampsNeverDecrease) {
  auto source = model_source();
  const auto totals = drain_checking_order(source);
  EXPECT_GT(totals.packets, 0u);
}

TEST(TraceSourceProperties, SyntheticSourceTimestampsNeverDecrease) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 20.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(4e6);
  cfg.seed = 5;
  api::SyntheticTraceSource source(cfg);
  const auto totals = drain_checking_order(source);
  EXPECT_GT(totals.packets, 0u);
}

TEST(TraceSourceProperties, BytesConservedFromSourceThroughPipelines) {
  // The same packets, counted three ways: straight off the source, by a
  // lone estimator's counters, and by a sharded engine link's summary. All
  // must agree exactly — bytes are integers, nothing may leak.
  auto direct = model_source();
  const auto totals = drain_checking_order(direct);
  ASSERT_GT(totals.packets, 0u);

  api::AnalysisConfig config;
  config.interval_s(5.0).timeout_s(1.0);

  auto for_serial = model_source();
  live::WindowedEstimator serial(live::batch_windows(config));
  (void)testsupport::collect_intervals(serial, config);
  (void)serial.consume(for_serial);
  EXPECT_EQ(serial.counters().packets, totals.packets);
  EXPECT_EQ(serial.counters().bytes, totals.bytes);

  auto for_parallel = model_source();
  auto parallel = testsupport::sharded_engine(config, 4, 4);
  (void)testsupport::collect(*parallel);
  (void)parallel->consume(for_parallel);
  EXPECT_EQ(parallel->summary().packets, totals.packets);
  EXPECT_EQ(parallel->summary().total_bytes, totals.bytes);
  EXPECT_EQ(parallel->links().at(0).counters.packets, totals.packets);
  EXPECT_EQ(parallel->links().at(0).counters.bytes, totals.bytes);
}

TEST(TraceSourceProperties, SyntheticReportMatchesStreamedTotals) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 15.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(3e6);
  cfg.seed = 9;
  api::SyntheticTraceSource source(cfg);
  const auto& report = source.report();
  const auto totals = drain_checking_order(source);
  EXPECT_EQ(totals.packets, report.packets);
  EXPECT_EQ(totals.bytes, report.total_bytes);
}

TEST(TraceSourceProperties, FileRoundTripConservesEverything) {
  const auto path =
      std::filesystem::temp_directory_path() / "fbm_props_roundtrip.fbmt";
  auto source = model_source(77);
  const auto original = api::read_all(source);
  ASSERT_FALSE(original.empty());
  trace::write_trace(path, original);

  api::FileTraceSource file(path);
  EXPECT_EQ(api::read_all(file), original);
  std::filesystem::remove(path);
}

TEST(TraceSourceProperties, ModelSourceSeedReproducibility) {
  // Same seed: identical packet streams. Different seed: the streams must
  // diverge (same length by coincidence is possible, identical content is
  // not).
  auto a = model_source(123);
  auto b = model_source(123);
  auto c = model_source(124);
  const auto pa = api::read_all(a);
  const auto pb = api::read_all(b);
  const auto pc = api::read_all(c);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "packet " << i;
  }
  EXPECT_NE(pa, pc);
}

TEST(TraceSourceProperties, SeedReproducibilitySurvivesThePipeline) {
  // End to end: two engines fed from two same-seed sources produce
  // byte-identical JSON (the golden test's premise, proven here from the
  // source side).
  api::AnalysisConfig config;
  config.interval_s(5.0).timeout_s(1.0);
  const auto run = [&config](std::uint64_t seed) {
    auto source = model_source(seed);
    auto eng = testsupport::sharded_engine(config, 1, 1);
    const auto eng_reports = testsupport::collect(*eng);
    (void)eng->consume(source);
    std::vector<api::AnalysisReport> reports;
    for (auto& r : eng_reports->take()) {
      reports.push_back(std::move(*r.interval));
    }
    return api::to_json(eng->summary(), reports);
  };
  EXPECT_EQ(run(55), run(55));
  EXPECT_NE(run(55), run(56));
}

}  // namespace
}  // namespace fbm
