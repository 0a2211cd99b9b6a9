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

#include "api/api.hpp"
#include "stats/distributions.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"

namespace fbm {
namespace {

api::ModelSourceConfig model_config(std::uint64_t seed = 31) {
  api::ModelSourceConfig cfg;
  cfg.duration_s = 15.0;
  cfg.lambda = 40.0;
  cfg.shot_b = 1.0;
  cfg.size_bits = std::make_shared<stats::LogNormal>(std::log(3e4), 1.0);
  cfg.duration_s_dist = std::make_shared<stats::LogNormal>(std::log(0.4), 0.8);
  cfg.seed = seed;
  return cfg;
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
  while (auto p = source.next()) {
    EXPECT_GE(p->timestamp, last) << "timestamps must be non-decreasing";
    last = p->timestamp;
    if (t.packets == 0) t.first_ts = p->timestamp;
    t.last_ts = p->timestamp;
    ++t.packets;
    t.bytes += p->size_bytes;
  }
  return t;
}

TEST(TraceSourceProperties, ModelSourceTimestampsNeverDecrease) {
  api::ModelTraceSource source(model_config());
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
  // The same packets, counted three ways: straight off the source, by the
  // serial pipeline's summary, and by the sharded pipeline's summary. All
  // must agree exactly — bytes are integers, nothing may leak.
  const auto count = [](api::TraceSource& s) {
    SourceTotals t;
    s.for_each([&](const net::PacketRecord& p) {
      ++t.packets;
      t.bytes += p.size_bytes;
    });
    return t;
  };

  api::ModelTraceSource direct(model_config());
  const auto totals = count(direct);
  ASSERT_GT(totals.packets, 0u);

  api::AnalysisConfig config;
  config.interval_s(5.0).timeout_s(1.0);

  api::ModelTraceSource for_serial(model_config());
  api::AnalysisPipeline serial(config);
  serial.consume(for_serial);
  EXPECT_EQ(serial.summary().packets, totals.packets);
  EXPECT_EQ(serial.summary().total_bytes, totals.bytes);

  api::ModelTraceSource for_parallel(model_config());
  api::AnalysisPipeline parallel(config.threads(4));
  parallel.consume(for_parallel);
  EXPECT_EQ(parallel.summary().packets, totals.packets);
  EXPECT_EQ(parallel.summary().total_bytes, totals.bytes);
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
  api::ModelTraceSource source(model_config(77));
  std::vector<net::PacketRecord> original;
  source.for_each(
      [&](const net::PacketRecord& p) { original.push_back(p); });
  trace::write_trace(path, original);

  api::FileTraceSource file(path);
  EXPECT_EQ(file.count_hint(), original.size());
  std::size_t i = 0;
  std::uint64_t bytes = 0;
  while (auto p = file.next()) {
    ASSERT_LT(i, original.size());
    EXPECT_EQ(*p, original[i]);
    bytes += p->size_bytes;
    ++i;
  }
  EXPECT_EQ(i, original.size());
  std::uint64_t expected_bytes = 0;
  for (const auto& p : original) expected_bytes += p.size_bytes;
  EXPECT_EQ(bytes, expected_bytes);
  std::filesystem::remove(path);
}

TEST(TraceSourceProperties, ModelSourceSeedReproducibility) {
  // Same seed: identical packet streams. Different seed: the streams must
  // diverge (same length by coincidence is possible, identical content is
  // not).
  api::ModelTraceSource a(model_config(123));
  api::ModelTraceSource b(model_config(123));
  api::ModelTraceSource c(model_config(124));
  std::vector<net::PacketRecord> pa;
  std::vector<net::PacketRecord> pb;
  std::vector<net::PacketRecord> pc;
  a.for_each([&](const net::PacketRecord& p) { pa.push_back(p); });
  b.for_each([&](const net::PacketRecord& p) { pb.push_back(p); });
  c.for_each([&](const net::PacketRecord& p) { pc.push_back(p); });
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "packet " << i;
  }
  EXPECT_NE(pa, pc);
}

TEST(TraceSourceProperties, SeedReproducibilitySurvivesThePipeline) {
  // End to end: two pipelines fed from two same-seed sources produce
  // byte-identical JSON (the golden test's premise, proven here from the
  // source side).
  api::AnalysisConfig config;
  config.interval_s(5.0).timeout_s(1.0);
  const auto run = [&config](std::uint64_t seed) {
    api::ModelTraceSource source(model_config(seed));
    api::AnalysisPipeline pipeline(config);
    pipeline.consume(source);
    const auto reports = pipeline.take_reports();
    return api::to_json(pipeline.summary(), reports);
  };
  EXPECT_EQ(run(55), run(55));
  EXPECT_NE(run(55), run(56));
}

}  // namespace
}  // namespace fbm
