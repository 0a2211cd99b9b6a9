#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "../support/model_spec.hpp"
#include "api/trace_source.hpp"
#include "scenario/source.hpp"
#include "trace/trace_format.hpp"

namespace fbm {
namespace {

std::vector<net::PacketRecord> tiny_trace() {
  std::vector<net::PacketRecord> out;
  net::FiveTuple t;
  t.src = net::Ipv4Address(10, 0, 0, 1);
  t.dst = net::Ipv4Address(10, 0, 1, 1);
  t.src_port = 1234;
  t.dst_port = 80;
  t.protocol = 6;
  for (int i = 0; i < 5; ++i) {
    out.push_back({0.1 * i, t, static_cast<std::uint32_t>(100 + i)});
  }
  return out;
}

TEST(VectorTraceSource, StreamsInOrder) {
  const auto packets = tiny_trace();
  api::VectorTraceSource source(packets);
  EXPECT_EQ(api::read_all(source), packets);
  net::PacketBatch batch;
  EXPECT_EQ(source.next_batch(batch, 4), 0u);
  EXPECT_EQ(source.next_batch(batch, 4), 0u);  // stays exhausted
  EXPECT_TRUE(batch.empty());
}

TEST(FileTraceSource, StreamsAnFbmtFileWithoutMaterializing) {
  const auto packets = tiny_trace();
  const auto path =
      std::filesystem::temp_directory_path() / "fbm_api_source_test.fbmt";
  trace::write_trace(path, packets);

  api::FileTraceSource source(path);
  EXPECT_EQ(api::read_all(source), packets);
  std::filesystem::remove(path);
}

TEST(OpenTrace, DispatchesOnExtension) {
  const auto packets = tiny_trace();
  const auto dir = std::filesystem::temp_directory_path();
  const auto fbmt = dir / "fbm_api_open_test.fbmt";
  const auto csv = dir / "fbm_api_open_test.csv";
  trace::write_trace(fbmt, packets);
  trace::export_csv(csv, packets);

  for (const auto& path : {fbmt, csv}) {
    SCOPED_TRACE(path.string());
    auto source = api::open_trace(path);
    EXPECT_EQ(api::read_all(*source).size(), packets.size());
  }
  std::filesystem::remove(fbmt);
  std::filesystem::remove(csv);
}

TEST(SyntheticTraceSource, MatchesTheGenerator) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 10.0;
  cfg.apply_defaults();
  cfg.seed = 11;
  const auto direct = trace::generate_packets(cfg);

  api::SyntheticTraceSource source(cfg);
  EXPECT_EQ(source.report().packets, direct.size());
  EXPECT_EQ(api::read_all(source), direct);
}

// The stationary model source: a baseline-only scenario.
scenario::ScenarioSpec model_spec() {
  return testsupport::model_spec(20.0, 50.0, std::log(4e4), 1.0,
                                 std::log(0.5), 0.8, 21);
}

TEST(ModelSource, EmitsTimestampOrderedPacketsInsideTheHorizon) {
  scenario::ScenarioTraceSource source(model_spec());
  double last = -1.0;
  std::uint64_t bytes = 0;
  const auto packets = api::read_all(source);
  for (const auto& p : packets) {
    EXPECT_GE(p.timestamp, last);
    EXPECT_LT(p.timestamp, 20.0);
    EXPECT_GT(p.size_bytes, 0u);
    last = p.timestamp;
    bytes += p.size_bytes;
  }
  EXPECT_GT(source.flows_started(), 500u);  // ~lambda * duration
  EXPECT_LT(source.flows_started(), 1500u);
  EXPECT_GT(packets.size(), source.flows_started());  // multi-packet flows
  // Offered load ~ lambda * E[S]; generous band (horizon truncation).
  const double rate_bps = static_cast<double>(bytes) * 8.0 / 20.0;
  const double expected = 50.0 * 4e4 * std::exp(0.5);  // lognormal mean
  EXPECT_GT(rate_bps, 0.3 * expected);
  EXPECT_LT(rate_bps, 1.5 * expected);
}

TEST(ModelSource, IsDeterministicPerSeed) {
  scenario::ScenarioTraceSource a(model_spec());
  scenario::ScenarioTraceSource b(model_spec());
  const auto pa = api::read_all(a);
  ASSERT_FALSE(pa.empty());
  EXPECT_EQ(pa, api::read_all(b));
}

TEST(ModelSource, RejectsBadConfig) {
  auto spec = model_spec();
  spec.lambda = 0.0;
  EXPECT_THROW(scenario::ScenarioTraceSource{spec}, std::invalid_argument);
  spec = model_spec();
  spec.size_mean_bits = 0.0;
  EXPECT_THROW(scenario::ScenarioTraceSource{spec}, std::invalid_argument);
}

}  // namespace
}  // namespace fbm
