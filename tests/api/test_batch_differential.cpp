// Differential harness for the batched SoA hot path: every stage's one
// entry point (AnalysisPipeline::push_batch at every thread count,
// live::WindowedEstimator::push_batch, engine::Engine::push_batch) must give bit for bit the same output at every
// batch size as a run fed one packet per batch — across flow definitions,
// thread counts {1, 2, 4}, batch sizes {1, 7, 1024}, random split points,
// tiling, overlapping and gapped windows, and the awkward edge packets
// (exact interval-boundary multiples, timeout gaps, equal timestamps,
// negative-free but zero-start streams). TraceSource::next_batch must
// deliver exactly what next() does, for every source.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "../support/push.hpp"
#include "api/api.hpp"
#include "engine/engine.hpp"
#include "live/live.hpp"
#include "net/packet_batch.hpp"
#include "stats/distributions.hpp"
#include "trace/pcap.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"

namespace fbm {
namespace {

using testsupport::push_all;
using testsupport::push_split;

constexpr std::size_t kBatchSizes[] = {1, 7, 1024};

std::vector<net::PacketRecord> seeded_trace(double duration_s = 45.0,
                                            double util_bps = 8e6,
                                            std::uint64_t seed = 777) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = duration_s;
  cfg.apply_defaults();
  cfg.target_utilization_bps(util_bps);
  cfg.seed = seed;
  return trace::generate_packets(cfg);
}

/// Edge-case stream: packets exactly on interval multiples, a timeout gap,
/// equal timestamps across distinct keys, and a lone continuation piece.
std::vector<net::PacketRecord> edge_trace() {
  std::vector<net::PacketRecord> out;
  const auto add = [&](double ts, std::uint16_t port, std::uint32_t bytes) {
    net::PacketRecord p;
    p.timestamp = ts;
    p.tuple.src = net::Ipv4Address(10, 0, 0, 1);
    p.tuple.dst = net::Ipv4Address(10, 1, 0, 1);
    p.tuple.src_port = port;
    p.tuple.dst_port = 80;
    p.tuple.protocol = 6;
    p.size_bytes = bytes;
    out.push_back(p);
  };
  add(0.0, 1000, 100);   // stream starts exactly at an interval boundary
  add(0.0, 2000, 120);   // equal timestamp, distinct key
  add(7.5, 1000, 100);
  add(14.9, 1000, 80);
  add(15.0, 1000, 60);   // exactly on the 15 s interval multiple
  add(15.0, 2000, 50);   // equal timestamp at the boundary
  add(29.9, 2000, 70);
  add(30.0, 3000, 40);   // new key born exactly on a boundary
  add(31.0, 1000, 90);   // > 1 s timeout gap for key 1000: flow restart
  add(31.2, 1000, 30);
  add(44.0, 3000, 20);   // lone continuation material near the tail
  return out;
}

api::AnalysisConfig edge_config() {
  api::AnalysisConfig config;
  config.interval_s(15.0).timeout_s(1.0).min_flows(0).keep_flows(true);
  return config;
}

void expect_flows_identical(const std::vector<flow::FlowRecord>& a,
                            const std::vector<flow::FlowRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("flow " + std::to_string(i));
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].size_bytes, b[i].size_bytes);
    EXPECT_EQ(a[i].packets, b[i].packets);
    EXPECT_EQ(a[i].continued, b[i].continued);
  }
}

void expect_reports_identical(const std::vector<api::AnalysisReport>& a,
                              const std::vector<api::AnalysisReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("report " + std::to_string(i));
    EXPECT_EQ(a[i].interval_index, b[i].interval_index);
    EXPECT_EQ(a[i].start_s, b[i].start_s);
    EXPECT_EQ(a[i].inputs.flows, b[i].inputs.flows);
    EXPECT_EQ(a[i].inputs.lambda, b[i].inputs.lambda);
    EXPECT_EQ(a[i].inputs.mean_size_bits, b[i].inputs.mean_size_bits);
    EXPECT_EQ(a[i].inputs.mean_s2_over_d, b[i].inputs.mean_s2_over_d);
    EXPECT_EQ(a[i].continued_flows, b[i].continued_flows);
    EXPECT_EQ(a[i].measured.samples, b[i].measured.samples);
    EXPECT_EQ(a[i].measured.mean_bps, b[i].measured.mean_bps);
    EXPECT_EQ(a[i].measured.variance_bps2, b[i].measured.variance_bps2);
    EXPECT_EQ(a[i].measured.cov, b[i].measured.cov);
    EXPECT_EQ(a[i].shot_b_used, b[i].shot_b_used);
    EXPECT_EQ(a[i].model_cov, b[i].model_cov);
    EXPECT_EQ(a[i].plan.capacity_bps, b[i].plan.capacity_bps);
    expect_flows_identical(a[i].interval.flows, b[i].interval.flows);
  }
}

/// One-packet-per-batch reference vs push_batch at every batch size and
/// thread count.
void expect_batched_matches_per_packet(
    const std::vector<net::PacketRecord>& packets,
    api::AnalysisConfig config) {
  config.threads(1);
  api::AnalysisPipeline reference(config);
  push_all(reference, packets, 1);
  reference.finish();
  const auto expected = reference.take_reports();

  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t batch_size : kBatchSizes) {
      SCOPED_TRACE(std::to_string(threads) + " threads, batch " +
                   std::to_string(batch_size));
      api::AnalysisPipeline pipeline(config.threads(threads));
      push_all(pipeline, packets, batch_size);
      pipeline.finish();
      expect_reports_identical(expected, pipeline.take_reports());
    }
  }
}

TEST(BatchDifferential, FiveTupleSeededTrace) {
  api::AnalysisConfig config;
  config.interval_s(15.0).timeout_s(1.0).keep_flows(true);
  expect_batched_matches_per_packet(seeded_trace(), config);
}

TEST(BatchDifferential, Prefix24SeededTrace) {
  api::AnalysisConfig config;
  config.flow_definition(api::FlowDefinition::prefix24)
      .interval_s(20.0)
      .timeout_s(1.0)
      .keep_flows(true);
  expect_batched_matches_per_packet(seeded_trace(45.0, 6e6, 31), config);
}

TEST(BatchDifferential, BoundaryAndTimeoutEdgePackets) {
  expect_batched_matches_per_packet(edge_trace(), edge_config());
}

// ------------------------------------------------------- source batching ---

/// next_batch must yield exactly the packets next() yields, in order, for
/// every max_n — every source overrides it natively now, so each override
/// is pinned against its own scalar path.
void expect_source_batches_match(api::TraceSource& batched,
                                 api::TraceSource& scalar,
                                 std::size_t batch_size) {
  net::PacketBatch batch;
  std::uint64_t seen = 0;
  while (batched.next_batch(batch, batch_size) > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto expected = scalar.next();
      ASSERT_TRUE(expected.has_value()) << "packet " << seen;
      EXPECT_EQ(batch.record(i), *expected) << "packet " << seen;
      ++seen;
    }
  }
  EXPECT_FALSE(scalar.next().has_value());
}

TEST(BatchDifferential, VectorSourceBatches) {
  const auto packets = seeded_trace(10.0);
  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    api::VectorTraceSource batched(packets);
    api::VectorTraceSource scalar(packets);
    expect_source_batches_match(batched, scalar, batch_size);
  }
}

TEST(BatchDifferential, FbmtFileSourceBatches) {
  const auto packets = seeded_trace(10.0);
  const auto path = std::filesystem::temp_directory_path() /
                    "fbm_batch_differential.fbmt";
  trace::write_trace(path, packets);
  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    api::FileTraceSource batched(path);
    api::FileTraceSource scalar(path);
    expect_source_batches_match(batched, scalar, batch_size);
  }
  std::filesystem::remove(path);
}

TEST(BatchDifferential, PcapSourceBatches) {
  const auto packets = seeded_trace(10.0);
  const auto path = std::filesystem::temp_directory_path() /
                    "fbm_batch_differential.pcap";
  trace::export_pcap(path, packets);
  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    api::PcapTraceSource batched(path);
    api::PcapTraceSource scalar(path);
    expect_source_batches_match(batched, scalar, batch_size);
  }
  std::filesystem::remove(path);
}

// Bit-pins the native ModelTraceSource::next_batch override (shared step()
// core) against the scalar next() stream.
TEST(BatchDifferential, ModelSourceBatchesNatively) {
  api::ModelSourceConfig cfg;
  cfg.duration_s = 15.0;
  cfg.lambda = 40.0;
  cfg.shot_b = 1.0;
  cfg.size_bits = std::make_shared<stats::LogNormal>(std::log(4e4), 1.0);
  cfg.duration_s_dist =
      std::make_shared<stats::LogNormal>(std::log(0.5), 0.8);
  cfg.seed = 21;
  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    api::ModelTraceSource batched(cfg);
    api::ModelTraceSource scalar(cfg);
    expect_source_batches_match(batched, scalar, batch_size);
  }
}

// --------------------------------------------------------- live batching ---

void expect_window_reports_identical(
    const std::vector<live::WindowReport>& a,
    const std::vector<live::WindowReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(a[i].window_index, b[i].window_index);
    EXPECT_EQ(a[i].packets, b[i].packets);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].discards, b[i].discards);
    EXPECT_EQ(a[i].inputs.flows, b[i].inputs.flows);
    EXPECT_EQ(a[i].inputs.lambda, b[i].inputs.lambda);
    EXPECT_EQ(a[i].measured.mean_bps, b[i].measured.mean_bps);
    EXPECT_EQ(a[i].measured.variance_bps2, b[i].measured.variance_bps2);
    EXPECT_EQ(a[i].shot_b_used, b[i].shot_b_used);
    EXPECT_EQ(a[i].plan.capacity_bps, b[i].plan.capacity_bps);
    EXPECT_EQ(a[i].anomaly.alert, b[i].anomaly.alert);
    EXPECT_EQ(a[i].anomaly.deviation_sigma, b[i].anomaly.deviation_sigma);
  }
}

/// One-packet-per-batch reference vs every batch size in kBatchSizes and
/// several random split patterns (batches of 1..64, size 1 frequent).
void expect_live_batches_match(const std::vector<net::PacketRecord>& packets,
                               const live::LiveConfig& config) {
  live::WindowedEstimator reference(config);
  push_all(reference, packets, 1);
  reference.finish();
  const auto expected = reference.take_reports();
  ASSERT_FALSE(expected.empty());

  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    live::WindowedEstimator batched(config);
    push_all(batched, packets, batch_size);
    batched.finish();
    expect_window_reports_identical(expected, batched.take_reports());
  }
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("random splits, seed " + std::to_string(seed));
    live::WindowedEstimator batched(config);
    push_split(batched, packets, seed);
    batched.finish();
    expect_window_reports_identical(expected, batched.take_reports());
  }
}

TEST(BatchDifferential, LiveWindowedEstimatorTiled) {
  live::LiveConfig config;
  config.window_s = 10.0;  // stride defaults to the width: tiling
  config.analysis.timeout_s(1.0).min_flows(0);
  expect_live_batches_match(seeded_trace(45.0, 8e6, 55), config);
}

TEST(BatchDifferential, LiveWindowedEstimatorOverlapping) {
  // Every run feeds all the open windows that contain it.
  live::LiveConfig config;
  config.window_s = 10.0;
  config.stride_s = 5.0;
  config.analysis.timeout_s(1.0).min_flows(0);
  expect_live_batches_match(seeded_trace(30.0, 6e6, 56), config);
}

TEST(BatchDifferential, LiveWindowedEstimatorOverlappingUneven) {
  // Width not a multiple of the stride: a packet sits in 2 or 3 windows.
  live::LiveConfig config;
  config.window_s = 7.0;
  config.stride_s = 3.0;
  config.analysis.timeout_s(1.0).min_flows(0);
  expect_live_batches_match(seeded_trace(30.0, 6e6, 58), config);
}

TEST(BatchDifferential, LiveWindowedEstimatorGapped) {
  // stride > width: runs inside a gap feed no window at all.
  live::LiveConfig config;
  config.window_s = 4.0;
  config.stride_s = 6.0;
  config.analysis.timeout_s(1.0).min_flows(0);
  expect_live_batches_match(seeded_trace(30.0, 6e6, 59), config);
}

// ------------------------------------------------------- engine batching ---

TEST(BatchDifferential, EngineMultiLinkAcrossThreadsAndBatchSizes) {
  const auto packets = seeded_trace(30.0, 8e6, 57);

  engine::EngineConfig base;
  base.mode = engine::EngineMode::batch;
  base.analysis.interval_s(10.0).timeout_s(1.0).min_flows(0);

  const auto attach_links = [](engine::Engine& eng) {
    (void)eng.attach(engine::parse_link_spec("agg=all"));
    (void)eng.attach(engine::parse_link_spec("left=10.0.0.0/16"));
    (void)eng.attach(engine::parse_link_spec("right=10.1.0.0/16"));
    engine::LinkSpec tuple;
    tuple.name = "web";
    engine::MatchTuple rule;
    rule.dst_port = 80;
    tuple.rule = rule;
    (void)eng.attach(std::move(tuple));
  };

  /// Per-link report sequences, keyed by link id (cross-link interleaving
  /// is explicitly unpinned — batching changes it).
  using PerLink = std::vector<std::vector<api::AnalysisReport>>;
  const auto collect_into = [](engine::Engine& eng, PerLink& out) {
    out.clear();
    out.resize(4);
    eng.set_report_sink([&out](engine::LinkReport&& r) {
      ASSERT_TRUE(r.interval.has_value());
      out[r.link].push_back(std::move(*r.interval));
    });
  };

  engine::Engine reference(base);
  PerLink expected;
  collect_into(reference, expected);
  attach_links(reference);
  push_all(reference, packets, 1);
  reference.finish();
  for (const auto& link : expected) ASSERT_FALSE(link.empty());

  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t batch_size : kBatchSizes) {
      SCOPED_TRACE(std::to_string(threads) + " threads, batch " +
                   std::to_string(batch_size));
      engine::EngineConfig cfg = base;
      cfg.threads = threads;
      engine::Engine eng(cfg);
      PerLink got;
      collect_into(eng, got);
      attach_links(eng);
      push_all(eng, packets, batch_size);
      eng.finish();
      for (std::size_t link = 0; link < expected.size(); ++link) {
        SCOPED_TRACE("link " + std::to_string(link));
        expect_reports_identical(expected[link], got[link]);
      }
    }
  }
}

}  // namespace
}  // namespace fbm
