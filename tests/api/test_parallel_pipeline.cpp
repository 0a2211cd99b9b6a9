// Differential determinism harness: AnalysisPipeline sharded over N threads
// must reproduce the single-threaded run bit for bit — every report field,
// for every thread count, both flow definitions, any packet batching, and
// across the awkward cases (interval-boundary splits, timeout expiry, equal
// timestamps, single-packet discards, empty leading intervals).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../support/push.hpp"
#include "api/api.hpp"
#include "api/shard.hpp"
#include "flow/classifier.hpp"
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

/// Every field of every report, compared with exact (bitwise for doubles)
/// equality — the parallel pipeline promises identity, not closeness.
void expect_reports_identical(const std::vector<api::AnalysisReport>& serial,
                              const std::vector<api::AnalysisReport>& par) {
  ASSERT_EQ(serial.size(), par.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("report " + std::to_string(i));
    const auto& s = serial[i];
    const auto& p = par[i];
    EXPECT_EQ(s.interval_index, p.interval_index);
    EXPECT_EQ(s.start_s, p.start_s);
    EXPECT_EQ(s.length_s, p.length_s);

    EXPECT_EQ(s.inputs.flows, p.inputs.flows);
    EXPECT_EQ(s.inputs.lambda, p.inputs.lambda);
    EXPECT_EQ(s.inputs.mean_size_bits, p.inputs.mean_size_bits);
    EXPECT_EQ(s.inputs.mean_s2_over_d, p.inputs.mean_s2_over_d);
    EXPECT_EQ(s.continued_flows, p.continued_flows);

    EXPECT_EQ(s.measured.samples, p.measured.samples);
    EXPECT_EQ(s.measured.mean_bps, p.measured.mean_bps);
    EXPECT_EQ(s.measured.variance_bps2, p.measured.variance_bps2);
    EXPECT_EQ(s.measured.cov, p.measured.cov);

    ASSERT_EQ(s.shot_b.has_value(), p.shot_b.has_value());
    if (s.shot_b) {
      EXPECT_EQ(*s.shot_b, *p.shot_b);
    }
    EXPECT_EQ(s.shot_b_used, p.shot_b_used);
    EXPECT_EQ(s.model_cov, p.model_cov);

    EXPECT_EQ(s.plan.mean_bps, p.plan.mean_bps);
    EXPECT_EQ(s.plan.stddev_bps, p.plan.stddev_bps);
    EXPECT_EQ(s.plan.cov, p.plan.cov);
    EXPECT_EQ(s.plan.capacity_bps, p.plan.capacity_bps);
    EXPECT_EQ(s.plan.headroom, p.plan.headroom);
    EXPECT_EQ(s.plan.eps, p.plan.eps);

    expect_flows_identical(s.interval.flows, p.interval.flows);
  }
}

void expect_differential(const std::vector<net::PacketRecord>& packets,
                         api::AnalysisConfig config) {
  config.threads(1);
  const auto serial = api::analyze(packets, config);
  ASSERT_FALSE(serial.empty());
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    api::AnalysisPipeline pipeline(config.threads(threads));
    push_all(pipeline, packets, 1);
    pipeline.finish();
    expect_reports_identical(serial, pipeline.take_reports());
  }
}

TEST(ParallelDifferential, FiveTupleAcrossThreadCounts) {
  api::AnalysisConfig config;
  config.interval_s(15.0).timeout_s(1.0).keep_flows(true);
  expect_differential(seeded_trace(), config);
}

TEST(ParallelDifferential, Prefix24AcrossThreadCounts) {
  api::AnalysisConfig config;
  config.flow_definition(api::FlowDefinition::prefix24)
      .interval_s(20.0)
      .timeout_s(1.0)
      .keep_flows(true);
  expect_differential(seeded_trace(60.0, 6e6, 99), config);
}

TEST(ParallelDifferential, PaperTimeoutWholeTraceInterval) {
  // The quickstart setting: one interval spanning the capture, 60 s paper
  // timeout — nothing expires before the final flush, so the merge happens
  // entirely at finish().
  api::AnalysisConfig config;
  config.interval_s(40.0).timeout_s(60.0).keep_flows(true);
  expect_differential(seeded_trace(40.0, 10e6, 7), config);
}

TEST(ParallelDifferential, BatchSizeDoesNotChangeResults) {
  const auto packets = seeded_trace(30.0, 6e6, 11);
  api::AnalysisConfig config;
  config.interval_s(10.0).timeout_s(1.0).keep_flows(true).threads(1);
  const auto serial = api::analyze(packets, config);
  ASSERT_FALSE(serial.empty());
  for (const std::size_t batch : {1u, 3u, 64u, 4096u}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    config.threads(4).batch_packets(batch);
    expect_reports_identical(serial, api::analyze(packets, config));
  }
}

TEST(ParallelDifferential, HandCraftedBoundaryAndTimeoutEdges) {
  // Flow A straddles the interval boundary (split, continuation piece);
  // flow B goes idle past the timeout mid-interval and restarts (two
  // flows); flow C is a single packet (discarded, bytes subtracted from the
  // rate bins); flows D/E share one timestamp (tie-broken sort); nothing
  // arrives in interval 2 (empty interval between populated ones).
  const auto tup = [](std::uint32_t host, std::uint16_t port) {
    net::FiveTuple t;
    t.src = net::Ipv4Address(10, 0, 0, 1);
    t.dst = net::Ipv4Address{host};
    t.src_port = port;
    t.dst_port = 80;
    t.protocol = 6;
    return t;
  };
  const auto A = tup(0x0a000002, 1000);
  const auto B = tup(0x0a000003, 2000);
  const auto C = tup(0x0a000004, 3000);
  const auto D = tup(0x0a000005, 4000);
  const auto E = tup(0x0a000006, 5000);

  std::vector<net::PacketRecord> packets{
      {0.10, D, 500},  {0.10, E, 500},   // equal timestamps
      {0.20, A, 1000}, {0.50, B, 700},
      {0.90, D, 500},  {0.90, E, 500},
      {1.20, B, 700},                     // B continues before timeout
      {3.00, C, 400},                     // single packet -> discard
      {4.50, B, 700},                     // B idle 3.3 s > 2 s: new flow
      {9.80, A, 1000},                    // A idle but same interval? no:
      {10.3, A, 1000},                    // A crosses the t=10 boundary
      {30.5, A, 1000}, {30.9, A, 1000},   // interval 3 after empty interval 2
  };

  for (const auto def :
       {api::FlowDefinition::five_tuple, api::FlowDefinition::prefix24}) {
    SCOPED_TRACE(def == api::FlowDefinition::five_tuple ? "5-tuple" : "/24");
    api::AnalysisConfig config;
    config.flow_definition(def)
        .interval_s(10.0)
        .timeout_s(2.0)
        .delta_s(0.5)
        .keep_flows(true);
    expect_differential(packets, config);
  }
}

TEST(ParallelDifferential, MinFlowsFilterMatchesSerial) {
  const auto packets = seeded_trace(30.0, 6e6, 13);
  api::AnalysisConfig config;
  config.interval_s(5.0).timeout_s(1.0).min_flows(25);
  config.threads(1);
  const auto serial = api::analyze(packets, config);
  config.threads(4);
  const auto par = api::analyze(packets, config);
  expect_reports_identical(serial, par);
}

TEST(ParallelDifferential, FixedShotMatchesSerial) {
  const auto packets = seeded_trace(30.0, 6e6, 17);
  api::AnalysisConfig config;
  config.interval_s(10.0).timeout_s(1.0).fixed_shot_b(0.0);
  config.threads(1);
  const auto serial = api::analyze(packets, config);
  config.threads(3);
  expect_reports_identical(serial, api::analyze(packets, config));
}

TEST(ParallelStreaming, MidStreamPopsPreserveTheSerialSequence) {
  const auto packets = seeded_trace();
  api::AnalysisConfig config;
  config.interval_s(10.0).timeout_s(1.0);
  const auto serial = api::analyze(packets, config);

  api::AnalysisPipeline pipeline(config.threads(4));
  std::vector<api::AnalysisReport> streamed;
  for (const auto& p : packets) {
    push_one(pipeline, p);
    while (pipeline.has_report()) streamed.push_back(pipeline.pop_report());
  }
  pipeline.finish();
  for (auto& r : pipeline.take_reports()) streamed.push_back(std::move(r));
  expect_reports_identical(serial, streamed);
}

TEST(ParallelSummary, MatchesSerialAndTraceTotals) {
  const auto packets = seeded_trace(30.0, 6e6, 19);
  api::AnalysisConfig config;
  config.interval_s(10.0).timeout_s(1.0);

  api::AnalysisPipeline serial(config);
  push_all(serial, packets);
  serial.finish();

  api::AnalysisPipeline par(config.threads(4));
  push_all(par, packets);
  par.finish();

  EXPECT_EQ(par.summary().packets, serial.summary().packets);
  EXPECT_EQ(par.summary().total_bytes, serial.summary().total_bytes);
  EXPECT_EQ(par.summary().first_ts, serial.summary().first_ts);
  EXPECT_EQ(par.summary().last_ts, serial.summary().last_ts);

  const auto pc = par.counters();
  const auto& sc = serial.counters();
  EXPECT_EQ(pc.packets, sc.packets);
  EXPECT_EQ(pc.flows_emitted, sc.flows_emitted);
  EXPECT_EQ(pc.single_packet_discards, sc.single_packet_discards);
  EXPECT_EQ(pc.boundary_splits, sc.boundary_splits);
  EXPECT_EQ(par.active_flows(), 0u);
}

TEST(ParallelConfig, RejectsBadParameters) {
  EXPECT_THROW(api::AnalysisPipeline(api::AnalysisConfig{}.timeout_s(0.0)),
               std::invalid_argument);
  // threads(0) is not bad — it auto-detects the core count (see
  // test_threads_auto.cpp).
  EXPECT_NO_THROW(api::AnalysisPipeline(api::AnalysisConfig{}.threads(0)));
  EXPECT_THROW(api::AnalysisPipeline(api::AnalysisConfig{}.batch_packets(0)),
               std::invalid_argument);
}

TEST(ParallelConfig, OutOfOrderPacketThrows) {
  api::AnalysisPipeline pipeline(api::AnalysisConfig{}.threads(2));
  push_one(pipeline, {1.0, {}, 100});
  EXPECT_THROW(push_one(pipeline, {0.5, {}, 100}), std::invalid_argument);
}

TEST(ParallelConfig, PushAfterFinishThrows) {
  api::AnalysisPipeline pipeline(api::AnalysisConfig{}.threads(2));
  push_one(pipeline, {0.0, {}, 100});
  pipeline.finish();
  EXPECT_THROW(push_one(pipeline, {1.0, {}, 100}), std::logic_error);
}

TEST(ParallelConfig, EmptyStreamFinishesCleanly) {
  api::AnalysisPipeline pipeline(api::AnalysisConfig{}.threads(4));
  pipeline.finish();
  EXPECT_FALSE(pipeline.has_report());
  EXPECT_TRUE(pipeline.take_reports().empty());
  EXPECT_EQ(pipeline.summary().packets, 0u);
}

TEST(ParallelShardRouting, StablePerKeyAndCoversAllShards) {
  const auto packets = seeded_trace(20.0, 6e6, 23);
  std::vector<std::size_t> hits(7, 0);
  for (const auto& p : packets) {
    const std::size_t s =
        api::flow_shard_of(p.tuple, api::FlowDefinition::five_tuple, 7);
    ASSERT_LT(s, 7u);
    EXPECT_EQ(s,
              api::flow_shard_of(p.tuple, api::FlowDefinition::five_tuple, 7));
    ++hits[s];
  }
  for (std::size_t s = 0; s < hits.size(); ++s) {
    EXPECT_GT(hits[s], 0u) << "shard " << s << " never hit";
  }
  // One shard: everything maps to 0.
  EXPECT_EQ(api::flow_shard_of(packets.front().tuple,
                               api::FlowDefinition::prefix24, 1),
            0u);
}

}  // namespace
}  // namespace fbm
