// Differential determinism harness: one engine link cut into K flow-hash
// shards (EngineConfig::shards, folded per window) must reproduce a single
// estimator (api::analyze) bit for bit — every report field, for every
// shard count, inline and threaded pools, both flow definitions, any packet
// batching, and across the awkward cases (flows crossing an interval edge,
// timeout expiry, equal timestamps, single-packet discards, empty leading
// intervals).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "../support/collect.hpp"
#include "../support/push.hpp"
#include "../support/sharded.hpp"
#include "api/api.hpp"
#include "api/shard.hpp"
#include "live/windowed_estimator.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

using testsupport::collect;
using testsupport::push_all;
using testsupport::push_one;
using testsupport::sharded_analyze;
using testsupport::sharded_engine;

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

/// Every field of every report, compared with exact (bitwise for doubles)
/// equality — a sharded link promises identity, not closeness.
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
  }
}

void expect_differential(const std::vector<net::PacketRecord>& packets,
                         const api::AnalysisConfig& config) {
  const auto serial = api::analyze(packets, config);
  ASSERT_FALSE(serial.empty());
  // K = 1 runs inline, every other K both inline and on K workers.
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    for (std::size_t threads = 1; threads <= shards; threads += shards - 1) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      expect_reports_identical(
          serial, sharded_analyze(packets, config, shards, threads, 1));
      if (shards == 1) break;
    }
  }
}

TEST(ParallelDifferential, FiveTupleAcrossThreadCounts) {
  api::AnalysisConfig config;
  config.interval_s(15.0).timeout_s(1.0);
  expect_differential(seeded_trace(), config);
}

TEST(ParallelDifferential, Prefix24AcrossThreadCounts) {
  api::AnalysisConfig config;
  config.flow_definition(api::FlowDefinition::prefix24)
      .interval_s(20.0)
      .timeout_s(1.0);
  expect_differential(seeded_trace(60.0, 6e6, 99), config);
}

TEST(ParallelDifferential, PaperTimeoutWholeTraceInterval) {
  // The quickstart setting: one interval spanning the capture, 60 s paper
  // timeout — nothing expires before the final flush, so the merge happens
  // entirely at finish().
  api::AnalysisConfig config;
  config.interval_s(40.0).timeout_s(60.0);
  expect_differential(seeded_trace(40.0, 10e6, 7), config);
}

TEST(ParallelDifferential, BatchSizeDoesNotChangeResults) {
  const auto packets = seeded_trace(30.0, 6e6, 11);
  api::AnalysisConfig config;
  config.interval_s(10.0).timeout_s(1.0);
  const auto serial = api::analyze(packets, config);
  ASSERT_FALSE(serial.empty());
  for (const std::size_t batch : {1u, 3u, 64u, 4096u}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    expect_reports_identical(serial,
                             sharded_analyze(packets, config, 4, 4, batch));
  }
}

TEST(ParallelDifferential, HandCraftedBoundaryAndTimeoutEdges) {
  // Flow A straddles the interval boundary (a one-packet piece each side);
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
        .delta_s(0.5);
    expect_differential(packets, config);
  }
}

TEST(ParallelDifferential, MinFlowsFilterMatchesSerial) {
  const auto packets = seeded_trace(30.0, 6e6, 13);
  api::AnalysisConfig config;
  config.interval_s(5.0).timeout_s(1.0).min_flows(25);
  const auto serial = api::analyze(packets, config);
  expect_reports_identical(serial, sharded_analyze(packets, config, 4, 4));
}

TEST(ParallelDifferential, FixedShotMatchesSerial) {
  const auto packets = seeded_trace(30.0, 6e6, 17);
  api::AnalysisConfig config;
  config.interval_s(10.0).timeout_s(1.0).fixed_shot_b(0.0);
  const auto serial = api::analyze(packets, config);
  expect_reports_identical(serial, sharded_analyze(packets, config, 3, 3));
}

TEST(ParallelStreaming, MidStreamPopsPreserveTheSerialSequence) {
  const auto packets = seeded_trace();
  api::AnalysisConfig config;
  config.interval_s(10.0).timeout_s(1.0);
  const auto serial = api::analyze(packets, config);

  auto eng = sharded_engine(config, 4, 4);
  const auto reports = collect(*eng);
  std::vector<api::AnalysisReport> streamed;
  for (const auto& p : packets) {
    push_one(*eng, p);
    for (auto& r : reports->take()) {
      streamed.push_back(std::move(*r.interval));
    }
  }
  eng->finish();
  for (auto& r : reports->take()) {
    streamed.push_back(std::move(*r.interval));
  }
  expect_reports_identical(serial, streamed);
}

TEST(ParallelSummary, MatchesSerialAndTraceTotals) {
  const auto packets = seeded_trace(30.0, 6e6, 19);
  api::AnalysisConfig config;
  config.interval_s(10.0).timeout_s(1.0);

  live::WindowedEstimator serial(live::batch_windows(config));
  const auto serial_reports = testsupport::collect_intervals(serial, config);
  push_all(serial, packets);
  serial.finish();

  auto par = sharded_engine(config, 4, 4);
  (void)collect(*par);
  push_all(*par, packets);
  par->finish();

  std::uint64_t total_bytes = 0;
  for (const auto& p : packets) total_bytes += p.size_bytes;
  EXPECT_EQ(par->summary().packets, packets.size());
  EXPECT_EQ(par->summary().total_bytes, total_bytes);
  EXPECT_EQ(par->summary().first_ts, packets.front().timestamp);
  EXPECT_EQ(par->summary().last_ts, packets.back().timestamp);

  // The link's counters sum its shards: every packet routed, every
  // completed flow counted once, and one report per interval.
  const auto links = par->links();
  ASSERT_EQ(links.size(), 1u);
  const auto& sc = serial.counters();
  EXPECT_EQ(links[0].counters.packets, sc.packets);
  EXPECT_EQ(links[0].counters.bytes, sc.bytes);
  EXPECT_EQ(links[0].counters.flows, sc.flows);
  EXPECT_EQ(links[0].counters.reports, serial_reports->size());
  EXPECT_EQ(serial.active_flows(), 0u);
}

TEST(ParallelConfig, RejectsBadParameters) {
  engine::EngineConfig config;
  config.live.analysis.timeout_s(0.0);
  config.shards = 4;
  engine::Engine eng(config);
  EXPECT_THROW((void)eng.attach(engine::parse_link_spec("all=*")),
               std::invalid_argument);
  // shards = 0 is not bad — it auto-detects the core count (see
  // test_threads_auto.cpp).
  config.live.analysis.timeout_s(1.0);
  config.shards = 0;
  EXPECT_NO_THROW(engine::Engine{config});
  config.shards = api::kMaxThreads + 1;
  EXPECT_THROW(engine::Engine{config}, std::invalid_argument);
  EXPECT_THROW((void)api::analyze(std::span<const net::PacketRecord>{},
                                  api::AnalysisConfig{}.batch_packets(0)),
               std::invalid_argument);
}

TEST(ParallelConfig, OutOfOrderPacketThrows) {
  auto eng = sharded_engine(api::AnalysisConfig{}, 2, 2);
  (void)collect(*eng);
  push_one(*eng, {1.0, {}, 100});
  EXPECT_THROW(push_one(*eng, {0.5, {}, 100}), std::invalid_argument);
}

TEST(ParallelConfig, PushAfterFinishThrows) {
  auto eng = sharded_engine(api::AnalysisConfig{}, 2, 2);
  (void)collect(*eng);
  push_one(*eng, {0.0, {}, 100});
  eng->finish();
  EXPECT_THROW(push_one(*eng, {1.0, {}, 100}), std::logic_error);
}

TEST(ParallelConfig, EmptyStreamFinishesCleanly) {
  auto eng = sharded_engine(api::AnalysisConfig{}, 4, 4);
  const auto reports = collect(*eng);
  eng->finish();
  EXPECT_TRUE(reports->take().empty());
  EXPECT_EQ(eng->summary().packets, 0u);
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
