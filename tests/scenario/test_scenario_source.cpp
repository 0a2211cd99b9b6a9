// ScenarioTraceSource determinism: same spec + seed must yield the exact
// same packet stream — across one packet per batch vs every batch size,
// across reset() replay, across independent instances, and through serial
// vs threaded engine consumption. The truth log derives from the spec
// alone, so it is byte-identical by construction; pinned here anyway.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/engine.hpp"
#include "net/packet_batch.hpp"
#include "scenario/source.hpp"
#include "scenario/spec.hpp"
#include "scenario/truth.hpp"

namespace fbm::scenario {
namespace {

constexpr std::size_t kBatchSizes[] = {1, 7, 1024};

/// Small but regime-complete: every event kind plus a reroute, ~30 s.
ScenarioSpec test_spec() {
  return parse_scenario_text(
      "scenario determinism\n"
      "seed 2024\n"
      "lambda 60\n"
      "size-mean-bits 20000\n"
      "duration-mean-s 0.3\n"
      "prefix-pool 64\n"
      "segment baseline 8\n"
      "segment ddos 5 lambda-x=10 prefixes=0-7\n"
      "segment flash-crowd 5 lambda-x=3\n"
      "segment diurnal 6 amplitude=0.5 period=3\n"
      "segment reroute 6 prefixes=0-31 to-prefixes=32-63\n");
}

/// The stream read one packet per batch: the reference the other batch
/// sizes are pinned against.
std::vector<net::PacketRecord> drain_scalar(ScenarioTraceSource& source) {
  std::vector<net::PacketRecord> out;
  net::PacketBatch one;
  while (source.next_batch(one, 1) > 0) out.push_back(one.record(0));
  return out;
}

TEST(ScenarioSource, ScalarStreamIsWellFormed) {
  ScenarioTraceSource source(test_spec());
  const auto packets = drain_scalar(source);
  ASSERT_FALSE(packets.empty());
  EXPECT_GT(source.flows_started(), 0u);
  EXPECT_GT(source.attack_flows(), 0u);
  EXPECT_LT(source.attack_flows(), source.flows_started());
  double last = 0.0;
  const double horizon = source.spec().total_duration_s();
  for (const auto& p : packets) {
    ASSERT_GE(p.timestamp, last);
    ASSERT_LT(p.timestamp, horizon);
    ASSERT_GT(p.size_bytes, 0u);
    last = p.timestamp;
  }
}

TEST(ScenarioSource, BatchMatchesScalarAtEveryBatchSize) {
  ScenarioTraceSource scalar(test_spec());
  const auto expected = drain_scalar(scalar);
  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    ScenarioTraceSource batched(test_spec());
    net::PacketBatch batch;
    std::size_t seen = 0;
    while (batched.next_batch(batch, batch_size) > 0) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_LT(seen, expected.size());
        ASSERT_EQ(batch.record(i), expected[seen]) << "packet " << seen;
        ++seen;
      }
    }
    EXPECT_EQ(seen, expected.size());
  }
}

TEST(ScenarioSource, ResetReplaysByteIdentically) {
  ScenarioTraceSource source(test_spec());
  const auto first = drain_scalar(source);
  const auto flows = source.flows_started();
  const auto attacks = source.attack_flows();
  ASSERT_TRUE(source.reset());
  const auto second = drain_scalar(source);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "packet " << i;
  }
  EXPECT_EQ(source.flows_started(), flows);
  EXPECT_EQ(source.attack_flows(), attacks);
}

TEST(ScenarioSource, IndependentInstancesAgree) {
  ScenarioTraceSource a(test_spec());
  ScenarioTraceSource b(test_spec());
  const auto pa = drain_scalar(a);
  const auto pb = drain_scalar(b);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "packet " << i;
  }
}

TEST(ScenarioSource, SeedChangesTheStream) {
  ScenarioSpec other = test_spec();
  other.seed = 2025;
  ScenarioTraceSource a(test_spec());
  ScenarioTraceSource b(other);
  const auto pa = drain_scalar(a);
  const auto pb = drain_scalar(b);
  const bool differs =
      pa.size() != pb.size() ||
      !std::equal(pa.begin(), pa.end(), pb.begin());
  EXPECT_TRUE(differs);
}

TEST(ScenarioSource, RerouteShiftsDestinationsToTheTargetRange) {
  // Ranks 0-31 map to 10.0.x/10.1.x, 32-63 to 10.2.x/10.3.x (one /24 per
  // rank, 16 per second octet). The reroute segment remaps ranks 0-31
  // onto 32-63 for every flow arriving during it, so new flows land in
  // the upper half. Flows already in flight keep their old destination,
  // and power-shot pacing can delay a flow's first packet well past its
  // arrival — so a handful of lower-half flows legitimately surface
  // after the failure. Assert dominance, not exclusivity.
  ScenarioSpec spec = test_spec();
  const double reroute_start = spec.segment_start_s(4);
  ScenarioTraceSource source(spec);
  std::unordered_set<net::FiveTuple, net::FiveTupleHash> seen;
  std::size_t upper_after = 0;
  std::size_t lower_after = 0;
  std::size_t lower_before = 0;
  for (const auto& p : drain_scalar(source)) {
    if (!seen.insert(p.tuple).second) continue;  // not the first packet
    const bool upper = ((p.tuple.dst.value() >> 16) & 0xff) >= 2;
    if (p.timestamp >= reroute_start) {
      (upper ? upper_after : lower_after) += 1;
    } else if (!upper) {
      ++lower_before;  // baseline spreads over the whole pool
    }
  }
  EXPECT_GT(lower_before, 0u);
  EXPECT_GT(upper_after, 0u);
  // >= 95% of flows surfacing after the failure target the new range.
  EXPECT_GE(upper_after, 19 * lower_after)
      << upper_after << " upper vs " << lower_after << " lower";
}

TEST(ScenarioSource, TruthDerivationIsByteStable) {
  const std::string a = write_truth(derive_truth(test_spec()));
  const std::string b = write_truth(derive_truth(test_spec()));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("# fbm-scenario-truth v1"), std::string::npos);
  // ddos + flash-crowd inject aggregate spikes at their boundaries.
  EXPECT_NE(a.find("event spike 8 13 link -"), std::string::npos) << a;
  EXPECT_NE(a.find("event spike 13 18 link -"), std::string::npos) << a;
}

TEST(ScenarioSource, SerialAndThreadedEngineConsumersAgree) {
  const auto run = [&](std::size_t threads) {
    engine::EngineConfig config;
    config.mode = engine::EngineMode::live;
    config.live.window_s = 4.0;
    config.live.analysis.timeout_s(1.0).min_flows(0);
    config.threads = threads;
    engine::Engine eng(config);
    std::vector<std::string> lines;
    eng.set_report_sink([&](engine::LinkReport&& r) {
      if (r.window) lines.push_back(live::to_jsonl(*r.window, r.name));
    });
    (void)eng.attach(engine::parse_link_spec("lower=10.0.0.0/15"));
    (void)eng.attach(engine::parse_link_spec("upper=10.2.0.0/15"));
    ScenarioTraceSource source(test_spec());
    net::PacketBatch batch;
    while (source.next_batch(batch, 512) > 0) eng.push_batch(batch);
    eng.finish();
    // Cross-link interleaving is unpinned under a worker pool; per-link
    // order is. Sort for a stable comparison.
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  const auto serial = run(1);
  const auto threaded = run(4);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], threaded[i]) << "report " << i;
  }
}

}  // namespace
}  // namespace fbm::scenario
