// A link of K flow-hash shards (EngineConfig::shards): per-link streams
// are byte-identical at K = 1, 2 and 4 through the report and the partial
// sink, on inline and threaded pools; a link whose traffic all hashes to
// one shard still reports before finish(); detaching a sharded link
// flushes its windows at once; and obs counts link windows, not shard
// windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "../support/collect.hpp"
#include "../support/push.hpp"
#include "../support/sharded.hpp"
#include "agg/partial_codec.hpp"
#include "api/api.hpp"
#include "obs/registry.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

using testsupport::push_all;
using testsupport::push_one;
using testsupport::sharded_engine;

std::vector<net::PacketRecord> seeded_trace() {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 40.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(6e6);
  cfg.seed = 2828;
  return trace::generate_packets(cfg);
}

engine::EngineConfig base_config(bool live_mode, double stride = 0.0) {
  engine::EngineConfig config;
  config.mode =
      live_mode ? engine::EngineMode::live : engine::EngineMode::batch;
  config.live.analysis.interval_s(6.0).timeout_s(1.5).min_flows(0);
  config.live.window_s = 6.0;
  config.live.stride_s = stride;
  return config;
}

/// Per-link output of one run: rendered reports, or the encoded bytes of
/// each folded partial when `partials` is set.
using Streams = std::map<std::string, std::vector<std::string>>;

Streams run(engine::EngineConfig config, std::size_t shards,
            std::size_t threads, bool partials,
            const std::vector<net::PacketRecord>& packets) {
  config.shards = shards;
  config.threads = threads;
  engine::Engine eng(config);
  Streams got;
  if (partials) {
    eng.set_partial_sink([&](engine::LinkId, const std::string& name,
                             api::WindowPartial&& p) {
      core::ByteBuffer bytes;
      agg::encode_window(bytes, p);
      got[name].emplace_back(bytes.bytes.begin(), bytes.bytes.end());
    });
  } else {
    eng.set_report_sink([&](engine::LinkReport&& r) {
      got[r.name].push_back(r.interval ? api::to_json(*r.interval)
                                       : live::to_jsonl(*r.window));
    });
  }
  (void)eng.attach(engine::parse_link_spec("low=10.0.0.0/14"));
  (void)eng.attach(engine::parse_link_spec("high=10.4.0.0/14"));
  (void)eng.attach(engine::parse_link_spec("tap=*"));
  push_all(eng, packets, 97);
  eng.finish();
  return got;
}

TEST(EngineShards, StreamsIdenticalAcrossShardCountsPoolsAndSinks) {
  const auto packets = seeded_trace();
  struct Mode {
    const char* name;
    engine::EngineConfig config;
  };
  const std::vector<Mode> modes = {
      {"batch", base_config(false)},
      {"live tiling", base_config(true)},
      {"live overlapping", base_config(true, 2.0)}};
  for (const auto& mode : modes) {
    for (const bool partials : {false, true}) {
      SCOPED_TRACE(std::string(mode.name) +
                   (partials ? ", partial sink" : ", report sink"));
      const Streams reference = run(mode.config, 1, 1, partials, packets);
      ASSERT_EQ(reference.size(), 3u);
      for (const auto& [name, stream] : reference) {
        EXPECT_GT(stream.size(), 3u) << name;
      }
      for (const std::size_t shards : {1u, 2u, 4u}) {
        for (const std::size_t threads : {1u, 3u}) {
          SCOPED_TRACE(std::to_string(shards) + " shards, " +
                       std::to_string(threads) + " threads");
          EXPECT_EQ(run(mode.config, shards, threads, partials, packets),
                    reference);
        }
      }
    }
  }
}

/// One 5-tuple sending a packet every 100 ms for `seconds`: every packet
/// hashes to the same shard, so the other shards see nothing.
std::vector<net::PacketRecord> single_flow(double seconds) {
  std::vector<net::PacketRecord> packets;
  for (double t = 0.05; t < seconds; t += 0.1) {
    net::PacketRecord p;
    p.timestamp = t;
    p.tuple.src = net::Ipv4Address(10, 0, 0, 1);
    p.tuple.dst = net::Ipv4Address(10, 1, 0, 1);
    p.tuple.src_port = 4242;
    p.tuple.dst_port = 80;
    p.tuple.protocol = 6;
    p.size_bytes = 1200;
    packets.push_back(p);
  }
  return packets;
}

/// Waits up to five seconds for a threaded engine's first report.
bool report_arrives(
    engine::Engine& eng,
    const testsupport::Collected<engine::LinkReport>& reports) {
  for (int i = 0; i < 500 && reports.size() == 0; ++i) {
    eng.flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return reports.size() > 0;
}

TEST(EngineShards, SingleFlowLinkReportsBeforeFinish) {
  // The idle shards advance to the link's clock, so they close their
  // (empty) windows and the fold completes without them seeing a packet.
  const auto packets = single_flow(10.0);
  for (const bool live_mode : {false, true}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(live_mode ? "live" : "batch") + ", " +
                   std::to_string(threads) + " threads");
      engine::EngineConfig config = base_config(live_mode);
      config.live.analysis.interval_s(1.0).timeout_s(0.5);
      config.live.window_s = 1.0;
      config.shards = 4;
      config.threads = threads;
      engine::Engine eng(config);
      const auto eng_reports = testsupport::collect(eng);
      (void)eng.attach(engine::parse_link_spec("all=*"));
      push_all(eng, packets, 7);
      if (threads == 1) {
        EXPECT_GT(eng_reports->size(), 0u);
      } else {
        EXPECT_TRUE(report_arrives(eng, *eng_reports));
      }
      eng.finish();
    }
  }
}

TEST(EngineShards, DetachFlushesEveryShardAtOnce) {
  const auto packets = seeded_trace();
  const std::size_t half = packets.size() / 2;
  for (const bool live_mode : {false, true}) {
    SCOPED_TRACE(live_mode ? "live" : "batch");
    // Reference: the link's windows over the first half alone.
    std::size_t expected = 0;
    {
      engine::EngineConfig config = base_config(live_mode);
      engine::Engine solo(config);
      const auto solo_reports = testsupport::collect(solo);
      (void)solo.attach(engine::parse_link_spec("x=*"));
      push_all(solo, std::span(packets).first(half));
      solo.finish();
      expected = solo_reports->take().size();
    }
    ASSERT_GT(expected, 2u);

    engine::EngineConfig config = base_config(live_mode);
    config.shards = 4;
    engine::Engine eng(config);  // inline: detach flushes before returning
    const auto eng_reports = testsupport::collect(eng);
    const auto x = eng.attach(engine::parse_link_spec("x=*"));
    (void)eng.attach(engine::parse_link_spec("tap=*"));
    push_all(eng, std::span(packets).first(half));
    (void)eng_reports->take();
    ASSERT_TRUE(eng.detach(x));
    const auto flushed = eng_reports->take();
    std::size_t from_x = 0;
    for (const auto& r : flushed) from_x += r.link == x ? 1 : 0;
    const auto links = eng.links();
    EXPECT_EQ(links.at(x).counters.reports, expected);
    EXPECT_GE(from_x, 1u);
    push_all(eng, std::span(packets).subspan(half));
    eng.finish();
    EXPECT_EQ(eng.links().at(x).counters.reports, expected);
  }
}

TEST(EngineShards, ObsCountsLinkWindowsNotShardWindows) {
  // Steady two-packet flows on distinct ports (spread over the shards),
  // then a 20x burst window: one spike alert per link.
  std::vector<net::PacketRecord> packets;
  for (int w = 0; w < 12; ++w) {
    for (int f = 0; f < 4; ++f) {
      net::PacketRecord p;
      p.timestamp = w + 0.1 + 0.05 * f;
      p.tuple.src = net::Ipv4Address(10, 0, 0, 1);
      p.tuple.dst = net::Ipv4Address(10, 1, 0, 1);
      p.tuple.src_port = static_cast<std::uint16_t>(100 + 4 * w + f);
      p.tuple.dst_port = 80;
      p.tuple.protocol = 6;
      p.size_bytes = w == 11 ? 20000 : 1000;
      packets.push_back(p);
      p.timestamp += 0.5;
      packets.push_back(p);
    }
  }
  std::stable_sort(packets.begin(), packets.end(),
                   [](const auto& a, const auto& b) {
                     return a.timestamp < b.timestamp;
                   });
  live::LiveConfig config;
  config.window_s = 1.0;
  config.analysis.timeout_s(1.0);
  const auto count = [](const obs::Snapshot& d, const std::string& key) {
    const obs::MetricValue* m = d.find(key);
    return m == nullptr ? std::uint64_t{0} : m->counter;
  };
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const obs::Snapshot before = obs::Registry::global().snapshot();
    const auto reports = testsupport::sharded_live(packets, config, shards);
    const obs::Snapshot d =
        obs::delta(before, obs::Registry::global().snapshot());
    ASSERT_EQ(reports.size(), 12u);
    ASSERT_TRUE(reports.back().anomaly.alert);
    if (!obs::enabled()) continue;
    EXPECT_EQ(count(d, "fbm_live_windows_closed_total"), 12u);
    EXPECT_EQ(count(d, "fbm_windows_fitted_total"), 12u);
    EXPECT_EQ(count(d, "fbm_live_alerts_total{kind=\"spike\"}"), 1u);
  }
}

TEST(EngineShards, PushOneAtATimeMatchesBatches) {
  // Per-packet batches exercise the fold after every single push.
  const auto packets = single_flow(6.0);
  api::AnalysisConfig config;
  config.interval_s(1.0).timeout_s(0.3).min_flows(0);
  auto eng = sharded_engine(config, 4, 1);
  const auto eng_reports = testsupport::collect(*eng);
  for (const auto& p : packets) push_one(*eng, p);
  eng->finish();
  std::vector<std::string> got;
  for (auto& r : eng_reports->take()) {
    got.push_back(api::to_json(*r.interval));
  }
  std::vector<std::string> want;
  for (const auto& r : api::analyze(packets, config)) {
    want.push_back(api::to_json(r));
  }
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace fbm
