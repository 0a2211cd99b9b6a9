#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <unordered_set>
#include <vector>

#include "net/ip.hpp"
#include "trace/sprint_profiles.hpp"
#include "trace/tcp_dynamics.hpp"
#include "trace/trace_stats.hpp"

namespace fbm::trace {
namespace {

SyntheticConfig small_config() {
  SyntheticConfig cfg;
  cfg.duration_s = 20.0;
  cfg.flow_rate = 50.0;
  cfg.apply_defaults();
  return cfg;
}

TEST(Synthetic, PacketsAreTimestampOrdered) {
  const auto packets = generate_packets(small_config());
  for (std::size_t i = 1; i < packets.size(); ++i) {
    EXPECT_GE(packets[i].timestamp, packets[i - 1].timestamp);
  }
}

TEST(Synthetic, AllTimestampsWithinHorizon) {
  const auto cfg = small_config();
  const auto packets = generate_packets(cfg);
  ASSERT_FALSE(packets.empty());
  EXPECT_GE(packets.front().timestamp, 0.0);
  EXPECT_LT(packets.back().timestamp, cfg.duration_s);
}

TEST(Synthetic, Deterministic) {
  const auto a = generate_packets(small_config());
  const auto b = generate_packets(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Synthetic, SeedChangesOutput) {
  auto cfg = small_config();
  const auto a = generate_packets(cfg);
  cfg.seed += 1;
  const auto b = generate_packets(cfg);
  EXPECT_NE(a.size(), b.size());  // different Poisson draws
}

TEST(Synthetic, ReportIsConsistentWithPackets) {
  GenerationReport rep;
  const auto packets = generate_packets(small_config(), &rep);
  EXPECT_EQ(rep.packets, packets.size());
  std::uint64_t bytes = 0;
  for (const auto& p : packets) bytes += p.size_bytes;
  EXPECT_EQ(rep.total_bytes, bytes);
  EXPECT_GT(rep.flows, 0u);
}

TEST(Synthetic, FlowCountNearLambdaTimesDuration) {
  auto cfg = small_config();
  cfg.duration_s = 50.0;
  cfg.flow_rate = 100.0;
  GenerationReport rep;
  (void)generate_packets(cfg, &rep);
  const double expected = cfg.flow_rate * cfg.duration_s;
  EXPECT_NEAR(static_cast<double>(rep.flows), expected,
              5.0 * std::sqrt(expected));
}

TEST(Synthetic, TargetUtilizationApproximatelyMet) {
  SyntheticConfig cfg;
  cfg.duration_s = 60.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(10e6);
  GenerationReport rep;
  (void)generate_packets(cfg, &rep);
  // Edge effects (flows truncated at the horizon) push the realised rate a
  // little below target; heavy-tailed sizes add noise.
  EXPECT_GT(rep.mean_rate_bps(), 0.5 * 10e6);
  EXPECT_LT(rep.mean_rate_bps(), 1.5 * 10e6);
}

TEST(Synthetic, ExpectedRateMatchesCorollary1Formula) {
  SyntheticConfig cfg;
  cfg.apply_defaults();
  cfg.flow_rate = 123.0;
  EXPECT_NEAR(cfg.expected_rate_bps(),
              123.0 * cfg.size_bytes->mean() * 8.0, 1e-6);
}

TEST(Synthetic, MixOfTcpAndUdp) {
  auto cfg = small_config();
  cfg.tcp_fraction = 0.7;
  cfg.duration_s = 30.0;
  const auto packets = generate_packets(cfg);
  std::size_t tcp = 0;
  std::size_t udp = 0;
  for (const auto& p : packets) {
    if (p.tuple.protocol == 6) ++tcp;
    if (p.tuple.protocol == 17) ++udp;
  }
  EXPECT_GT(tcp, 0u);
  EXPECT_GT(udp, 0u);
  EXPECT_EQ(tcp + udp, packets.size());
}

TEST(Synthetic, PureTcpWhenFractionIsOne) {
  auto cfg = small_config();
  cfg.tcp_fraction = 1.0;
  for (const auto& p : generate_packets(cfg)) {
    EXPECT_EQ(p.tuple.protocol, 6);
  }
}

TEST(Synthetic, PrefixPoolBoundsDistinctPrefixes) {
  auto cfg = small_config();
  cfg.prefix_pool = 16;
  const auto packets = generate_packets(cfg);
  std::unordered_set<std::uint32_t> prefixes;
  for (const auto& p : packets) {
    prefixes.insert(net::Prefix(p.tuple.dst, 24).network().value());
  }
  EXPECT_LE(prefixes.size(), 16u);
  EXPECT_GT(prefixes.size(), 4u);  // Zipf still touches several
}

TEST(Synthetic, ZipfSkewsPrefixPopularity) {
  auto cfg = small_config();
  cfg.prefix_pool = 64;
  cfg.prefix_zipf_s = 1.3;
  cfg.duration_s = 30.0;
  const auto packets = generate_packets(cfg);
  std::unordered_map<std::uint32_t, std::size_t> counts;
  for (const auto& p : packets) {
    ++counts[net::Prefix(p.tuple.dst, 24).network().value()];
  }
  std::size_t max_count = 0;
  for (const auto& [k, v] : counts) max_count = std::max(max_count, v);
  // The most popular prefix should clearly dominate the mean.
  EXPECT_GT(max_count, 3 * packets.size() / counts.size());
}

TEST(Synthetic, Validation) {
  SyntheticConfig cfg;
  cfg.duration_s = 0.0;
  EXPECT_THROW((void)generate_packets(cfg), std::invalid_argument);
  cfg = SyntheticConfig{};
  cfg.flow_rate = -1.0;
  EXPECT_THROW((void)generate_packets(cfg), std::invalid_argument);
  cfg = SyntheticConfig{};
  cfg.prefix_pool = 0;
  EXPECT_THROW((void)generate_packets(cfg), std::invalid_argument);
  cfg = SyntheticConfig{};
  cfg.src_pool = 0;
  EXPECT_THROW(SyntheticStream{cfg}, std::invalid_argument);
}

// ----------------------------------------------------------- streaming ---

/// The generator as it was before it streamed: every flow drawn up front in
/// the same order with the same draws, then one stable sort of the whole
/// trace by timestamp. The stream must reproduce it record for record.
struct EagerTrace {
  std::vector<net::PacketRecord> packets;
  std::uint64_t flows = 0;
  std::uint64_t cut_flows = 0;  ///< flows that lost packets at the horizon
};

EagerTrace eager_reference(SyntheticConfig config) {
  constexpr std::uint16_t kPorts[] = {80, 443, 25, 110, 119,
                                      21, 53, 8080, 1755, 554};
  config.apply_defaults();
  stats::Rng rng(config.seed);
  stats::Rng packet_rng = rng.fork();
  const stats::Zipf zipf(config.prefix_pool, config.prefix_zipf_s);
  EagerTrace out;
  std::vector<PacketEmission> emissions;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(config.flow_rate);
    if (t >= config.duration_s) break;
    const auto size = static_cast<std::uint64_t>(
        std::max(1.0, config.size_bytes->sample(rng)));
    const bool tcp = rng.bernoulli(config.tcp_fraction);
    if (tcp) {
      TcpParams params;
      params.rtt = std::max(1e-3, config.rtt_s->sample(rng));
      params.mss = config.mss;
      params.peak_rate_bps =
          std::max(16e3, config.access_rate_bps->sample(rng));
      packetize_tcp_into(size, params, packet_rng, emissions);
    } else {
      const double rate = std::max(16e3, config.udp_rate_bps->sample(rng));
      packetize_cbr_into(size, rate, config.udp_packet_bytes, 0.2,
                         packet_rng, emissions);
    }
    net::FiveTuple tuple;
    const auto src = static_cast<std::uint32_t>(
        rng.uniform_int(0, config.src_pool - 1));
    tuple.src = net::Ipv4Address{(172u << 24) | (16u << 20) |
                                 (src & 0xfffffu)};
    const std::size_t rank = zipf.sample(rng);
    tuple.dst = dst_address_for_rank(
        rank, static_cast<std::uint8_t>(rng.uniform_int(1, 254)));
    tuple.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    tuple.dst_port = kPorts[rng.uniform_int(0, std::size(kPorts) - 1)];
    tuple.protocol = static_cast<std::uint8_t>(tcp ? 6 : 17);
    ++out.flows;
    for (const auto& e : emissions) {
      const double ts = t + e.offset;
      if (ts >= config.duration_s) {
        ++out.cut_flows;
        break;
      }
      out.packets.push_back({ts, tuple, e.size_bytes});
    }
  }
  std::stable_sort(out.packets.begin(), out.packets.end(),
                   net::ByTimestamp{});
  return out;
}

/// Drains `stream` in batches of `max_n` through next_batch.
std::vector<net::PacketRecord> drain(SyntheticStream& stream,
                                     std::size_t max_n) {
  std::vector<net::PacketRecord> out;
  net::PacketBatch batch;
  while (stream.next_batch(batch, max_n) > 0) {
    EXPECT_LE(batch.size(), max_n);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out.push_back(batch.record(i));
    }
  }
  return out;
}

/// The stream equals the eager reference `ref` of `cfg`, and its report
/// the drained totals, at a small and a large batch size.
void expect_stream_matches(const SyntheticConfig& cfg,
                           const EagerTrace& ref) {
  std::uint64_t bytes = 0;
  for (const auto& p : ref.packets) bytes += p.size_bytes;
  for (const std::size_t max_n : {std::size_t{7}, std::size_t{4096}}) {
    SCOPED_TRACE(max_n);
    SyntheticStream stream(cfg);
    const auto got = drain(stream, max_n);
    ASSERT_EQ(got.size(), ref.packets.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], ref.packets[i]) << "first difference at " << i;
    }
    EXPECT_EQ(stream.report().flows, ref.flows);
    EXPECT_EQ(stream.report().packets, ref.packets.size());
    EXPECT_EQ(stream.report().total_bytes, bytes);
    EXPECT_DOUBLE_EQ(stream.report().duration_s, cfg.duration_s);
    net::PacketBatch batch;
    EXPECT_EQ(stream.next_batch(batch, 16), 0u);  // stays exhausted
    EXPECT_TRUE(stream.next_records(16).empty());
  }
}

TEST(SyntheticStream, MatchesTheEagerGenerator) {
  const auto ref = eager_reference(small_config());
  expect_stream_matches(small_config(), ref);
  EXPECT_GT(ref.packets.size(), 1000u);
}

TEST(SyntheticStream, DurationShorterThanOneChunk) {
  auto cfg = small_config();
  cfg.duration_s = 0.1;
  cfg.flow_rate = 300.0;
  const auto ref = eager_reference(cfg);
  expect_stream_matches(cfg, ref);
  EXPECT_GT(ref.packets.size(), 10u);
}

TEST(SyntheticStream, DurationAnExactMultipleOfTheChunk) {
  for (const double duration : {0.25, 1.0, 2.0}) {
    SCOPED_TRACE(duration);
    auto cfg = small_config();
    cfg.duration_s = duration;
    cfg.flow_rate = 400.0;
    const auto ref = eager_reference(cfg);
    expect_stream_matches(cfg, ref);
    EXPECT_GT(ref.cut_flows, 0u);
  }
}

TEST(SyntheticStream, SparseArrivalsLeaveChunksEmpty) {
  auto cfg = small_config();
  cfg.duration_s = 60.0;
  cfg.flow_rate = 0.3;  // a flow every ~3 s: most 0.25 s chunks stay empty
  cfg.size_bytes = std::make_shared<stats::LogNormal>(
      stats::LogNormal::from_mean_cv(2e3, 0.5));
  const auto ref = eager_reference(cfg);
  expect_stream_matches(cfg, ref);
  ASSERT_GT(ref.flows, 5u);
  std::unordered_set<std::int64_t> busy;
  for (const auto& p : ref.packets) {
    busy.insert(static_cast<std::int64_t>(std::floor(p.timestamp / 0.25)));
  }
  EXPECT_LT(busy.size(), 60u);  // of 240 chunks
}

TEST(SyntheticStream, CbrFlowsSpanningManyChunks) {
  auto cfg = small_config();
  cfg.duration_s = 30.0;
  cfg.flow_rate = 20.0;
  cfg.tcp_fraction = 0.0;
  // ~20 kB at ~40 kbit/s: each flow lasts seconds, across many chunks, and
  // the later ones run into the horizon.
  cfg.size_bytes = std::make_shared<stats::LogNormal>(
      stats::LogNormal::from_mean_cv(2e4, 0.5));
  cfg.udp_rate_bps = std::make_shared<stats::LogNormal>(
      stats::LogNormal::from_mean_cv(4e4, 0.3));
  const auto ref = eager_reference(cfg);
  expect_stream_matches(cfg, ref);
  for (const auto& p : ref.packets) ASSERT_EQ(p.tuple.protocol, 17);
  EXPECT_GT(ref.cut_flows, 5u);
}

TEST(SyntheticStream, FlowsCutAtTheHorizon) {
  auto cfg = small_config();
  cfg.duration_s = 5.0;
  cfg.flow_rate = 100.0;
  const auto ref = eager_reference(cfg);
  expect_stream_matches(cfg, ref);
  EXPECT_GT(ref.cut_flows, 0u);
  ASSERT_FALSE(ref.packets.empty());
  EXPECT_LT(ref.packets.back().timestamp, cfg.duration_s);
}

TEST(SyntheticStream, ReportIsARunningTally) {
  SyntheticStream stream(small_config());
  (void)stream.next_records(1);
  const GenerationReport partial = stream.report();
  EXPECT_GT(partial.flows, 0u);
  const auto rest = drain(stream, 512);
  EXPECT_GE(stream.report().flows, partial.flows);
  EXPECT_EQ(stream.report().packets, rest.size() + 1);
}

TEST(SprintProfiles, TableHasSevenRowsMatchingPaper) {
  const auto& rows = sprint_table1();
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0].date, "Nov 8th, 2001");
  EXPECT_DOUBLE_EQ(rows[0].utilization_bps, 243e6);
  EXPECT_DOUBLE_EQ(rows[3].length_s, 39.5 * 3600.0);
  EXPECT_DOUBLE_EQ(rows[6].utilization_bps, 72e6);
}

TEST(SprintProfiles, ClustersMatchFigure9Legend) {
  const auto& rows = sprint_table1();
  EXPECT_EQ(rows[3].cluster(), 0);  // 26 Mbps < 50
  EXPECT_EQ(rows[6].cluster(), 1);  // 72 Mbps in 50-125
  EXPECT_EQ(rows[0].cluster(), 2);  // 243 Mbps > 125
}

TEST(SprintProfiles, MakeConfigScalesUtilization) {
  ScaleOptions scale;
  scale.rate_scale = 0.1;
  const auto cfg = make_config(0, scale);
  EXPECT_NEAR(cfg.expected_rate_bps(), 24.3e6, 1e-3 * 24.3e6);
  EXPECT_THROW((void)make_config(7, scale), std::invalid_argument);
}

TEST(SprintProfiles, ScaledLengthIsCapped) {
  ScaleOptions scale;
  scale.time_scale = 1.0;  // would be hours
  scale.max_length_s = 42.0;
  const auto cfg = make_config(3, scale);
  EXPECT_DOUBLE_EQ(cfg.duration_s, 42.0);
}

TEST(TraceStats, SummaryOfGeneratedTrace) {
  GenerationReport rep;
  const auto packets = generate_packets(small_config(), &rep);
  const TraceSummary s = summarize(packets);
  EXPECT_EQ(s.packets, rep.packets);
  EXPECT_EQ(s.total_bytes, rep.total_bytes);
  EXPECT_GT(s.mean_rate_mbps(), 0.0);
  EXPECT_GT(s.mean_packet_bytes(), 0.0);
}

TEST(TraceStats, FormatDuration) {
  EXPECT_EQ(format_duration(7.0 * 3600.0), "7h");
  EXPECT_EQ(format_duration(39.5 * 3600.0), "39h 30m");
  EXPECT_EQ(format_duration(90.0), "2m");  // rounds to minutes
  EXPECT_EQ(format_duration(30.0), "30s");
}

}  // namespace
}  // namespace fbm::trace
