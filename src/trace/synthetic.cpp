#include "trace/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>

#include "trace/trace_format.hpp"

namespace fbm::trace {

namespace {

// Popular destination ports, roughly web-dominated as in 2001 backbones.
constexpr std::uint16_t kPopularPorts[] = {80,  443, 25,  110, 119,
                                           21,  53,  8080, 1755, 554};

net::Ipv4Address make_dst(std::size_t prefix_rank, std::uint8_t host) {
  return dst_address_for_rank(prefix_rank, host);
}

net::Ipv4Address make_src(std::uint64_t id) {
  const auto r = static_cast<std::uint32_t>(id);
  // 172.16.0.0/12-ish source space.
  return net::Ipv4Address{(172u << 24) | (16u << 20) | (r & 0xfffffu)};
}

/// Width of the stream's release chunks. At 200 Mbps a chunk holds about
/// 5k packets, small enough to sort in cache; the packets of flows still in
/// progress keep the later chunks alive either way.
constexpr double kChunkSeconds = 0.25;

/// The one expression that both files a packet under a chunk and decides
/// that a chunk is final; floor(ts / kChunkSeconds) is monotone in ts, so a
/// packet at or after an arrival never lands below the arrival's chunk.
std::uint64_t chunk_of(double ts) {
  return static_cast<std::uint64_t>(std::floor(ts / kChunkSeconds));
}

/// Sorts `chunk` (generation order) into `out` by (timestamp, generation
/// order): a stable counting scatter into ~1 packet per sub-bucket, then
/// one insertion sort. Sub-buckets are monotone in the timestamp, so the
/// insertion sort never moves a packet across a sub-bucket edge and costs
/// little more than a pass; both steps keep equal timestamps in order.
void sort_chunk(const std::vector<net::PacketRecord>& chunk,
                std::vector<net::PacketRecord>& out,
                std::vector<std::uint32_t>& heads) {
  const std::size_t n = chunk.size();
  out.resize(n);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const auto& p : chunk) {
    lo = std::min(lo, p.timestamp);
    hi = std::max(hi, p.timestamp);
  }
  if (!(hi > lo)) {
    std::copy(chunk.begin(), chunk.end(), out.begin());
    return;
  }
  const double scale = static_cast<double>(n) / (hi - lo);
  const auto bucket_of = [&](double ts) {
    return std::min(static_cast<std::size_t>((ts - lo) * scale), n - 1);
  };
  heads.assign(n + 1, 0);
  for (const auto& p : chunk) ++heads[bucket_of(p.timestamp) + 1];
  for (std::size_t b = 1; b <= n; ++b) heads[b] += heads[b - 1];
  for (const auto& p : chunk) out[heads[bucket_of(p.timestamp)]++] = p;
  for (std::size_t i = 1; i < n; ++i) {
    const net::PacketRecord p = out[i];
    std::size_t j = i;
    for (; j > 0 && out[j - 1].timestamp > p.timestamp; --j) {
      out[j] = out[j - 1];
    }
    out[j] = p;
  }
}

SyntheticConfig validated(const SyntheticConfig& cfg) {
  SyntheticConfig config = cfg;
  config.apply_defaults();
  if (!(config.duration_s > 0.0)) {
    throw std::invalid_argument("synthetic generator: duration <= 0");
  }
  if (!(config.flow_rate > 0.0)) {
    throw std::invalid_argument("synthetic generator: flow_rate <= 0");
  }
  if (config.prefix_pool == 0 || config.src_pool == 0) {
    throw std::invalid_argument("synthetic generator: empty address pool");
  }
  return config;
}

}  // namespace

net::Ipv4Address dst_address_for_rank(std::size_t prefix_rank,
                                      std::uint8_t host) {
  // Map the prefix rank into 10.x.y.0/24 space, spreading ranks across both
  // middle octets so /16 aggregation still distinguishes prefix groups:
  // rank r -> 10.(r/16).(16*(r mod 16)).host, unique per rank for r < 4096.
  const auto r = static_cast<std::uint32_t>(prefix_rank);
  const std::uint32_t octet2 = (r >> 4) & 0xffu;
  const std::uint32_t octet3 = (r & 0xfu) << 4;
  return net::Ipv4Address{(10u << 24) | (octet2 << 16) | (octet3 << 8) |
                          host};
}

net::Prefix dst_prefix_for_rank(std::size_t prefix_rank) {
  return net::Prefix(dst_address_for_rank(prefix_rank, 0), 24);
}

void SyntheticConfig::apply_defaults() {
  using stats::LogNormal;
  if (!size_bytes) {
    // Mice (~6 kB median web objects) + elephants (~300 kB transfers):
    // heavy-tailed overall, finite variance. E[S] ~ 21 kB.
    auto mice = std::make_shared<LogNormal>(LogNormal::from_mean_cv(8e3, 1.5));
    auto elephants =
        std::make_shared<LogNormal>(LogNormal::from_mean_cv(4e5, 2.0));
    size_bytes = std::make_shared<stats::Mixture>(mice, elephants, 0.967);
  }
  if (!rtt_s) {
    rtt_s = std::make_shared<LogNormal>(LogNormal::from_mean_cv(0.2, 0.4));
  }
  if (!access_rate_bps) {
    access_rate_bps =
        std::make_shared<LogNormal>(LogNormal::from_mean_cv(12e6, 0.8));
  }
  if (!udp_rate_bps) {
    udp_rate_bps =
        std::make_shared<LogNormal>(LogNormal::from_mean_cv(4e5, 0.8));
  }
}

double SyntheticConfig::expected_rate_bps() const {
  if (!size_bytes) return 0.0;
  return flow_rate * size_bytes->mean() * 8.0;
}

void SyntheticConfig::target_utilization_bps(double bps) {
  if (!size_bytes) {
    throw std::logic_error(
        "target_utilization_bps: call apply_defaults() first");
  }
  const double per_flow = size_bytes->mean() * 8.0;
  if (!(per_flow > 0.0)) {
    throw std::logic_error("target_utilization_bps: zero mean flow size");
  }
  flow_rate = bps / per_flow;
}

SyntheticStream::SyntheticStream(const SyntheticConfig& config)
    : config_(validated(config)),
      rng_(config_.seed),
      packet_rng_(rng_.fork()),
      prefix_zipf_(config_.prefix_pool, config_.prefix_zipf_s) {
  report_.duration_s = config_.duration_s;
}

std::size_t SyntheticStream::next_batch(net::PacketBatch& out,
                                        std::size_t max_n) {
  const auto recs = next_records(max_n);
  out.assign(recs);
  return recs.size();
}

std::span<const net::PacketRecord> SyntheticStream::next_records(
    std::size_t max_n) {
  if (ready_pos_ == ready_.size()) {
    ready_pos_ = 0;
    if (!release_chunk()) {
      ready_.clear();
      return {};
    }
  }
  const std::size_t n = std::min(max_n, ready_.size() - ready_pos_);
  const std::span<const net::PacketRecord> out(ready_.data() + ready_pos_, n);
  ready_pos_ += n;
  return out;
}

/// Draws flows until the oldest pending chunk is final, then sorts it into
/// ready_. Empty chunks are skipped; false once every packet is out.
bool SyntheticStream::release_chunk() {
  for (;;) {
    if (!pending_.empty() && (flows_done_ || next_chunk_ < frontier_)) {
      sort_chunk(pending_.front(), ready_, heads_);
      pending_.pop_front();
      ++next_chunk_;
      if (!ready_.empty()) return true;
      continue;
    }
    if (flows_done_) return false;
    draw_flow();
  }
}

/// One flow, with exactly the draws — and draw order — of the eager
/// generator this stream replaced, so every seed keeps its trace.
void SyntheticStream::draw_flow() {
  t_ += rng_.exponential(config_.flow_rate);
  if (t_ >= config_.duration_s) {
    flows_done_ = true;
    return;
  }
  frontier_ = chunk_of(t_);
  if (pending_.empty()) next_chunk_ = frontier_;

  const auto size = static_cast<std::uint64_t>(
      std::max(1.0, config_.size_bytes->sample(rng_)));
  const bool tcp = rng_.bernoulli(config_.tcp_fraction);

  if (tcp) {
    TcpParams params;
    params.rtt = std::max(1e-3, config_.rtt_s->sample(rng_));
    params.mss = config_.mss;
    params.peak_rate_bps =
        std::max(16e3, config_.access_rate_bps->sample(rng_));
    packetize_tcp_into(size, params, packet_rng_, emissions_);
  } else {
    const double rate = std::max(16e3, config_.udp_rate_bps->sample(rng_));
    packetize_cbr_into(size, rate, config_.udp_packet_bytes, 0.2,
                       packet_rng_, emissions_);
  }

  net::FiveTuple tuple;
  tuple.src = make_src(rng_.uniform_int(0, config_.src_pool - 1));
  const std::size_t rank = prefix_zipf_.sample(rng_);
  tuple.dst = make_dst(rank, static_cast<std::uint8_t>(
                                 rng_.uniform_int(1, 254)));
  tuple.src_port =
      static_cast<std::uint16_t>(rng_.uniform_int(1024, 65535));
  tuple.dst_port = kPopularPorts[rng_.uniform_int(
      0, std::size(kPopularPorts) - 1)];
  tuple.protocol = static_cast<std::uint8_t>(
      tcp ? net::Protocol::tcp : net::Protocol::udp);

  ++report_.flows;
  // Emissions are in offset order, so a flow's packets fill one chunk
  // after another: look each chunk up once, not once per packet.
  std::uint64_t chunk = 0;
  std::vector<net::PacketRecord>* bucket = nullptr;
  for (const auto& e : emissions_) {
    const double ts = t_ + e.offset;
    if (ts >= config_.duration_s) break;  // capture horizon
    if (const std::uint64_t c = chunk_of(ts); !bucket || c != chunk) {
      chunk = c;
      bucket = &pending_chunk(c);
    }
    bucket->push_back({ts, tuple, e.size_bytes});
    ++report_.packets;
    report_.total_bytes += e.size_bytes;
  }
}

/// The pending buffer of chunk `c`. Offsets are >= 0, so `c` is at or past
/// frontier_, which is at or past next_chunk_. Growing the deque at its end
/// keeps references to the other chunks valid.
std::vector<net::PacketRecord>& SyntheticStream::pending_chunk(
    std::uint64_t c) {
  const std::uint64_t slot = c - next_chunk_;
  if (slot >= pending_.size()) pending_.resize(slot + 1);
  return pending_[slot];
}

std::vector<net::PacketRecord> generate_packets(const SyntheticConfig& config,
                                                GenerationReport* report) {
  SyntheticStream stream(config);
  std::vector<net::PacketRecord> packets;
  for (auto recs = stream.next_records(SIZE_MAX); !recs.empty();
       recs = stream.next_records(SIZE_MAX)) {
    packets.insert(packets.end(), recs.begin(), recs.end());
  }
  if (report) *report = stream.report();
  return packets;
}

GenerationReport generate_to_file(const SyntheticConfig& config,
                                  const std::filesystem::path& path) {
  SyntheticStream stream(config);
  TraceWriter writer(path);
  for (auto recs = stream.next_records(SIZE_MAX); !recs.empty();
       recs = stream.next_records(SIZE_MAX)) {
    writer.append_all(recs);
  }
  writer.close();
  return stream.report();
}

}  // namespace fbm::trace
