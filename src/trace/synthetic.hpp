// Synthetic backbone-link trace generator.
//
// Substitute for the Sprint OC-12 captures (DESIGN.md, substitution table).
// Flows arrive as a homogeneous Poisson process; each flow draws a size from
// a heavy-tailed distribution, a transport flavour (TCP-like or CBR/UDP), an
// RTT and an access-rate cap, and is packetized by trace/tcp_dynamics. The
// resulting packet stream is what the paper's monitor would have seen on an
// uncongested link: many independent flows, no shared bottleneck.
//
// Destination addresses are drawn from a Zipf popularity law over a pool of
// /24 prefixes so that prefix-level aggregation (flow definition 2) merges
// several 5-tuple flows, as on the real backbone.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"
#include "trace/tcp_dynamics.hpp"

namespace fbm::trace {

struct SyntheticConfig {
  double duration_s = 60.0;          ///< trace length, seconds
  double flow_rate = 200.0;          ///< flow arrivals per second (lambda)
  stats::DistributionPtr size_bytes; ///< flow size distribution (bytes)
  stats::DistributionPtr rtt_s;      ///< per-flow RTT (seconds)
  stats::DistributionPtr access_rate_bps;  ///< TCP rate cap (bits/s)
  stats::DistributionPtr udp_rate_bps;     ///< CBR/UDP stream rate (bits/s)
  double tcp_fraction = 0.9;         ///< remaining flows are CBR/UDP
  std::uint32_t mss = 1460;
  std::uint32_t udp_packet_bytes = 500;

  // Address synthesis.
  std::size_t prefix_pool = 128;    ///< number of distinct /24 dst prefixes
  double prefix_zipf_s = 1.2;        ///< popularity skew across the pool
  std::size_t src_pool = 65536;      ///< number of distinct source addresses

  std::uint64_t seed = stats::Rng::default_seed;

  /// Fills unset distributions with backbone-like defaults: lognormal sizes
  /// with heavy CV (mice/elephants mixture), RTT ~ lognormal around 200 ms,
  /// TCP rate caps ~ lognormal around 6 Mbps (rarely binding, so most flows
  /// stay in window growth — the superlinear shots of Section VI-A), and
  /// UDP stream rates ~ lognormal around 400 kbps.
  void apply_defaults();

  /// Expected aggregate utilization lambda*E[S] in bits/s.
  [[nodiscard]] double expected_rate_bps() const;

  /// Scales the flow arrival rate so that expected utilization matches the
  /// target (keeps all per-flow distributions fixed — the paper's Corollary 1
  /// argument that utilization differences across links come from lambda).
  void target_utilization_bps(double bps);
};

/// Summary of what the generator actually produced.
struct GenerationReport {
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  std::uint64_t total_bytes = 0;
  double duration_s = 0.0;

  [[nodiscard]] double mean_rate_bps() const {
    return duration_s > 0.0
               ? static_cast<double>(total_bytes) * 8.0 / duration_s
               : 0.0;
  }
};

/// The generator as a packet stream in (timestamp, generation order).
/// Flows are drawn one at a time and each packet is filed under a fixed
/// time chunk. Every packet of a later flow lands at or after that flow's
/// arrival, so once the next arrival has passed a chunk, the chunk is final:
/// it is sorted and handed out. Memory holds only the chunks that flows in
/// progress still write to, not the whole trace (fbm_trace_gen peaks at
/// about 14 MB at 200 Mbps, for 10 minutes as for 30).
/// Flows whose transmission would extend past `duration_s` are truncated at
/// the horizon (their tail packets are dropped), matching a capture that
/// simply stops.
class SyntheticStream {
 public:
  /// Fills unset distributions with the defaults. Throws
  /// std::invalid_argument for a non-positive duration or flow rate or an
  /// empty address pool.
  explicit SyntheticStream(const SyntheticConfig& config);

  /// Fills `out` (cleared first) with up to `max_n` packets; 0 at end of
  /// stream. The delivered sequence is the same for every max_n.
  std::size_t next_batch(net::PacketBatch& out, std::size_t max_n);

  /// Like next_batch, as a view into the stream's buffer that stays valid
  /// until the next call; empty at end of stream.
  std::span<const net::PacketRecord> next_records(std::size_t max_n);

  /// Running tally of the flows and packets generated so far (ahead of
  /// what has been handed out); final once the stream has ended.
  [[nodiscard]] const GenerationReport& report() const { return report_; }

 private:
  bool release_chunk();
  void draw_flow();
  std::vector<net::PacketRecord>& pending_chunk(std::uint64_t c);

  SyntheticConfig config_;
  stats::Rng rng_;
  stats::Rng packet_rng_;
  stats::Zipf prefix_zipf_;
  GenerationReport report_;
  double t_ = 0.0;                         ///< latest flow arrival
  bool flows_done_ = false;                ///< an arrival fell past the end
  std::vector<PacketEmission> emissions_;  ///< reused across flows
  /// pending_[i] holds chunk next_chunk_ + i, in generation order; every
  /// chunk below frontier_ (the latest arrival's) is final.
  std::deque<std::vector<net::PacketRecord>> pending_;
  std::uint64_t next_chunk_ = 0;
  std::uint64_t frontier_ = 0;
  std::vector<net::PacketRecord> ready_;   ///< the released chunk, sorted
  std::size_t ready_pos_ = 0;
  std::vector<std::uint32_t> heads_;       ///< sort_chunk bucket heads
};

/// Drains a SyntheticStream into memory; `report`, if given, receives the
/// final tally.
[[nodiscard]] std::vector<net::PacketRecord> generate_packets(
    const SyntheticConfig& config, GenerationReport* report = nullptr);

/// Streams the generator into a trace file chunk by chunk; returns the
/// report.
GenerationReport generate_to_file(const SyntheticConfig& config,
                                  const std::filesystem::path& path);

/// The deterministic mapping from a Zipf prefix rank to the destination
/// address space (10.0.0.0/8). Exposed so benches can build forwarding
/// tables that cover exactly the generated /24s.
[[nodiscard]] net::Ipv4Address dst_address_for_rank(std::size_t prefix_rank,
                                                    std::uint8_t host);
[[nodiscard]] net::Prefix dst_prefix_for_rank(std::size_t prefix_rank);

}  // namespace fbm::trace
