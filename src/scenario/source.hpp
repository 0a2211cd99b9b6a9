// Regime-switching packet generation (fbm::scenario).
//
// ScenarioTraceSource simulates a ScenarioSpec as a deterministic, seeded
// api::TraceSource: flows arrive as an inhomogeneous Poisson process whose
// intensity follows the spec's segments (gen::ThinningArrivals under a
// global envelope), draw size/duration from the base lognormals scaled by
// the active segment, and are packetized with power-shot pacing, so the
// whole analysis pipeline (classification included) runs on scenario
// output. A spec with one baseline segment is the stationary shot-noise
// model itself: Poisson arrivals at `lambda`, each flow a power shot
// S * (u/D)^(b+1).
//
// Regime mechanics, per arriving flow:
//   - During ddos / flash-crowd segments the intensity is base*lambda_x;
//     each arrival is an "attack"/"crowd" flow with probability
//     1 - 1/lambda_x (the *extra* arrivals) and a baseline flow otherwise,
//     so background traffic persists through the event.
//   - ddos attack flows shrink by size-x, pace in attack-packet-bytes
//     quanta (small-packet flood, UDP), and are clamped to >= 2 packets:
//     the paper's filtering discards single-packet flows, and a flood of
//     discarded flows would be invisible to the measured rate by design.
//   - flash-crowd flows grow by size-x and target the segment's prefixes.
//   - reroute segments remap destination ranks in `prefixes` onto
//     `to-prefixes` (rank-shifted modulo the target span), moving traffic
//     between engine links while conserving the aggregate.
//
// Determinism: the packet stream is a pure function of the spec (seed
// included). Candidate arrivals cost a fixed two Rng draws, flow
// attributes a fixed per-class draw sequence, so next_batch(n) at every n
// and reset() replay all deliver bit-identical sequences — pinned by
// tests/scenario/test_scenario_source.cpp.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "api/trace_source.hpp"
#include "gen/arrivals.hpp"
#include "scenario/spec.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace fbm::scenario {

class ScenarioTraceSource final : public api::TraceSource {
 public:
  /// Validates the spec (ScenarioSpec::validate rules).
  explicit ScenarioTraceSource(ScenarioSpec spec);

  [[nodiscard]] std::size_t next_batch(net::PacketBatch& out,
                                       std::size_t max_n) override;
  /// Restarts the simulation from its seed: the replay is identical.
  [[nodiscard]] bool reset() override;

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t flows_started() const { return flows_; }
  /// Flows that arrived as attack/crowd extras (ddos / flash-crowd).
  [[nodiscard]] std::uint64_t attack_flows() const { return attack_flows_; }

 private:
  struct ActiveFlow {
    double start = 0.0;
    double duration_s = 0.0;
    std::uint64_t bytes_left = 0;
    std::uint64_t packets_sent = 0;
    double next_packet_ts = 0.0;
    std::uint32_t packet_bytes = 0;  ///< per-flow quantum (ddos differs)
    net::FiveTuple tuple;
  };
  struct ByNextPacket {
    [[nodiscard]] bool operator()(const ActiveFlow& a,
                                  const ActiveFlow& b) const {
      return a.next_packet_ts > b.next_packet_ts;  // min-heap
    }
  };

  /// Core generator: the next packet into (ts, tuple, size); false at end
  /// of stream. next_batch() is a thin wrapper.
  bool step(double& ts, net::FiveTuple& tuple, std::uint32_t& size);
  void start_flow(double t0);
  void advance_arrival();
  void schedule_next_packet(ActiveFlow& f) const;
  [[nodiscard]] const Segment& segment_at(double t) const;
  [[nodiscard]] double lambda_at(double t) const;

  ScenarioSpec spec_;
  std::vector<double> segment_start_;  ///< per-segment start times
  double total_duration_s_ = 0.0;

  stats::LogNormal size_dist_;
  stats::LogNormal duration_dist_;

  stats::Rng rng_;
  gen::ThinningArrivals arrivals_;
  double next_arrival_ = 0.0;
  bool arrivals_done_ = false;
  std::uint64_t flows_ = 0;
  std::uint64_t attack_flows_ = 0;
  std::priority_queue<ActiveFlow, std::vector<ActiveFlow>, ByNextPacket>
      active_;
};

}  // namespace fbm::scenario
