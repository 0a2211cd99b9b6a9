// Scenario specifications (fbm::scenario): regime-switching traffic
// declared as data.
//
// A scenario composes timed segments over one base traffic model (Poisson
// flow arrivals, lognormal size/duration, power-shot pacing). A spec with
// one baseline segment is that stationary model. Each segment switches the
// regime:
//
//   baseline     stationary shot noise at the base parameters
//   diurnal      lambda(t) modulated by a sinusoid (amplitude, period)
//   flash-crowd  lambda and E[S] both rise: extra "crowd" flows, larger
//                than baseline, concentrated on target prefixes
//   ddos         lambda spikes while E[S] collapses: a flood of tiny
//                short flows (the paper's DDoS signature) at the target
//                prefixes, small-packet, UDP
//   reroute      link failure/repair: destination prefixes in `prefixes`
//                are remapped onto `to_prefixes` for the segment, so
//                traffic shifts between engine links while the aggregate
//                is conserved
//
// Specs are parsed from a small line-based text format (see parse_scenario
// below; '#' starts a comment):
//
//   scenario ddos-flood
//   seed 42
//   lambda 200            # base flow arrivals per second
//   size-mean-bits 40000  # base lognormal mean flow size
//   size-cv 1.2
//   duration-mean-s 0.5   # base lognormal mean flow duration
//   duration-cv 1.0
//   shot-b 1              # power-shot pacing exponent
//   packet-bytes 1000     # packetization quantum (baseline flows)
//   attack-packet-bytes 64
//   prefix-pool 64        # distinct /24 destination prefixes
//   window 5              # suggested live window/stride (tool overridable)
//   stride 5
//   grace 10              # event match grace after the segment ends (s)
//   cooldown 60           # post-event alert-ignore span (s)
//   segment baseline 60
//   segment ddos 30 lambda-x=30 size-x=0.05 prefixes=0-7
//   segment baseline 90
//
// Segment lines are `segment KIND DURATION [key=value ...]` with keys
// lambda-x / size-x / duration-x (multipliers over the base model),
// amplitude / period (diurnal), prefixes=LO-HI / to-prefixes=LO-HI (rank
// ranges into the prefix pool), and expect / expect-spike / expect-drop
// (ground-truth overrides, see truth.hpp). Unset keys take per-kind
// defaults chosen so that the bundled regimes are detectable by the live
// band monitor out of the box.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "stats/rng.hpp"

namespace fbm::scenario {

enum class SegmentKind { baseline, diurnal, flash_crowd, ddos, reroute };

[[nodiscard]] std::string_view to_string(SegmentKind kind);
/// Throws std::invalid_argument for an unknown kind name.
[[nodiscard]] SegmentKind segment_kind_from_string(std::string_view name);

/// Expected-alert policy of one segment. `auto_from_kind` resolves at parse
/// time: ddos and flash-crowd expect a spike over the segment interval;
/// everything else expects no aggregate event.
enum class Expectation { auto_from_kind, none, spike, drop };

/// Inclusive rank range into the scenario's destination prefix pool.
/// empty() ranges mean "whole pool" where a target is optional.
struct PrefixRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool set = false;

  [[nodiscard]] std::size_t span() const { return set ? hi - lo + 1 : 0; }
  [[nodiscard]] bool contains(std::size_t rank) const {
    return set && rank >= lo && rank <= hi;
  }
};

struct Segment {
  SegmentKind kind = SegmentKind::baseline;
  double duration_s = 60.0;

  // Multipliers over the scenario's base model; 1 = unchanged. The
  // per-kind defaults (applied when the spec leaves them unset) are
  // lambda-x=30 size-x=0.05 duration-x=0.3 for ddos and lambda-x=3
  // size-x=2.5 for flash-crowd.
  double lambda_x = 1.0;
  double size_x = 1.0;
  double duration_x = 1.0;

  // Diurnal modulation: lambda(t) = base * lambda_x *
  // (1 + amplitude * sin(2*pi*(t - segment_start) / period_s)).
  double amplitude = 0.0;
  double period_s = 60.0;

  PrefixRange prefixes;     ///< target ranks (attack/crowd dst; reroute src)
  PrefixRange to_prefixes;  ///< reroute destination ranks

  Expectation expect = Expectation::auto_from_kind;
  std::string expect_spike_link;  ///< reroute: link expected to alert spike
  std::string expect_drop_link;   ///< reroute: link expected to alert drop

  /// Peak lambda multiplier over the segment (thinning envelope).
  [[nodiscard]] double lambda_peak_x() const {
    return lambda_x * (1.0 + (amplitude > 0.0 ? amplitude : 0.0));
  }
};

struct ScenarioSpec {
  std::string name;
  std::uint64_t seed = stats::Rng::default_seed;

  // Base (baseline-segment) model.
  double lambda = 200.0;             ///< flow arrivals per second
  double size_mean_bits = 4e4;       ///< lognormal mean flow size
  double size_cv = 1.2;
  double duration_mean_s = 0.5;      ///< lognormal mean flow duration
  double duration_cv = 1.0;
  double shot_b = 1.0;               ///< power-shot pacing exponent
  std::uint32_t packet_bytes = 1000; ///< packetization quantum
  std::uint32_t attack_packet_bytes = 64;  ///< ddos flood packet size
  std::size_t prefix_pool = 64;      ///< distinct /24 destination prefixes

  // Scoring policy carried into the truth log (see score.hpp).
  double grace_s = 10.0;    ///< alert may trail the event by this much
  double cooldown_s = 60.0; ///< post-event alerts ignored for this long

  // The live-analysis cadence the scenario was tuned for, to pass on as
  // fbm_live --window / --stride. 0 stride means "= window".
  double window_s = 5.0;
  double stride_s = 0.0;

  std::vector<Segment> segments;

  [[nodiscard]] double total_duration_s() const;
  /// Start time of segment `i` (sum of earlier durations).
  [[nodiscard]] double segment_start_s(std::size_t i) const;

  /// Throws std::invalid_argument naming the first inconsistency.
  void validate() const;
};

/// Parses the text format above. Line numbers appear in error messages.
/// Throws std::invalid_argument on malformed input.
[[nodiscard]] ScenarioSpec parse_scenario(std::istream& in,
                                          std::string_view origin = "spec");
[[nodiscard]] ScenarioSpec parse_scenario_text(std::string_view text);
/// Reads and parses a spec file; throws std::runtime_error when unreadable.
[[nodiscard]] ScenarioSpec load_scenario(const std::filesystem::path& path);

/// Renders `spec` back into the text format (parse(render(s)) == s for
/// every field; the determinism tests round-trip through this).
[[nodiscard]] std::string render_scenario(const ScenarioSpec& spec);

}  // namespace fbm::scenario
