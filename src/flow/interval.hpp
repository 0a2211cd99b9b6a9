// Analysis-interval bookkeeping (the paper's 30-minute windows).
//
// Groups completed FlowRecords by interval and derives, per interval, the
// three model inputs (lambda, E[S], E[S^2/D]) plus the raw series used by
// Figures 1 and 3-6 (inter-arrival times, sizes, durations, cumulative
// arrival curve).
//
// The model inputs and the flow-population moments are functions of a few
// additive sufficient statistics. FlowSums holds them exactly: integer sums
// for the byte counts, core::ExactSum for the sums over doubles. A window's
// sums are therefore the same bits whatever order its flows were added or
// its partial sums merged in, and every fit divides once, at the end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/exact_sum.hpp"
#include "flow/flow_record.hpp"

namespace fbm::flow {

/// Model inputs estimated from one interval of flows (paper Section V-G:
/// "only three parameters").
struct ModelInputs {
  double lambda = 0.0;        ///< flow arrivals per second
  double mean_size_bits = 0.0;      ///< E[S], bits
  double mean_s2_over_d = 0.0;      ///< E[S^2/D], bits^2/s
  std::size_t flows = 0;

  /// Corollary 1: E[R] = lambda * E[S], bits/s.
  [[nodiscard]] double mean_rate_bps() const {
    return lambda * mean_size_bits;
  }
};

/// Durations below this are clamped in S^2/D (guards the ratio against
/// numerically tiny durations).
inline constexpr double kMinDurationS = 1e-3;

/// Exact additive sufficient statistics of a set of flows.
struct FlowSums {
  std::uint64_t n = 0;
  std::uint64_t continued = 0;   ///< pieces continuing a boundary-split flow
  std::uint64_t size_bytes = 0;  ///< sum S, bytes
  /// sum S^2, bytes^2. Fits: sum S^2 <= (sum S)^2 < 2^128.
  unsigned __int128 size_bytes_sq = 0;
  core::ExactSum s2_over_d;    ///< sum S^2/max(D, kMinDurationS), bits^2/s
  core::ExactSum duration;     ///< sum D, s
  core::ExactSum duration_sq;  ///< sum D^2, s^2 (each square exact)
  core::ExactSum rate;         ///< sum S/D, bits/s (0 for D == 0)

  void add(const FlowRecord& f);
  void merge(const FlowSums& other);

  /// Model inputs of an interval of `length_s` seconds holding these flows.
  [[nodiscard]] ModelInputs inputs(double length_s) const;

  // Flow-population moments (population form; 0 without flows).
  [[nodiscard]] double mean_duration_s() const;
  [[nodiscard]] double stddev_size_bits() const;
  [[nodiscard]] double stddev_duration_s() const;
  [[nodiscard]] double mean_rate_bps() const;

  friend bool operator==(const FlowSums&, const FlowSums&) = default;
};

/// One analysis interval and everything measured in it.
struct IntervalData {
  double start = 0.0;
  double length = 0.0;
  std::vector<FlowRecord> flows;  ///< sorted by start time

  [[nodiscard]] double end() const { return start + length; }
};

/// Splits flows (already split at boundaries by the classifier) into
/// intervals of `interval_s` covering [0, horizon). A flow belongs to the
/// interval containing its start time. Flows starting beyond the horizon are
/// dropped. Intervals are returned in time order; empty intervals are kept
/// so indices line up with wall-clock windows.
[[nodiscard]] std::vector<IntervalData> group_by_interval(
    std::span<const FlowRecord> flows, double interval_s, double horizon_s);

/// Estimates the model inputs from one interval by folding its flows into
/// FlowSums, so it agrees bit for bit with every streaming fit. Durations
/// are clamped to kMinDurationS in S^2/D.
[[nodiscard]] ModelInputs estimate_inputs(const IntervalData& interval);

/// Inter-arrival time series of the interval's flows (Figures 3-4).
[[nodiscard]] std::vector<double> interarrival_times(
    const IntervalData& interval);

/// Size (bytes) and duration (s) series in arrival order (Figures 5-6).
[[nodiscard]] std::vector<double> sizes_bytes(const IntervalData& interval);
[[nodiscard]] std::vector<double> durations_s(const IntervalData& interval);

/// Cumulative arrival counts sampled every `step_s` from the interval start
/// (Figure 1): out[i] = number of flows arrived in [start, start+i*step].
[[nodiscard]] std::vector<std::size_t> cumulative_arrivals(
    const IntervalData& interval, double step_s);

/// Number of flows in the interval flagged as continuations of flows split
/// at the boundary (the ~15k/680k effect in Figure 1).
[[nodiscard]] std::size_t continued_count(const IntervalData& interval);

}  // namespace fbm::flow
