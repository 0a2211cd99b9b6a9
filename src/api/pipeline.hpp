// Analysis configuration and the per-window carrier (fbm::api, stage 2).
//
// Every run of the paper's estimator, batch or live, is a
// live::WindowedEstimator: a batch analysis interval is a tiling window
// (stride = width = AnalysisConfig::interval_s). Each closed window leaves
// as a WindowPartial: exact flow sums plus exact Delta byte bins, handed to
// a PartialSink. finalize_interval (api/shard.hpp) fits one into an
// AnalysisReport; live::fit_window_report fits it into a WindowReport.
//
// The boundary rule is causal: a window reports the moment the stream
// clock passes its end, so it sees only its own packets. A flow crossing a
// window edge is re-derived in each window from that window's packets, and
// a one-packet piece at an edge is a single-packet flow there, discarded
// like any other. The paper's offline rule (Section III: keep a boundary
// piece, flag later pieces `continued`) needs the whole trace and stays in
// the primitives: flow::FlowClassifier with `interval` set, then
// flow::group_by_interval, then measure::measure_rate with the discards.
//
// Memory is bounded by the open window plus the active-flow table, never by
// the trace length: the paper's online monitoring story (Section V-G),
// multi-GB captures analyzed with a fixed-size footprint. Parallelism lives
// in engine::Engine: a link there is K estimators, each fed the packets
// whose flow key hashes to it (api::flow_shard_of), and one fold per link
// adds the K WindowPartials of each window before fitting once. Flows are
// independent shots in the paper's model and every partial field is an
// exact sum, so that fold reproduces a lone estimator's reports bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "api/report.hpp"
#include "api/trace_source.hpp"
#include "flow/interval.hpp"
#include "measure/rate_meter.hpp"
#include "net/packet.hpp"
#include "stats/timeseries.hpp"

namespace fbm::api {

/// Flow definition (paper Section III): the 5-tuple itself, or the
/// destination /24 prefix.
enum class FlowDefinition { five_tuple, prefix24 };

/// Trace-time cadence at which idle flows are expired. Results do not
/// depend on it.
inline constexpr double kExpireEveryS = 1.0;

/// Builder-style configuration of one analysis: batch (interval_s sets the
/// tiling windows) or, inside live::LiveConfig, live (interval_s unused).
class AnalysisConfig {
 public:
  AnalysisConfig& flow_definition(FlowDefinition v) { flow_def_ = v; return *this; }
  /// Idle gap that terminates a flow (paper: 60 s).
  AnalysisConfig& timeout_s(double v) { timeout_s_ = v; return *this; }
  /// Analysis-interval length (paper: 30 minutes): the width and stride of
  /// a batch run's tiling windows.
  AnalysisConfig& interval_s(double v) { interval_s_ = v; return *this; }
  /// Rate-averaging window Delta (paper: 200 ms).
  AnalysisConfig& delta_s(double v) { delta_s_ = v; return *this; }
  /// Target congestion probability for dimensioning (Section VII-A).
  AnalysisConfig& epsilon(double v) { eps_ = v; return *this; }
  /// Suppress reports for intervals with fewer flows than this.
  AnalysisConfig& min_flows(std::size_t v) { min_flows_ = v; return *this; }
  /// Skip fitting and force this power-shot b everywhere.
  AnalysisConfig& fixed_shot_b(double v) { fixed_b_ = v; return *this; }
  /// Shot power used when the fit is unavailable (default: triangular).
  AnalysisConfig& fallback_shot_b(double v) { fallback_b_ = v; return *this; }
  /// Packets read per batch by consume() (purely a throughput knob —
  /// results do not depend on it).
  AnalysisConfig& batch_packets(std::size_t v) { batch_packets_ = v; return *this; }

  [[nodiscard]] FlowDefinition flow_definition() const { return flow_def_; }
  [[nodiscard]] double timeout_s() const { return timeout_s_; }
  [[nodiscard]] double interval_s() const { return interval_s_; }
  [[nodiscard]] double delta_s() const { return delta_s_; }
  [[nodiscard]] double epsilon() const { return eps_; }
  [[nodiscard]] std::size_t min_flows() const { return min_flows_; }
  [[nodiscard]] double fixed_shot_b() const { return fixed_b_; }
  [[nodiscard]] bool has_fixed_shot_b() const { return fixed_b_ >= 0.0; }
  [[nodiscard]] double fallback_shot_b() const { return fallback_b_; }
  [[nodiscard]] std::size_t batch_packets() const { return batch_packets_; }

 private:
  FlowDefinition flow_def_ = FlowDefinition::five_tuple;
  double timeout_s_ = 60.0;
  double interval_s_ = 60.0;
  double delta_s_ = measure::kPaperDelta;
  double eps_ = 0.01;
  std::size_t min_flows_ = 0;
  double fixed_b_ = -1.0;  ///< < 0 means "fit per interval"
  double fallback_b_ = 1.0;
  std::size_t batch_packets_ = 1024;
};

/// One closed window's raw pre-fit material — a batch analysis interval or
/// a live sliding window, from one shard, one process or a merge of many.
/// Every field is an exact additive statistic: the counters, the flow sums
/// and the packet bytes binned at delta (discarded single-packet flows
/// subtracted, exact integral byte counts). Folding the partials of
/// key-disjoint producers with merge() and fitting once therefore
/// reproduces a single-machine run bit for bit, in any fold order.
///
/// The engine's per-link fold, PartialSink and agg::Merger all carry
/// these; fitting (and min_flows filtering, in finalize_interval) happens
/// exactly once, after the last fold.
struct WindowPartial {
  std::int64_t index = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t discards = 0;  ///< single-packet flows dropped
  flow::FlowSums sums{};
  stats::RateBinner bins;

  /// Adds `other`'s statistics. Throws std::invalid_argument when the bin
  /// grids differ.
  void merge(WindowPartial&& other);
};

/// Pre-fit flush hook: every closed window is handed over as raw
/// sufficient statistics (exact flow sums + exact integral byte bins) —
/// the engine's per-link fold, agg::Merger or api::analyze fits once after
/// the last fold, so K shards x M hosts reproduce a single-machine run bit
/// for bit.
using PartialSink = std::function<void(WindowPartial&&)>;

/// One-shot convenience: run a whole source through one estimator of
/// tiling windows (stride = width = interval_s) and return the report of
/// every interval finalize_interval keeps. Throws std::invalid_argument on
/// a bad configuration and on a negative, non-finite or out-of-order
/// timestamp.
[[nodiscard]] std::vector<AnalysisReport> analyze(TraceSource& source,
                                                  const AnalysisConfig& config);
[[nodiscard]] std::vector<AnalysisReport> analyze(
    std::span<const net::PacketRecord> packets, const AnalysisConfig& config);

}  // namespace fbm::api
