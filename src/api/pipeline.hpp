// Single-pass streaming analysis (fbm::api, stage 2).
//
// AnalysisPipeline pushes each packet batch through flow classification,
// rate measurement, and analysis-interval bookkeeping, in one pass.
// An interval is closed — its flows summed and its bytes binned into a
// WindowPartial, handed to the partial sink — as soon as the stream's clock
// passes its end by more than the flow timeout, so memory is bounded by the
// analysis window (plus the active-flow table), never by the trace length.
// finalize_interval then fits the partial: model inputs, shot power,
// capacity plan. This is exactly the paper's online monitoring story
// (Section V-G): multi-GB captures analyzed with a fixed-size footprint.
//
// One pipeline is one thread's work. Parallelism lives in engine::Engine:
// a link there is K pipelines, each fed the packets whose flow key hashes
// to it (api::flow_shard_of), and one fold per link adds the K
// WindowPartials of each interval before fitting once. Flows are
// independent shots in the paper's model and every partial field is an
// exact sum, so that fold reproduces a lone pipeline's reports bit for bit.
// advance() moves a pipeline's clock without a packet, so a shard that
// sees no traffic still closes what its link's clock has passed.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "api/report.hpp"
#include "api/trace_source.hpp"
#include "flow/classifier.hpp"
#include "measure/rate_meter.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "obs/metrics.hpp"
#include "stats/timeseries.hpp"
#include "trace/trace_stats.hpp"

namespace fbm::api {

/// Flow definition (paper Section III): the 5-tuple itself, or the
/// destination /24 prefix.
enum class FlowDefinition { five_tuple, prefix24 };

/// Trace-time cadence at which idle flows are expired and closed intervals
/// swept. Results do not depend on it.
inline constexpr double kExpireEveryS = 1.0;

/// Builder-style configuration for AnalysisPipeline.
class AnalysisConfig {
 public:
  AnalysisConfig& flow_definition(FlowDefinition v) { flow_def_ = v; return *this; }
  /// Idle gap that terminates a flow (paper: 60 s).
  AnalysisConfig& timeout_s(double v) { timeout_s_ = v; return *this; }
  /// Analysis-interval length (paper: 30 minutes).
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
  /// Carry each interval's FlowRecords in its report (costs memory).
  AnalysisConfig& keep_flows(bool v) { keep_flows_ = v; return *this; }
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
  [[nodiscard]] bool keep_flows() const { return keep_flows_; }
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
  bool keep_flows_ = false;
  std::size_t batch_packets_ = 1024;
};

/// One closed window's raw pre-fit material — a batch analysis interval or
/// a live sliding window, from one shard, one process or a merge of many.
/// Every field is an exact additive statistic: the flow sums, the packet
/// bytes binned at delta (discarded single-packet flows subtracted, exact
/// integral byte counts) and the counters. Folding the partials of
/// key-disjoint producers with merge() and fitting once therefore
/// reproduces a single-machine run bit for bit, in any fold order.
///
/// The engine's per-link fold, PartialSink and agg::Merger all carry
/// these; fitting (and min_flows filtering, in finalize_interval) happens
/// exactly once, after the last fold.
struct WindowPartial {
  std::int64_t index = 0;
  std::uint64_t packets = 0;   ///< live windows only (batch leaves 0)
  std::uint64_t bytes = 0;     ///< live windows only
  std::uint64_t discards = 0;  ///< live windows only
  flow::FlowSums sums{};
  stats::RateBinner bins;
  /// The flow records themselves, unsorted — kept only under
  /// AnalysisConfig::keep_flows (batch figure benches); never serialized.
  std::vector<flow::FlowRecord> flows{};

  /// Adds `other`'s statistics (and kept flows). Throws
  /// std::invalid_argument when the bin grids differ.
  void merge(WindowPartial&& other);
};

class FlowClassifierHandle;  // api/shard.hpp

/// Pre-fit flush hook: every closed window is handed over as raw
/// sufficient statistics (exact flow sums + exact integral byte bins) —
/// the engine's per-link fold, agg::Merger or api::analyze fits once after
/// the last fold, so K shards x M hosts reproduce a single-machine run bit
/// for bit. Shared by AnalysisPipeline and live::WindowedEstimator.
using PartialSink = std::function<void(WindowPartial&&)>;

/// Streaming pipeline: push packet batches (timestamp order) from one
/// thread; every closed interval leaves through the partial sink, in
/// interval order. Every interval index up to the last packet's interval
/// is handed over exactly once, empty ones included, so indices line up
/// with wall-clock windows as in the batch group_by_interval.
class AnalysisPipeline {
 public:
  /// Throws std::invalid_argument on non-positive timeout/interval/delta,
  /// eps outside (0,1) or batch_packets == 0.
  explicit AnalysisPipeline(AnalysisConfig config);
  ~AnalysisPipeline();
  AnalysisPipeline(const AnalysisPipeline&) = delete;
  AnalysisPipeline& operator=(const AnalysisPipeline&) = delete;

  /// Feed the next batch. Timestamps must be finite and non-decreasing,
  /// within the batch and from one batch to the next (throws
  /// std::invalid_argument otherwise, before any state changes). Partials
  /// are bit-for-bit identical at every batch size, size 1 included.
  /// Throws std::logic_error while no partial sink is set.
  void push_batch(const net::PacketBatch& batch);

  /// Moves the stream clock to `now` without a packet: expires, closes and
  /// counts exactly what a packet at `now` would, and nothing else — no
  /// result changes. A no-op unless `now` is past the last packet or
  /// advance. Later packets must not be older than `now`.
  void advance(double now);

  /// End of stream: flush the classifier and close all pending intervals.
  /// push_batch() must not be called afterwards.
  void finish();

  /// Convenience: drain an entire source through the pipeline and finish.
  void consume(TraceSource& source);

  /// Where closed intervals go, as raw pre-fit material (see PartialSink);
  /// finalize_interval fits one. Set before the first push.
  void set_partial_sink(PartialSink sink) {
    partial_sink_ = std::move(sink);
  }

  /// Running totals over everything pushed so far.
  [[nodiscard]] const trace::TraceSummary& summary() const { return summary_; }
  [[nodiscard]] const flow::ClassifierCounters& counters() const;
  [[nodiscard]] const AnalysisConfig& config() const { return config_; }

  /// Observability for the bounded-memory story: intervals held open and
  /// flows tracked.
  [[nodiscard]] std::size_t open_intervals() const { return open_.size(); }
  [[nodiscard]] std::size_t active_flows() const;

 private:
  /// Throws std::logic_error while no partial sink is set.
  void require_sink() const;
  [[nodiscard]] WindowPartial make_interval(std::int64_t index) const;
  [[nodiscard]] WindowPartial& open_at(std::int64_t index);
  /// Bins the batch's bytes into their intervals, one interval lookup per
  /// interval-homogeneous run.
  void bin_batch(const net::PacketBatch& batch);
  /// Moves completed flows and discards into their open intervals.
  void drain_classifier();
  /// Expires idle flows as of `now` and closes every interval whose flows
  /// are all complete by then.
  void sweep(double now);
  /// Closes every index not yet closed up to `last` inclusive, empty
  /// intervals included, so the index sequence stays contiguous.
  void close_through(std::int64_t last);
  /// Folds classifier-counter deltas into the obs counters and samples the
  /// flow-table gauges. Batch/sweep cadence, no-op when obs is disabled.
  void sync_obs(bool sample_table);

  AnalysisConfig config_;
  std::unique_ptr<FlowClassifierHandle> classifier_;
  std::map<std::int64_t, WindowPartial> open_;
  PartialSink partial_sink_;
  trace::TraceSummary summary_;
  double last_ts_ = -std::numeric_limits<double>::infinity();
  double next_sweep_ = -std::numeric_limits<double>::infinity();
  std::int64_t next_close_ = 0;  ///< lowest interval index not yet closed
  std::int64_t max_index_ = -1;  ///< highest interval index seen
  bool finished_ = false;

  // obs: the classifier-counter values already added to the registry.
  flow::ClassifierCounters obs_synced_{};
  obs::Histogram* obs_classify_seconds_ = nullptr;
};

/// One-shot convenience: run a whole source through a fresh pipeline and
/// return the report of every interval finalize_interval keeps.
[[nodiscard]] std::vector<AnalysisReport> analyze(TraceSource& source,
                                                  const AnalysisConfig& config);
[[nodiscard]] std::vector<AnalysisReport> analyze(
    std::span<const net::PacketRecord> packets, const AnalysisConfig& config);

}  // namespace fbm::api
