// Single-pass streaming analysis (fbm::api, stage 2).
//
// AnalysisPipeline pushes each packet batch through flow classification,
// rate measurement, and analysis-interval bookkeeping, in one pass.
// An interval is closed — its flows sorted, model inputs estimated, shot
// power fitted, capacity planned — as soon as the stream's clock passes its
// end by more than the flow timeout, so memory is bounded by the analysis
// window (plus the active-flow table), never by the trace length. This is
// exactly the paper's online monitoring story (Section V-G): multi-GB
// captures analyzed with a fixed-size footprint.
//
// The accumulation runs in config.threads() PipelineShards (api/shard.hpp).
// With more than one, each packet goes to the shard that owns its flow key
// (a stable hash), the shards run on a core::WorkerPool, and a merge on the
// caller's thread folds every shard's copy of interval k before fitting it.
// Flows are independent shots in the paper's model, so each shard's
// classifier sees exactly the per-key packet subsequence a single shard
// would; the merge adds exact flow sums (flow::FlowSums) and integral byte
// bins, both of which come out the same in any order. Reports are therefore
// bit-for-bit identical at every thread count and every batch size, and
// identical to the batch path (classify_all + group_by_interval +
// estimate_inputs + measure_rate).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "api/report.hpp"
#include "api/trace_source.hpp"
#include "flow/classifier.hpp"
#include "measure/rate_meter.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "trace/trace_stats.hpp"

namespace fbm::core {
class WorkerPool;
}  // namespace fbm::core

namespace fbm::api {

/// Flow definition (paper Section III): the 5-tuple itself, or the
/// destination /24 prefix.
enum class FlowDefinition { five_tuple, prefix24 };

/// Active-flow table slots reserved ahead per pipeline (split across
/// shards, and across the open windows of a live estimator): skips the
/// rehash cascade during ramp-up. Results do not depend on it.
inline constexpr std::size_t kReserveFlows = 4096;

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
  /// Flow-hashed worker shards; 1 (the default) runs everything on the
  /// caller's thread, 0 auto-detects the machine's core count
  /// (std::thread::hardware_concurrency). Output is bit-for-bit identical
  /// at every value.
  AnalysisConfig& threads(std::size_t v) { threads_ = v; return *this; }
  /// Packets read per batch by consume() and handed to a worker shard per
  /// task (purely a throughput knob — results do not depend on it).
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
  [[nodiscard]] std::size_t threads() const { return threads_; }
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
  std::size_t threads_ = 1;
  std::size_t batch_packets_ = 1024;
};

struct WindowPartial;  // api/shard.hpp

/// Pre-fit flush hook for distributed aggregation: when set, every closed
/// window is handed over as raw sufficient statistics (exact flow sums +
/// exact integral byte bins, see api/shard.hpp) instead of being fitted
/// locally — agg::Merger runs api::fit_window exactly once after the final
/// fold, so K processes x M hosts reproduce a single-machine run bit for
/// bit. min_flows filtering defers with the fit. Mutually exclusive with
/// queued reports: while a partial sink is set, no reports are produced at
/// all. Shared by AnalysisPipeline and live::WindowedEstimator.
using PartialSink = std::function<void(WindowPartial&&)>;

/// Per-window flush hook: invoked exactly once per closed analysis interval,
/// in interval order, as soon as the interval is finalized (min_flows
/// filtering already applied). Always runs on the caller's thread.
using ReportSink = std::function<void(AnalysisReport&&)>;

/// Streaming pipeline: push packet batches (timestamp order) and poll
/// reports, both from one thread. Reports are emitted in interval order;
/// every interval index up to the last packet's interval gets exactly one
/// report (unless filtered by min_flows), so indices line up with
/// wall-clock windows as in the batch group_by_interval.
class AnalysisPipeline {
 public:
  /// Throws std::invalid_argument on non-positive timeout/interval/delta,
  /// batch_packets == 0 or threads > kMaxThreads. Spawns config.threads()
  /// workers when that is > 1.
  explicit AnalysisPipeline(AnalysisConfig config);
  ~AnalysisPipeline();
  AnalysisPipeline(const AnalysisPipeline&) = delete;
  AnalysisPipeline& operator=(const AnalysisPipeline&) = delete;

  /// Feed the next batch. Timestamps must be finite and non-decreasing,
  /// within the batch and from one batch to the next (throws
  /// std::invalid_argument otherwise, before any state changes). Reports
  /// are bit-for-bit identical at every batch size, size 1 included.
  void push_batch(const net::PacketBatch& batch);

  /// End of stream: flush the classifiers, close all pending intervals and
  /// join the workers. push_batch() must not be called afterwards. A worker
  /// failure is rethrown here, or earlier at the first push that hands the
  /// pool more work after it.
  void finish();

  /// Convenience: drain an entire source through the pipeline and finish.
  void consume(TraceSource& source);

  /// Closed-interval reports ready so far, oldest first. With threads > 1
  /// the merge trails the workers, so a report may show up a few batches
  /// later than with one thread — the sequence is identical.
  [[nodiscard]] bool has_report() const { return !ready_.empty(); }
  [[nodiscard]] AnalysisReport pop_report();
  /// All pending reports at once (clears the queue).
  [[nodiscard]] std::vector<AnalysisReport> take_reports();

  /// Streams reports into `sink` the moment each interval closes instead of
  /// queueing them (pop_report/take_reports then never see them). Set before
  /// the first push.
  void set_report_sink(ReportSink sink) { sink_ = std::move(sink); }

  /// Diverts closed intervals to `sink` as raw pre-fit material (see
  /// PartialSink): no fitting, no min_flows filtering, no reports. Set
  /// before the first push.
  void set_partial_sink(PartialSink sink) {
    partial_sink_ = std::move(sink);
  }

  /// Running totals over everything pushed so far.
  [[nodiscard]] const trace::TraceSummary& summary() const { return summary_; }
  /// Classifier counters summed over the shards: exact once finish() has
  /// returned, a lower bound while workers still hold queued batches.
  [[nodiscard]] flow::ClassifierCounters counters() const;
  /// config.threads() resolved (0 becomes the core count).
  [[nodiscard]] const AnalysisConfig& config() const { return config_; }

  /// Observability for the bounded-memory story: intervals held open (by
  /// the widest shard) and flows tracked (summed over the shards).
  [[nodiscard]] std::size_t open_intervals() const;
  [[nodiscard]] std::size_t active_flows() const;

 private:
  struct Shard;

  void flush_pending(std::size_t shard);
  /// Queues "close `shard` through `last`" (a sweep at `now`, or the final
  /// flush when `final`) on the shard's worker.
  void submit_close(std::size_t shard, double now, std::int64_t last,
                    bool final);
  void sweep(double now);
  /// Folds and finalizes every interval that all shards have closed.
  void merge_ready();

  AnalysisConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::deque<AnalysisReport> ready_;
  ReportSink sink_;
  PartialSink partial_sink_;
  trace::TraceSummary summary_;
  double last_ts_ = -std::numeric_limits<double>::infinity();
  double next_sweep_ = 0.0;
  std::int64_t next_close_ = 0;  ///< lowest interval index not yet swept
  std::int64_t max_index_ = -1;  ///< highest interval index seen
  bool finished_ = false;
  /// Declared last, so it is joined before the shards its tasks touch go.
  std::unique_ptr<core::WorkerPool> pool_;
};

/// One-shot convenience: run a whole source through a fresh pipeline and
/// return every report.
[[nodiscard]] std::vector<AnalysisReport> analyze(TraceSource& source,
                                                  const AnalysisConfig& config);
[[nodiscard]] std::vector<AnalysisReport> analyze(
    std::span<const net::PacketRecord> packets, const AnalysisConfig& config);

}  // namespace fbm::api
