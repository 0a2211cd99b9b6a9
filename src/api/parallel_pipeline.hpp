// Sharded multi-threaded streaming analysis (fbm::api).
//
// ParallelAnalysisPipeline is the drop-in multi-core counterpart of
// AnalysisPipeline: N worker shards, each owning the flow keys that hash to
// it (stable FNV-1a over the 5-tuple or /24 prefix), classify and rate-bin
// their share of the packet stream; a deterministic merge stage re-sorts
// each interval's flows by flow::ByStart and sums the shards' rate bins as
// exact integral byte counts. Per-interval AnalysisReports are therefore
// bit-for-bit identical to the serial pipeline — for any thread count and
// any packet batching — which the differential tests in
// tests/api/test_parallel_pipeline.cpp prove on seeded traces.
//
// Threading model: the caller's thread validates ordering, keeps the trace
// summary, routes packets into per-shard batches and broadcasts expiry
// sweeps; each worker thread drains its command queue in order (batches,
// sweeps, finish). Workers emit closed ShardIntervals as contiguous index
// sequences, so the merge simply waits until every shard has delivered
// interval k before finalizing it. All merge work happens on the caller's
// thread — reports stream out in interval order, a little later than the
// serial pipeline would emit them, never in a different order.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "api/pipeline.hpp"
#include "api/report.hpp"
#include "api/trace_source.hpp"
#include "flow/classifier.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "trace/trace_stats.hpp"

namespace fbm::api {

/// Sharded pipeline: push packet batches (timestamp order) from one thread,
/// poll reports from the same thread. config.threads() selects the shard
/// count (>= 1); config.batch_packets() the hand-off granularity. The public
/// surface — push_batch, finish, consume, the sinks and the report queue —
/// is AnalysisPipeline's, so call sites can switch with one line.
class ParallelAnalysisPipeline {
 public:
  /// Throws std::invalid_argument on bad parameters (same rules as
  /// AnalysisPipeline, plus threads/batch_packets >= 1). Spawns
  /// config.threads() worker threads.
  explicit ParallelAnalysisPipeline(AnalysisConfig config);
  ~ParallelAnalysisPipeline();
  ParallelAnalysisPipeline(const ParallelAnalysisPipeline&) = delete;
  ParallelAnalysisPipeline& operator=(const ParallelAnalysisPipeline&) =
      delete;

  /// Feed the next batch; same ordering contract as
  /// AnalysisPipeline::push_batch, checked on the caller's thread before
  /// anything is routed. Reports are bit-for-bit identical to the serial
  /// pipeline's at every batch size and thread count.
  void push_batch(const net::PacketBatch& batch);

  /// End of stream: flush every shard, join the workers, merge everything.
  /// push_batch() must not be called afterwards. Rethrows any worker
  /// failure.
  void finish();

  /// Convenience: drain an entire source through the pipeline and finish.
  void consume(TraceSource& source);

  /// Merged reports ready so far, oldest interval first. Merging lags the
  /// workers slightly, so a report may become visible a few batches after
  /// the serial pipeline would have emitted it — the sequence is identical.
  [[nodiscard]] bool has_report() const { return !ready_.empty(); }
  [[nodiscard]] AnalysisReport pop_report();
  [[nodiscard]] std::vector<AnalysisReport> take_reports();

  /// Per-window flush hook, same contract as AnalysisPipeline: reports go to
  /// `sink` in interval order as the merge finalizes them. Set before the
  /// first push.
  void set_report_sink(ReportSink sink) { sink_ = std::move(sink); }

  /// Diverts merged intervals to `sink` as raw pre-fit material (see
  /// api/pipeline.hpp PartialSink). The in-process shard merge still runs —
  /// one ShardInterval per interval leaves, already folded across this
  /// process's workers — but fitting defers to agg::Merger. Set before the
  /// first push; runs on the caller's thread.
  void set_partial_sink(PartialSink sink) {
    partial_sink_ = std::move(sink);
  }

  /// Running totals over everything pushed so far (caller-side, exact).
  [[nodiscard]] const trace::TraceSummary& summary() const { return summary_; }
  /// Classifier counters summed over shards. Counts packets the workers
  /// have processed: exact once finish() has returned, a lower bound while
  /// the stream is still being pushed.
  [[nodiscard]] flow::ClassifierCounters counters() const;
  [[nodiscard]] const AnalysisConfig& config() const { return config_; }
  [[nodiscard]] std::size_t shard_count() const;

  /// Observability: flows currently tracked across all shards, and the
  /// widest per-shard window of intervals held open.
  [[nodiscard]] std::size_t active_flows() const;
  [[nodiscard]] std::size_t open_intervals() const;

 private:
  struct Worker;

  void flush_pending(std::size_t shard);
  void broadcast_sweep(double now);
  void rethrow_worker_error();
  void try_merge();
  void merge_front();  ///< all shards have next_merge_ at their front

  AnalysisConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<net::PacketBatch> pending_;  ///< per-shard staging batches
  std::deque<AnalysisReport> ready_;
  ReportSink sink_;
  PartialSink partial_sink_;
  trace::TraceSummary summary_;
  double last_ts_ = -std::numeric_limits<double>::infinity();
  double next_sweep_ = 0.0;
  std::int64_t close_bcast_ = 0;  ///< lowest interval index not yet broadcast
  std::int64_t next_merge_ = 0;   ///< lowest interval index not yet merged
  std::int64_t max_index_ = -1;   ///< highest interval index seen
  bool finished_ = false;
};

}  // namespace fbm::api
