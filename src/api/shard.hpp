// Sharded flow analysis building blocks (fbm::api).
//
// Flow classification over millions of 5-tuples is embarrassingly shardable:
// every packet of a flow key lands on the shard that owns the key, so each
// shard's classifier sees exactly the per-key packet subsequence it would
// have seen in a single-threaded run — timeouts and interval splits depend
// only on that subsequence, never on other keys. PipelineShard is the
// single-threaded worker state (classifier + per-interval flow sums and
// rate-bin accumulation); AnalysisPipeline owns config.threads() of them,
// runs them on a core::WorkerPool and adds up their closed intervals.
//
// finalize_interval() is the one place interval math happens — every
// thread count closes intervals through it, so all agree bit for bit by
// construction.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "api/pipeline.hpp"
#include "dimension/provisioning.hpp"
#include "flow/classifier.hpp"
#include "flow/interval.hpp"
#include "measure/rate_meter.hpp"
#include "net/packet.hpp"
#include "obs/catalog.hpp"
#include "stats/timeseries.hpp"

namespace fbm::api {

/// A type-erased snapshot of one classifier's complete mid-stream state,
/// for the checkpoint codec (ckpt::). Keys are canonicalized to a FiveTuple
/// regardless of flow definition: a prefix key stores its network address
/// in `dst` and its prefix length in `src_port`, all other fields zero.
/// Only the key set matters, not the table layout: flows are summed into
/// order-free flow::FlowSums, so the order the table emits them in never
/// reaches a result. For the same reason a snapshot is taken right after
/// the completed flows and discards were taken: they hold none.
struct ClassifierState {
  struct ActiveFlow {
    net::FiveTuple key;
    flow::FlowRecord record;
    std::int64_t start_index = 0;
  };
  std::vector<ActiveFlow> active;  ///< table iteration order
  flow::ClassifierCounters counters;
  double last_ts = 0.0;  ///< stream clock (-inf before any packet)
};

/// Type erasure over flow::FlowClassifier<Key>: the flow definition is a
/// runtime choice, the classifier a compile-time template.
class FlowClassifierHandle {
 public:
  virtual ~FlowClassifierHandle() = default;
  /// Classifies packets [begin, end) of `batch` (see
  /// flow::FlowClassifier::add_batch).
  virtual void add_batch(const net::PacketBatch& batch, std::size_t begin,
                         std::size_t end) = 0;
  void add_batch(const net::PacketBatch& batch) {
    add_batch(batch, 0, batch.size());
  }
  virtual void expire_idle(double now) = 0;
  virtual void flush() = 0;
  [[nodiscard]] virtual std::vector<flow::FlowRecord> take_flows() = 0;
  [[nodiscard]] virtual std::vector<flow::DiscardedPacket> take_discards() = 0;
  [[nodiscard]] virtual const flow::ClassifierCounters& counters() const = 0;
  [[nodiscard]] virtual std::size_t active_flows() const = 0;
  /// Flow-table geometry for telemetry (occupancy / capacity; mean
  /// robin-hood probe distance). O(capacity) — scrape cadence only.
  [[nodiscard]] virtual double table_load_factor() const = 0;
  [[nodiscard]] virtual double table_mean_probe() const = 0;
  /// Complete mid-stream state, canonical-keyed (see ClassifierState).
  /// Throws std::logic_error while completed flows or discards are still
  /// waiting to be taken.
  [[nodiscard]] virtual ClassifierState save_state() const = 0;
  /// Rebuilds the saved state in a fresh classifier created with the same
  /// options, re-inserting the active flows. Throws std::invalid_argument
  /// on an inconsistent snapshot.
  virtual void restore_state(const ClassifierState& state) = 0;
};

/// Classifier for the configured flow definition, timeout and interval.
[[nodiscard]] std::unique_ptr<FlowClassifierHandle> make_flow_classifier(
    const AnalysisConfig& config);

/// Classifier with explicit options (fbm::live runs one classifier per
/// sliding window, with boundary splitting disabled — the window itself is
/// the interval).
[[nodiscard]] std::unique_ptr<FlowClassifierHandle> make_flow_classifier(
    FlowDefinition def, const flow::ClassifierOptions& options);

/// Throws std::invalid_argument for out-of-range pipeline parameters.
void validate_config(const AnalysisConfig& config);

/// Largest worker count a pipeline or engine accepts.
inline constexpr std::size_t kMaxThreads = 4096;

/// A thread count of 0 means "use every core": resolves to
/// std::thread::hardware_concurrency() (floor 1 when the runtime cannot
/// tell). Any other value in [1, kMaxThreads] passes through unchanged;
/// larger ones throw std::invalid_argument. AnalysisConfig, the engine and
/// the tools' --threads all go through here.
[[nodiscard]] std::size_t resolve_threads(std::size_t configured);

/// Analysis-interval index of a timestamp — the single definition the
/// pipeline and its shards use, so a flow lands in the same interval
/// everywhere.
[[nodiscard]] inline std::int64_t interval_index_of(double ts,
                                                    double interval_s) {
  return static_cast<std::int64_t>(std::floor(ts / interval_s));
}

/// Shard of the flow key of `tuple` among `nshards` workers. Stable: FNV-1a
/// over the key's canonical fields, so the same key maps to the same shard
/// in every run on every platform.
[[nodiscard]] std::size_t flow_shard_of(const net::FiveTuple& tuple,
                                        FlowDefinition def,
                                        std::size_t nshards);

/// One closed window's raw pre-fit material — a batch analysis interval or
/// a live sliding window, from one shard, one process or a merge of many.
/// Every field is an exact additive statistic: the flow sums, the packet
/// bytes binned at delta (discarded single-packet flows subtracted, exact
/// integral byte counts) and the counters. Folding the partials of
/// key-disjoint producers with merge() and fitting once therefore
/// reproduces a single-machine run bit for bit, in any fold order.
///
/// PartialSink (api/pipeline.hpp) and the live partial sink hand these to
/// fbm::agg instead of fitting locally; fitting (and min_flows filtering)
/// then happens exactly once, after agg::Merger folds every producer.
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

/// Single-threaded per-shard pipeline state. Not thread-safe: exactly one
/// thread drives it (AnalysisPipeline pins each instance to one pool worker
/// and guards it with a mutex for its observability getters). Feed only
/// packets whose flow key hashes to this shard, in global timestamp order.
class PipelineShard {
 public:
  explicit PipelineShard(const AnalysisConfig& config);

  /// Classify the batch and bin its bytes into their analysis intervals:
  /// the classifier runs its hash-ahead batch path (and the ingest check),
  /// the interval lookup happens once per interval-homogeneous run, and
  /// completed flows are drained once per batch.
  void add_batch(const net::PacketBatch& batch);

  /// Expire flows idle as of `now`, then emit one WindowPartial for every
  /// index not yet closed up to `last_index` inclusive (empty intervals
  /// included, so all shards produce the same contiguous index sequence).
  void close_through(double now, std::int64_t last_index,
                     std::vector<WindowPartial>& out);

  /// End of stream: terminate all active flows and close through
  /// `last_index`.
  void finish(std::int64_t last_index, std::vector<WindowPartial>& out);

  [[nodiscard]] const flow::ClassifierCounters& counters() const {
    return classifier_->counters();
  }
  [[nodiscard]] std::size_t active_flows() const {
    return classifier_->active_flows();
  }
  [[nodiscard]] std::size_t open_intervals() const { return open_.size(); }

 private:
  [[nodiscard]] WindowPartial make_interval(std::int64_t index) const;
  [[nodiscard]] WindowPartial& open_at(std::int64_t index);
  void drain_classifier();
  void emit_through(std::int64_t last_index, std::vector<WindowPartial>& out);
  /// Folds classifier-counter deltas into the obs locals and samples the
  /// flow-table gauges. Batch/sweep cadence, no-op when obs is disabled.
  void sync_obs(bool sample_table);

  AnalysisConfig config_;
  std::unique_ptr<FlowClassifierHandle> classifier_;
  std::map<std::int64_t, WindowPartial> open_;
  std::int64_t next_close_ = 0;

  // obs: this shard's private counter cells (one relaxed add each at sync
  // time) and the classifier-counter values already folded in.
  obs::ShardedCounter::Local obs_packets_;
  obs::ShardedCounter::Local obs_flows_;
  obs::ShardedCounter::Local obs_discards_;
  obs::ShardedCounter::Local obs_splits_;
  flow::ClassifierCounters obs_synced_{};
  obs::Histogram* obs_classify_seconds_ = nullptr;
};

/// One fitted window of trace time: everything the paper derives from a
/// window's flow sums plus its exact byte bins. Produced by fit_window() —
/// the single implementation of the per-window math that the serial
/// pipeline, the sharded merge and live::WindowedEstimator all share, so
/// all three agree bit for bit by construction.
struct WindowFit {
  flow::ModelInputs inputs;
  measure::RateMoments measured;
  std::size_t continued_flows = 0;
  std::optional<double> shot_b;
  double shot_b_used = 1.0;
  double model_cov = 0.0;
  dimension::ProvisioningPlan plan;
  stats::RateSeries series;       ///< the Delta-binned measured rate
};

/// Fits one window of `length_s` seconds: the model inputs from the flow
/// sums, rate moments from the bins (which cover the window), the shot
/// power (or the configured fixed/fallback b), the capacity plan.
[[nodiscard]] WindowFit fit_window(const AnalysisConfig& config,
                                   double length_s,
                                   const flow::FlowSums& sums,
                                   const stats::RateBinner& bins);

/// Turns one interval's merged raw material into the finished
/// AnalysisReport via fit_window(); with keep_flows the report carries the
/// interval's flows sorted by flow::ByStart. Both pipelines and the merger
/// close intervals through here; min_flows filtering stays with the
/// caller.
[[nodiscard]] AnalysisReport finalize_interval(const AnalysisConfig& config,
                                               WindowPartial&& raw);

}  // namespace fbm::api
