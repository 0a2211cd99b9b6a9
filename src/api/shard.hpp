// Flow analysis building blocks shared by every estimator (fbm::api).
//
// Flow classification over millions of 5-tuples is embarrassingly shardable:
// every packet of a flow key lands on the shard that owns the key
// (flow_shard_of), so each shard's classifier sees exactly the per-key
// packet subsequence it would have seen in a single-threaded run —
// timeouts and interval splits depend only on that subsequence, never on
// other keys. engine::Engine runs a link as K such shards and folds their
// WindowPartials; agg::Merger folds the partials of K processes.
//
// fit_window() is the one place window math happens — every shard count,
// batch and live reports and the merger close windows through it, so all
// agree bit for bit by construction.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "api/pipeline.hpp"
#include "dimension/provisioning.hpp"
#include "flow/classifier.hpp"
#include "flow/interval.hpp"
#include "measure/rate_meter.hpp"
#include "net/packet.hpp"
#include "stats/timeseries.hpp"

namespace fbm::api {

/// A type-erased snapshot of one classifier's complete mid-stream state,
/// for the checkpoint codec (ckpt::). Keys are canonicalized to a FiveTuple
/// regardless of flow definition: a prefix key stores its network address
/// in `dst` and its prefix length in `src_port`, all other fields zero.
/// Only the key set matters, not the table layout: flows are summed into
/// order-free flow::FlowSums, so the order the table emits them in never
/// reaches a result (a reused table, larger than a fresh one, lists the same
/// flows in another order). For the same reason a snapshot is taken right
/// after the completed flows and discards were drained: it holds none.
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
  virtual void expire_idle(double now) = 0;
  virtual void flush() = 0;
  /// Back to a fresh classifier's state, keeping the table's capacity (see
  /// flow::FlowClassifier::reset).
  virtual void reset() = 0;
  /// Visits the completed flows, then the discards, and empties both
  /// buffers in place (see flow::FlowClassifier::drain).
  using FlowVisitor = std::function<void(const flow::FlowRecord&)>;
  using DiscardVisitor = std::function<void(const flow::DiscardedPacket&)>;
  virtual void drain(const FlowVisitor& on_flow,
                     const DiscardVisitor& on_discard) = 0;
  [[nodiscard]] virtual std::size_t active_flows() const = 0;
  /// Flow-table geometry for telemetry (occupancy / capacity; mean
  /// robin-hood probe distance). O(capacity) — scrape cadence only.
  [[nodiscard]] virtual double table_load_factor() const = 0;
  [[nodiscard]] virtual double table_mean_probe() const = 0;
  /// Complete mid-stream state, canonical-keyed (see ClassifierState).
  /// Throws std::logic_error while completed flows or discards are still
  /// waiting to be drained.
  [[nodiscard]] virtual ClassifierState save_state() const = 0;
  /// Rebuilds the saved state in a fresh classifier created with the same
  /// options, re-inserting the active flows. Throws std::invalid_argument
  /// on an inconsistent snapshot.
  virtual void restore_state(const ClassifierState& state) = 0;
};

/// Classifier for the flow definition `def` (live::WindowedEstimator runs
/// one per open window, with boundary splitting disabled — the window
/// itself is the interval — and hands a closed window's classifier, reset,
/// to the next window it opens).
[[nodiscard]] std::unique_ptr<FlowClassifierHandle> make_flow_classifier(
    FlowDefinition def, const flow::ClassifierOptions& options);

/// Throws std::invalid_argument for out-of-range batch parameters.
void validate_config(const AnalysisConfig& config);

/// Largest worker or shard count an engine accepts.
inline constexpr std::size_t kMaxThreads = 4096;

/// A thread count of 0 means "use every core": resolves to
/// std::thread::hardware_concurrency() (floor 1 when the runtime cannot
/// tell). Any other value in [1, kMaxThreads] passes through unchanged;
/// larger ones throw std::invalid_argument. The engine's threads and shards
/// and the tools' --threads all go through here.
[[nodiscard]] std::size_t resolve_threads(std::size_t configured);

/// Shard of the flow key of `tuple` among `nshards` workers. Stable: FNV-1a
/// over the key's canonical fields, so the same key maps to the same shard
/// in every run on every platform.
[[nodiscard]] std::size_t flow_shard_of(const net::FiveTuple& tuple,
                                        FlowDefinition def,
                                        std::size_t nshards);

/// One fitted window of trace time: everything the paper derives from a
/// window's flow sums plus its exact byte bins. Produced by fit_window() —
/// the single implementation of the per-window math that
/// finalize_interval and live::fit_window_report share, so batch and live
/// reports agree bit for bit by construction.
struct WindowFit {
  flow::ModelInputs inputs;
  measure::RateMoments measured;
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
/// AnalysisReport via fit_window(). nullopt for an interval with fewer than
/// min_flows flows: the one place min_flows filters. analyze(), the
/// engine's fold and the merger close intervals through here.
[[nodiscard]] std::optional<AnalysisReport> finalize_interval(
    const AnalysisConfig& config, const WindowPartial& raw);

}  // namespace fbm::api
