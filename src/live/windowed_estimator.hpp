// Sliding-window estimation (fbm::live): the one estimator of the paper's
// parameters, batch and live.
//
// WindowedEstimator consumes an unbounded packet stream (any
// api::TraceSource, or push_batch() by hand) and re-derives the paper's
// flow-level parameters per window with bounded state: each of the
// ceil(window/stride) concurrently open windows owns a flow classifier
// (idle-timeout semantics, no boundary splitting — the window IS the
// analysis interval), its exact completed-flow sums and exact Delta byte
// bins. A window closes the moment the stream clock passes its end: the
// classifier flushes into the sums (and, reset, serves the next window
// that opens), and api::fit_window produces the parameters. Replaying a
// finished trace therefore reproduces, bit for bit, what a batch fit
// restricted to each window's packets computes in isolation
// (tests/live/test_windowed_differential.cpp proves it against the
// independent batch primitives).
//
// That is the causal boundary rule: a flow crossing a window edge is
// re-derived in every window that saw its packets, and a one-packet piece
// at an edge is a single-packet flow there, discarded. A batch analysis
// interval is a tiling window (live::batch_windows): api::analyze and the
// engine's batch links run this estimator in partial mode and fit each
// closed window with api::finalize_interval instead of fit_window_report.
//
// On top of the per-window fit, a RollingForecaster predicts each next
// window's mean rate with a confidence band and an AnomalyMonitor flags
// windows that leave it — the paper's monitoring story running
// continuously: estimate, predict, alert, in one pass, O(active flows +
// open windows) memory.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "api/shard.hpp"
#include "api/trace_source.hpp"
#include "net/packet_batch.hpp"
#include "live/anomaly_monitor.hpp"
#include "live/forecast.hpp"
#include "live/live_config.hpp"
#include "live/window_report.hpp"

namespace fbm::live {

/// Running totals of one estimator's life.
struct LiveCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t windows = 0;  ///< windows closed (reports emitted)
  std::uint64_t flows = 0;    ///< completed flow records across windows
};

/// A closed window's raw pre-fit material: the carrier batch intervals use
/// too (see api::WindowPartial), under its live name.
using WindowPartial = api::WindowPartial;

/// Turns one window's merged raw material into the finished WindowReport:
/// api::fit_window (the same function api::finalize_interval closes batch
/// intervals through), the streaming flow-population moments, then
/// forecast/judge/observe against the rolling state, counting the window
/// (and its alert) in obs. The single implementation WindowedEstimator, the
/// engine's per-link fold and agg::Merger share, so live monitoring, a
/// sharded link and distributed aggregation agree bit for bit by
/// construction. Windows must be finalized in index order (the forecaster
/// and monitor are stateful).
[[nodiscard]] WindowReport fit_window_report(const LiveConfig& config,
                                             const WindowPartial& raw,
                                             RollingForecaster& forecaster,
                                             AnomalyMonitor& monitor);

/// Complete serializable state of a WindowedEstimator mid-stream: every
/// member push_batch() reads or writes, including each open window's
/// classifier (api::ClassifierState) and its pre-fit material.
/// Restoring it into a fresh estimator of the same config and resuming the
/// stream reproduces the uninterrupted run's remaining reports bit for bit
/// — the checkpoint codec (ckpt::) is a pure serialization of this struct.
struct EstimatorState {
  LiveCounters counters;
  double last_ts = -std::numeric_limits<double>::infinity();
  double next_expire = 0.0;
  std::int64_t next_close = 0;
  std::int64_t max_window = -1;
  std::int64_t cur_kmax = -1;
  std::vector<double> forecast_history;  ///< oldest first
  std::uint64_t monitor_consecutive = 0;
  std::uint32_t monitor_last_kind = 0;  ///< AlertKind as wire integer

  struct OpenWindow {
    api::ClassifierState classifier;
    WindowPartial window;
  };
  /// Open windows, indices next_close .. next_close + open.size() - 1;
  /// nullopt for a window no packet has touched yet.
  std::vector<std::optional<OpenWindow>> open;
};

class WindowedEstimator {
 public:
  /// Throws std::invalid_argument on bad configuration (LiveConfig rules).
  explicit WindowedEstimator(LiveConfig config);

  /// Feed the next batch. Timestamps must be finite, non-negative and
  /// non-decreasing, within the batch and from one batch to the next
  /// (throws std::invalid_argument otherwise, before any state changes).
  /// The batch is cut into maximal runs bounded by the next window
  /// boundary, close watermark and expiry deadline; windows the clock has
  /// passed are closed and reported before the run that passes them, and
  /// each run feeds every window that contains it in one contiguous span
  /// (the classifier's hash-ahead batch path, then the bin accumulation
  /// loop). Reports are bit-for-bit identical at every batch size, size 1
  /// included, for tiling, overlapping and gapped windows alike.
  void push_batch(const net::PacketBatch& batch);

  /// Moves the stream clock to `now` without a packet: closes, opens and
  /// expires exactly what a packet at `now` would, and nothing else — no
  /// result changes. A no-op unless `now` is past the last packet or
  /// advance. Later packets must not be older than `now`.
  void advance(double now);

  /// End of stream: close every window up to the last packet's.
  /// push_batch() must not be called afterwards.
  void finish();

  /// Drains `source` (api::read_batches) and finishes; returns packets
  /// consumed.
  std::uint64_t consume(api::TraceSource& source);

  /// Reports stream here the moment each window closes, in window order.
  /// Set this or the partial sink before the first push: push_batch()
  /// throws std::logic_error while neither is set.
  using WindowSink = std::function<void(WindowReport&&)>;
  void set_window_sink(WindowSink sink) { sink_ = std::move(sink); }

  /// Diverts closed windows to `sink` as raw pre-fit material (see
  /// api::PartialSink): no fitting, no forecast, no anomaly judgement —
  /// those run once, downstream, after the merge (agg::Merger replays
  /// fit_window_report over the folded windows in order). Set before the
  /// first push.
  void set_partial_sink(api::PartialSink sink) {
    partial_sink_ = std::move(sink);
  }

  [[nodiscard]] const LiveConfig& config() const { return config_; }
  [[nodiscard]] const LiveCounters& counters() const { return counters_; }

  /// Observability for the bounded-memory story.
  [[nodiscard]] std::size_t open_windows() const { return open_.size(); }
  [[nodiscard]] std::size_t active_flows() const;

  /// Snapshot of the complete mid-stream state. Call between pushes —
  /// throws std::logic_error after finish(). Every window closed so far
  /// has left through the sink and counts as delivered. Drains each open
  /// window's completed flows into its sums first, which no result can
  /// tell apart from a later drain.
  [[nodiscard]] EstimatorState save_state();

  /// Rebuilds a saved state in this estimator. Only valid on a fresh
  /// instance (same config, nothing pushed); throws std::logic_error
  /// otherwise and std::invalid_argument on an inconsistent snapshot.
  void restore_state(const EstimatorState& state);

 private:
  /// Per-open-window accumulation. nullptr in open_ marks a window no
  /// packet has touched yet (finalized straight to an empty report).
  struct WindowState {
    std::unique_ptr<api::FlowClassifierHandle> classifier;
    WindowPartial raw;
  };

  [[nodiscard]] double window_start(std::int64_t k) const {
    return static_cast<double>(k) * stride_;
  }
  [[nodiscard]] double window_end(std::int64_t k) const {
    return window_start(k) + config_.window_s;
  }

  /// Throws std::logic_error while neither sink is set.
  void require_sink() const;
  [[nodiscard]] WindowState& state_at(std::int64_t k);
  /// Window k's material before any packet: zero sums, zero bins.
  [[nodiscard]] WindowPartial empty_window(std::int64_t k) const;
  void drain(WindowState& state);
  /// Everything the clock reaching `t` does before a packet at `t` lands:
  /// close passed windows, open the newest, expire on cadence.
  void step_clock(double t);
  void expire_all(double now);  ///< expire + drain every open window
  void close_through(double now);  ///< close windows with end <= now
  void finalize_window(std::int64_t k, WindowState* state);

  LiveConfig config_;
  double stride_ = 0.0;
  flow::ClassifierOptions classifier_options_;

  /// Open windows, indices [next_close_, next_close_ + open_.size()).
  std::deque<std::unique_ptr<WindowState>> open_;
  /// Closed windows' classifiers, reset, waiting for the next window to
  /// open: a table is built once per run and keeps the capacity it grew
  /// to, instead of rehashing up to a window's flow count every window.
  std::vector<std::unique_ptr<api::FlowClassifierHandle>> spare_;
  std::int64_t next_close_ = 0;   ///< lowest window index not yet closed
  std::int64_t max_window_ = -1;  ///< highest window index seen

  // Hot-path caches: the newest window index is tracked by boundary
  // comparison (one multiply per stride crossed) instead of a floor
  // division per run, and the close watermark keeps its end precomputed.
  std::int64_t cur_kmax_ = -1;     ///< newest window whose start <= last ts
  double kmax_boundary_ = 0.0;     ///< window_start(cur_kmax_ + 1)
  double next_close_end_ = 0.0;    ///< window_end(next_close_)

  RollingForecaster forecaster_;
  AnomalyMonitor monitor_;

  WindowSink sink_;
  api::PartialSink partial_sink_;
  LiveCounters counters_;
  double last_ts_ = -std::numeric_limits<double>::infinity();
  double next_expire_ = 0.0;
  bool finished_ = false;
};

}  // namespace fbm::live
