// Measurement rules of the benchmark, kept free of the fbm library so the
// unit tests (tests/test_measure.cpp) pin them in isolation:
//
//   - timings are reported as a median and a tail: the highest percentile
//     of a fixed ladder that leaves at least ten samples beyond it;
//   - report lag runs from the moment a window became closable to the
//     moment its report was delivered. In closed loop the closable moment
//     is the start of the push that carried the first packet past the
//     window end; in open loop it is the due time of the window end. Each
//     window's lag is its best over the run's replays;
//   - open-loop lateness is the delivery time of a batch minus the due
//     time of its oldest packet;
//   - CPU time and peak RSS come from getrusage of this process.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 when
/// empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// Highest percentile of the ladder {50, 75, 90, 95, 99, 99.5, 99.9, 99.99}
/// that leaves at least 10 of n samples beyond it; 100 (the maximum) when
/// even the median does not.
[[nodiscard]] double tail_percentile(std::size_t n);

/// User + system CPU seconds and peak resident set size of this process
/// (all threads; children excluded).
struct Usage {
  double cpu_s = 0.0;
  double max_rss_mb = 0.0;
};
[[nodiscard]] Usage process_usage();

/// Seconds on the steady clock (an arbitrary but fixed origin).
[[nodiscard]] double now_s();

/// Open-loop schedule: trace time ts is due at start + ts / speedup. The
/// driver wakes on a grid of `tick_s` (0: at each packet's due time).
class Schedule {
 public:
  explicit Schedule(double speedup, double tick_s = 0.0)
      : speedup_(speedup), tick_s_(tick_s) {}
  void start(double wall_s) { start_ = wall_s; }
  [[nodiscard]] double due(double trace_ts) const {
    return start_ + trace_ts / speedup_;
  }
  /// When to wake for a packet stamped `trace_ts`: its due time rounded up
  /// to the tick grid, so however dense the packets, the driver wakes at
  /// most once per tick. A due time on the grid (up to rounding in the
  /// division) wakes on it, not a tick later.
  [[nodiscard]] double wake(double trace_ts) const {
    if (!(tick_s_ > 0.0)) return due(trace_ts);
    return start_ + std::ceil(trace_ts / speedup_ / tick_s_ - 1e-9) * tick_s_;
  }
  /// Latest trace time that is due at wall time `wall_s`.
  [[nodiscard]] double horizon(double wall_s) const {
    return (wall_s - start_) * speedup_;
  }
  /// How late a handover at `wall_s` is for a packet stamped `trace_ts`.
  [[nodiscard]] double lateness(double wall_s, double trace_ts) const {
    return wall_s - due(trace_ts);
  }

 private:
  double speedup_;
  double tick_s_;
  double start_ = 0.0;
};

/// Closable moments of a tiling window grid and the lag samples measured
/// against them.
class LagBook {
 public:
  /// Window k covers [k * width_s, k * width_s + width_s). With a schedule
  /// (open loop) window k becomes closable when its end is due; without one
  /// (closed loop) the push_started/finish_started stamps decide.
  explicit LagBook(double width_s, const Schedule* schedule = nullptr)
      : width_s_(width_s), schedule_(schedule) {}

  /// Closed loop, at the start of a push whose newest packet is `last_ts`:
  /// every window ending at or before it becomes closable now.
  void push_started(double last_ts, double wall_s);
  /// Closed loop, at the start of finish(): every window up to `max_window`
  /// not yet closable becomes closable now.
  void finish_started(std::int64_t max_window, double wall_s);

  /// Lag in seconds of window k's report, delivered at `wall_s`.
  [[nodiscard]] double delivered(std::int64_t k, double wall_s) const;

 private:
  /// Same expression as the estimator's window end, so the comparison with
  /// packet timestamps agrees with its close rule bit for bit.
  [[nodiscard]] double end_of(std::int64_t k) const {
    return static_cast<double>(k) * width_s_ + width_s_;
  }
  [[nodiscard]] double closable(std::int64_t k) const;

  double width_s_;
  const Schedule* schedule_ = nullptr;
  std::vector<double> closable_;  ///< closed loop, per window index
};

/// Element-wise minimum of per-replay series (one value per window, in
/// window order) over their common length: the best observation of each
/// window. Every replay does the same work on the same input, and
/// interference from other tenants of a shared host only ever delays it.
[[nodiscard]] std::vector<double> best_per_window(
    const std::vector<std::vector<double>>& series);

}  // namespace perfbench
