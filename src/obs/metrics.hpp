// Runtime metric instruments (fbm::obs).
//
// The hot path must never contend: every instrument is built from relaxed
// atomics, and hot loops add their counts in bulk at batch cadence, never
// per packet. Instruments are registered once in
// an obs::Registry (registry.hpp) and live for the registry's lifetime, so
// instrumentation sites cache plain references.
//
//   Counter    monotonic u64; one relaxed atomic, shared by every writer.
//   Gauge      last-written double (queue depth, load factor, lag).
//   Histogram  fixed-boundary distribution (log-scale helper below);
//              atomic buckets, safe to observe from many threads.
//
// Everything here is cheap enough to leave always-on; obs::enabled() is the
// process-wide kill switch (FBM_OBS_OFF=1, or set_enabled(false)) that the
// instrumentation sites check so a metrics-off run measures a clean A/B
// against a metrics-on run (the CI overhead gate).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace fbm::obs {

/// Process-wide instrumentation switch. Defaults to on; the environment
/// variable FBM_OBS_OFF=1 (checked once, at first use) or set_enabled(false)
/// turns every instrumentation site into a single relaxed load + branch.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-boundary histogram. A value lands in the first bucket whose upper
/// bound is >= it (upper-inclusive, Prometheus "le" semantics); anything
/// above the last bound lands in the implicit overflow (+Inf) bucket, so
/// counts() has bounds().size() + 1 entries. Negative values clamp into the
/// first bucket. sum()/count() track the raw observations.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (not cumulative), overflow bucket last.
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// `n` log-spaced upper bounds: first, first*factor, first*factor^2, ...
/// The standard grid for stage durations (e.g. 1 us .. 16 s at factor 4).
[[nodiscard]] std::vector<double> log_scale_bounds(double first, double factor,
                                                   std::size_t n);

}  // namespace fbm::obs
