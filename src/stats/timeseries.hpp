// Regularly sampled time series helpers.
//
// Section V-F: the measured rate is the byte volume in consecutive windows of
// length Delta divided by Delta (the paper uses Delta = 200 ms, one average
// round-trip time). RateSeries is that piecewise-constant measured process;
// `resample` produces the coarser processes used by the predictor (iota = 2,
// 5, 10, 30, 60 s in Table II).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fbm::stats {

/// A rate process sampled on a uniform grid: value[i] covers
/// [start + i*delta, start + (i+1)*delta).
struct RateSeries {
  double start = 0.0;  ///< seconds
  double delta = 0.0;  ///< seconds per bin
  std::vector<double> values;  ///< bits/s per bin

  [[nodiscard]] std::size_t size() const { return values.size(); }
  [[nodiscard]] bool empty() const { return values.empty(); }
  [[nodiscard]] double duration() const {
    return delta * static_cast<double>(values.size());
  }
  [[nodiscard]] double time_at(std::size_t i) const {
    return start + delta * static_cast<double>(i);
  }
};

/// Coarsen by an integer factor (mean of each group of `factor` bins; a
/// trailing partial group is dropped). Throws for factor == 0.
[[nodiscard]] RateSeries resample(const RateSeries& s, std::size_t factor);

/// Mean / population variance / coefficient of variation of the series.
[[nodiscard]] double series_mean(const RateSeries& s);
[[nodiscard]] double series_variance(const RateSeries& s);
[[nodiscard]] double series_cov(const RateSeries& s);

/// Accumulates (timestamp, bytes) events into a RateSeries of bits/s.
/// Events may arrive in any order as long as they fall in [start, end).
class RateBinner {
 public:
  /// Largest grid a binner allocates: 2^26 bins, 512 MiB of doubles. The
  /// whole grid is allocated when a window opens, and overlapping windows
  /// hold several at once, so a larger one exhausts memory before the first
  /// packet lands. At the paper's Delta of 0.2 s the cap is 155 days.
  static constexpr std::size_t kMaxBins = std::size_t{1} << 26;

  /// Throws std::invalid_argument unless end > start, delta is finite > 0
  /// and the grid has at most kMaxBins bins.
  RateBinner(double start, double end, double delta);

  /// Rebuilds a binner from its raw state (the agg::PartialReport codec
  /// ships bins across processes as exact byte counts, never as derived
  /// bits/s — a bins/dropped/total triple read back through this constructor
  /// is indistinguishable from the binner that was serialized). Throws
  /// std::invalid_argument when `bytes` does not match the grid size.
  RateBinner(double start, double end, double delta,
             std::vector<double> bytes, std::size_t dropped,
             double total_bytes);

  /// Adds `bytes` at `timestamp`; events outside [start, end) are counted in
  /// `dropped()` and otherwise ignored.
  void add(double timestamp, double bytes);

  /// add(timestamps[i], bytes[i]) for every i in order, bit for bit (same
  /// dropped() and last-bin rules), with the open bin's sum and the total
  /// kept in registers across the run. The spans have equal length.
  void add_run(std::span<const double> timestamps,
               std::span<const std::uint32_t> bytes);

  /// Accumulates another binner built over the identical grid (same start,
  /// end and delta; throws std::invalid_argument otherwise). Bin contents,
  /// byte totals and dropped counts add. Because every contribution is an
  /// integral byte count, the merged bins equal — bit for bit — what a
  /// single binner fed every event would hold, in any merge order.
  void merge(const RateBinner& other);

  [[nodiscard]] RateSeries series() const;
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] double total_bytes() const { return total_bytes_; }

  /// Raw grid and per-bin byte sums, for serialization.
  [[nodiscard]] double grid_start() const { return start_; }
  [[nodiscard]] double grid_end() const { return end_; }
  [[nodiscard]] double grid_delta() const { return delta_; }
  [[nodiscard]] std::span<const double> bin_bytes() const { return bytes_; }

 private:
  double start_;
  double end_;
  double delta_;
  std::vector<double> bytes_;
  std::size_t dropped_ = 0;
  double total_bytes_ = 0.0;
};

}  // namespace fbm::stats
