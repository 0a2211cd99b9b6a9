#include "stats/timeseries.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace fbm::stats {

RateSeries resample(const RateSeries& s, std::size_t factor) {
  if (factor == 0) throw std::invalid_argument("resample: factor == 0");
  if (factor == 1) return s;
  RateSeries out;
  out.start = s.start;
  out.delta = s.delta * static_cast<double>(factor);
  const std::size_t groups = s.values.size() / factor;
  out.values.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    double acc = 0.0;
    for (std::size_t j = 0; j < factor; ++j) {
      acc += s.values[g * factor + j];
    }
    out.values.push_back(acc / static_cast<double>(factor));
  }
  return out;
}

double series_mean(const RateSeries& s) { return mean(s.values); }

double series_variance(const RateSeries& s) {
  return population_variance(s.values);
}

double series_cov(const RateSeries& s) {
  return coefficient_of_variation(s.values);
}

RateBinner::RateBinner(double start, double end, double delta)
    : start_(start), end_(end), delta_(delta) {
  if (!(end > start)) throw std::invalid_argument("RateBinner: end <= start");
  if (!(delta > 0.0) || !std::isfinite(delta)) {
    throw std::invalid_argument("RateBinner: delta must be finite > 0");
  }
  // Checked as a double: a grid past the cap (or an infinite/NaN ratio) must
  // not reach the size_t cast, whose result would be undefined.
  const double bins = std::ceil((end - start) / delta - 1e-9);
  if (!(bins <= static_cast<double>(kMaxBins))) {
    throw std::invalid_argument(
        "RateBinner: grid over 2^26 bins (delta too small for the window)");
  }
  bytes_.assign(bins < 1.0 ? 1 : static_cast<std::size_t>(bins), 0.0);
}

RateBinner::RateBinner(double start, double end, double delta,
                       std::vector<double> bytes, std::size_t dropped,
                       double total_bytes)
    : RateBinner(start, end, delta) {
  if (bytes.size() != bytes_.size()) {
    throw std::invalid_argument("RateBinner: raw bins do not match the grid");
  }
  bytes_ = std::move(bytes);
  dropped_ = dropped;
  total_bytes_ = total_bytes;
}

void RateBinner::add(double timestamp, double bytes) {
  if (timestamp < start_ || timestamp >= end_) {
    ++dropped_;
    return;
  }
  auto idx = static_cast<std::size_t>((timestamp - start_) / delta_);
  if (idx >= bytes_.size()) idx = bytes_.size() - 1;
  bytes_[idx] += bytes;
  total_bytes_ += bytes;
}

void RateBinner::merge(const RateBinner& other) {
  if (start_ != other.start_ || end_ != other.end_ || delta_ != other.delta_ ||
      bytes_.size() != other.bytes_.size()) {
    throw std::invalid_argument("RateBinner::merge: mismatched grids");
  }
  for (std::size_t i = 0; i < bytes_.size(); ++i) bytes_[i] += other.bytes_[i];
  dropped_ += other.dropped_;
  total_bytes_ += other.total_bytes_;
}

RateSeries RateBinner::series() const {
  RateSeries out;
  out.start = start_;
  out.delta = delta_;
  out.values.reserve(bytes_.size());
  for (double b : bytes_) out.values.push_back(b * 8.0 / delta_);
  return out;
}

}  // namespace fbm::stats
