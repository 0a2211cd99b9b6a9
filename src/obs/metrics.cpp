#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace fbm::obs {

namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("FBM_OBS_OFF");
    return !(env != nullptr && env[0] == '1');
  }();
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- Histogram ---

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: no bucket bounds");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i] > bounds_[i - 1])) {
      throw std::invalid_argument("Histogram: bounds not increasing");
    }
  }
}

void Histogram::observe(double v) {
  // First bound >= v; everything above the last bound overflows into the
  // extra bucket. NaN (never produced by the stopwatch) would overflow too.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> via CAS: portable across libstdc++ versions.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

std::vector<double> log_scale_bounds(double first, double factor,
                                     std::size_t n) {
  if (!(first > 0.0) || !(factor > 1.0) || n == 0) {
    throw std::invalid_argument("log_scale_bounds: need first > 0, "
                                "factor > 1, n > 0");
  }
  std::vector<double> out;
  out.reserve(n);
  double v = first;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

}  // namespace fbm::obs
