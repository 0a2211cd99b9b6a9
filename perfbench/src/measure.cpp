#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

/// Nearest rank ceil(p/100 * n), immune to the binary representation of p
/// (99.9 / 100 * 10000 is 9990.000000000002 in doubles).
std::size_t nearest_rank(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  return samples[std::clamp<std::size_t>(nearest_rank(n, p), 1, n) - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - std::min(std::max<std::size_t>(nearest_rank(n, p), 1), n);
}

double tail_percentile(std::size_t n) {
  constexpr std::array<double, 8> kLadder = {50,  75,   90,   95,
                                             99,  99.5, 99.9, 99.99};
  double best = 100.0;
  for (const double p : kLadder) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

Usage process_usage() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  // Linux reports ru_maxrss in KiB.
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void LagBook::push_started(double last_ts, double wall_s) {
  while (end_of(static_cast<std::int64_t>(closable_.size())) <= last_ts) {
    closable_.push_back(wall_s);
  }
}

void LagBook::finish_started(std::int64_t max_window, double wall_s) {
  while (static_cast<std::int64_t>(closable_.size()) <= max_window) {
    closable_.push_back(wall_s);
  }
}

double LagBook::closable(std::int64_t k) const {
  if (schedule_ != nullptr) return schedule_->due(end_of(k));
  if (k < 0 || static_cast<std::size_t>(k) >= closable_.size()) {
    throw std::logic_error("report delivered before its window was closable");
  }
  return closable_[static_cast<std::size_t>(k)];
}

double LagBook::delivered(std::int64_t k, double wall_s) const {
  return wall_s - closable(k);
}

std::vector<double> best_per_window(
    const std::vector<std::vector<double>>& series) {
  if (series.empty()) return {};
  std::size_t n = series.front().size();
  for (const auto& s : series) n = std::min(n, s.size());
  std::vector<double> best(series.front().begin(),
                           series.front().begin() +
                               static_cast<std::ptrdiff_t>(n));
  for (const auto& s : series) {
    for (std::size_t i = 0; i < n; ++i) best[i] = std::min(best[i], s[i]);
  }
  return best;
}

}  // namespace perfbench
