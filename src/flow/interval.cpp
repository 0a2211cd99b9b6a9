#include "flow/interval.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fbm::flow {

std::vector<IntervalData> group_by_interval(std::span<const FlowRecord> flows,
                                            double interval_s,
                                            double horizon_s) {
  if (!(interval_s > 0.0)) {
    throw std::invalid_argument("group_by_interval: interval <= 0");
  }
  if (!(horizon_s > 0.0)) {
    throw std::invalid_argument("group_by_interval: horizon <= 0");
  }
  const auto n_intervals =
      static_cast<std::size_t>(std::ceil(horizon_s / interval_s - 1e-9));
  std::vector<IntervalData> out(n_intervals);
  for (std::size_t i = 0; i < n_intervals; ++i) {
    out[i].start = static_cast<double>(i) * interval_s;
    out[i].length = interval_s;
  }
  for (const auto& f : flows) {
    if (f.start < 0.0 || f.start >= horizon_s) continue;
    const auto idx = static_cast<std::size_t>(f.start / interval_s);
    if (idx < out.size()) out[idx].flows.push_back(f);
  }
  for (auto& iv : out) {
    std::sort(iv.flows.begin(), iv.flows.end(), ByStart{});
  }
  return out;
}

void FlowSums::add(const FlowRecord& f) {
  ++n;
  if (f.continued) ++continued;
  size_bytes += f.size_bytes;
  size_bytes_sq += static_cast<unsigned __int128>(f.size_bytes) * f.size_bytes;
  const double s = f.size_bits();
  const double d = f.duration();
  s2_over_d.add(s * s / std::max(d, kMinDurationS));
  duration.add(d);
  const double d2 = d * d;
  duration_sq.add(d2);
  duration_sq.add(std::fma(d, d, -d2));  // d * d - d2, exactly
  rate.add(f.mean_rate_bps());
}

void FlowSums::merge(const FlowSums& other) {
  n += other.n;
  continued += other.continued;
  size_bytes += other.size_bytes;
  size_bytes_sq += other.size_bytes_sq;
  s2_over_d.merge(other.s2_over_d);
  duration.merge(other.duration);
  duration_sq.merge(other.duration_sq);
  rate.merge(other.rate);
}

ModelInputs FlowSums::inputs(double length_s) const {
  ModelInputs in;
  in.flows = static_cast<std::size_t>(n);
  if (n == 0 || !(length_s > 0.0)) return in;
  in.lambda = static_cast<double>(n) / length_s;
  in.mean_size_bits =
      core::ExactSum::of_integer(static_cast<unsigned __int128>(size_bytes) * 8)
          .quotient(n);
  in.mean_s2_over_d = s2_over_d.quotient(n);
  return in;
}

double FlowSums::mean_duration_s() const {
  return n == 0 ? 0.0 : duration.quotient(n);
}

double FlowSums::mean_rate_bps() const {
  return n == 0 ? 0.0 : rate.quotient(n);
}

namespace {

/// hi + lo == x / n to about 2^-106 relative: hi is the correctly rounded
/// quotient, lo the correctly rounded quotient of the exact residual
/// x - n * hi (n * hi splits exactly into p + e; n < 2^53).
struct DoubleDouble {
  double hi;
  double lo;
};
[[nodiscard]] DoubleDouble mean_dd(const core::ExactSum& x, std::uint64_t n) {
  const double hi = x.quotient(n);
  const auto nd = static_cast<double>(n);
  const double p = nd * hi;
  core::ExactSum residual = x;
  residual.add(-p);
  residual.add(-std::fma(nd, hi, -p));
  return {hi, residual.quotient(n)};
}

/// a + b as hi + lo exactly (Knuth's two-sum).
[[nodiscard]] DoubleDouble two_sum(double a, double b) {
  const double s = a + b;
  const double v = s - a;
  return {s, (a - (s - v)) + (b - v)};
}

/// sqrt(hi + lo) with one Newton correction: within a hair of correctly
/// rounded for a normalized double-double input (|lo| <= ulp(hi) / 2).
[[nodiscard]] double sqrt_dd(double hi, double lo) {
  if (!(hi + lo > 0.0)) return 0.0;
  const double s = std::sqrt(hi);
  return s + (std::fma(-s, s, hi) + lo) / (2.0 * s);
}

/// Population stddev from exact sums of x^2 and x, without cancellation:
/// E[x^2] - E[x]^2 is formed in double-double, so it loses only ~2^-104 of
/// E[x^2] however close the two terms are.
[[nodiscard]] double stddev_dd(const core::ExactSum& sum_sq,
                               const core::ExactSum& sum, std::uint64_t n) {
  const DoubleDouble a = mean_dd(sum_sq, n);
  const DoubleDouble b = mean_dd(sum, n);
  const double p = b.hi * b.hi;
  const double pe = std::fma(b.hi, b.hi, -p) + 2.0 * b.hi * b.lo;
  const DoubleDouble head = two_sum(a.hi, -p);
  // Renormalize: after cancellation the tail can be as large as the head.
  const DoubleDouble var = two_sum(head.hi, head.lo + (a.lo - pe));
  return sqrt_dd(var.hi, var.lo);
}

}  // namespace

double FlowSums::stddev_size_bits() const {
  if (n == 0) return 0.0;
  // Exact integers where they fit: n * sum S^2 - (sum S)^2 >= 0 is the
  // whole variance numerator, and the stddev is 8 * sqrt(numerator) / n.
  using u128 = unsigned __int128;
  u128 scaled = 0;
  if (__builtin_mul_overflow(static_cast<u128>(n), size_bytes_sq, &scaled)) {
    return 8.0 * stddev_dd(core::ExactSum::of_integer(size_bytes_sq),
                           core::ExactSum::of_integer(size_bytes), n);
  }
  const core::ExactSum numer = core::ExactSum::of_integer(
      scaled - static_cast<u128>(size_bytes) * size_bytes);
  const double hi = numer.value();
  if (hi == 0.0) return 0.0;
  core::ExactSum rest = numer;
  rest.add(-hi);
  // sqrt(hi + lo) = s + c, then (s + c) / n, both in double-double.
  const double s = std::sqrt(hi);
  const double c = (std::fma(-s, s, hi) + rest.value()) / (2.0 * s);
  const auto nd = static_cast<double>(n);
  const double q = s / nd;
  return 8.0 * (q + (std::fma(-q, nd, s) + c) / nd);
}

double FlowSums::stddev_duration_s() const {
  return n == 0 ? 0.0 : stddev_dd(duration_sq, duration, n);
}

ModelInputs estimate_inputs(const IntervalData& interval) {
  FlowSums sums;
  for (const auto& f : interval.flows) sums.add(f);
  return sums.inputs(interval.length);
}

std::vector<double> interarrival_times(const IntervalData& interval) {
  std::vector<double> out;
  if (interval.flows.size() < 2) return out;
  out.reserve(interval.flows.size() - 1);
  for (std::size_t i = 1; i < interval.flows.size(); ++i) {
    out.push_back(interval.flows[i].start - interval.flows[i - 1].start);
  }
  return out;
}

std::vector<double> sizes_bytes(const IntervalData& interval) {
  std::vector<double> out;
  out.reserve(interval.flows.size());
  for (const auto& f : interval.flows) {
    out.push_back(static_cast<double>(f.size_bytes));
  }
  return out;
}

std::vector<double> durations_s(const IntervalData& interval) {
  std::vector<double> out;
  out.reserve(interval.flows.size());
  for (const auto& f : interval.flows) out.push_back(f.duration());
  return out;
}

std::vector<std::size_t> cumulative_arrivals(const IntervalData& interval,
                                             double step_s) {
  if (!(step_s > 0.0)) {
    throw std::invalid_argument("cumulative_arrivals: step <= 0");
  }
  const auto steps =
      static_cast<std::size_t>(std::floor(interval.length / step_s)) + 1;
  std::vector<std::size_t> out(steps, 0);
  for (const auto& f : interval.flows) {
    const double rel = f.start - interval.start;
    if (rel < 0.0) continue;
    auto idx = static_cast<std::size_t>(rel / step_s) + 1;
    if (idx < out.size()) ++out[idx];
    // Flows beyond the last full step are ignored for the curve.
  }
  for (std::size_t i = 1; i < out.size(); ++i) out[i] += out[i - 1];
  return out;
}

std::size_t continued_count(const IntervalData& interval) {
  return static_cast<std::size_t>(
      std::count_if(interval.flows.begin(), interval.flows.end(),
                    [](const FlowRecord& f) { return f.continued; }));
}

}  // namespace fbm::flow
