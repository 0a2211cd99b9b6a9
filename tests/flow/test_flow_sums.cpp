// flow::FlowSums: exact, order-free window statistics.
//
//  - Any add order and any merge shape give the same bits.
//  - Against a long-double reference, the values fitted from the sums are
//    at least as accurate as the Welford means and stddevs (stats::
//    RunningStats over the flows sorted by flow::ByStart) they replace —
//    on randomized windows and on degenerate ones: near-constant
//    durations, a single elephant flow, durations at clock resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "flow/interval.hpp"
#include "stats/descriptive.hpp"

namespace fbm::flow {
namespace {

constexpr double kLength = 60.0;

/// The seven fitted quantities, in one order.
using Values = std::array<long double, 7>;
const std::array<const char*, 7> kNames = {
    "lambda",          "mean_size_bits",    "mean_s2_over_d",
    "mean_duration_s", "stddev_size_bits",  "stddev_duration_s",
    "mean_rate_bps"};

/// The per-flow doubles every method sums (the same per-flow rounding).
struct PerFlow {
  std::vector<double> size_bits, s2_over_d, duration, rate;
};
PerFlow per_flow(const std::vector<FlowRecord>& flows) {
  PerFlow p;
  for (const auto& f : flows) {
    const double s = f.size_bits();
    const double d = f.duration();
    p.size_bits.push_back(s);
    p.s2_over_d.push_back(s * s / std::max(d, kMinDurationS));
    p.duration.push_back(d);
    p.rate.push_back(f.mean_rate_bps());
  }
  return p;
}

/// Neumaier-compensated long-double mean.
long double ref_mean(const std::vector<double>& xs) {
  long double sum = 0.0L;
  long double comp = 0.0L;
  for (const double x : xs) {
    const long double t = sum + x;
    comp += std::fabs(sum) >= std::fabs(static_cast<long double>(x))
                ? (sum - t) + x
                : (x - t) + sum;
    sum = t;
  }
  return (sum + comp) / static_cast<long double>(xs.size());
}

/// Corrected two-pass population stddev in long double.
long double ref_stddev(const std::vector<double>& xs) {
  const long double m = ref_mean(xs);
  long double sq = 0.0L;
  long double lin = 0.0L;
  for (const double x : xs) {
    const long double d = x - m;
    sq += d * d;
    lin += d;
  }
  const auto n = static_cast<long double>(xs.size());
  return std::sqrt(std::max(0.0L, (sq - lin * lin / n) / n));
}

Values reference(const std::vector<FlowRecord>& flows) {
  const PerFlow p = per_flow(flows);
  return {static_cast<long double>(flows.size()) / kLength,
          ref_mean(p.size_bits),
          ref_mean(p.s2_over_d),
          ref_mean(p.duration),
          ref_stddev(p.size_bits),
          ref_stddev(p.duration),
          ref_mean(p.rate)};
}

/// What the fit computed before: Welford over the ByStart-sorted flows.
Values welford(std::vector<FlowRecord> flows) {
  std::sort(flows.begin(), flows.end(), ByStart{});
  const PerFlow p = per_flow(flows);
  const auto stats = [](const std::vector<double>& xs) {
    stats::RunningStats r;
    for (const double x : xs) r.add(x);
    return r;
  };
  const auto size = stats(p.size_bits);
  const auto duration = stats(p.duration);
  return {static_cast<double>(flows.size()) / kLength,
          size.mean(),
          stats(p.s2_over_d).mean(),
          duration.mean(),
          size.population_stddev(),
          duration.population_stddev(),
          stats(p.rate).mean()};
}

Values from_sums(const std::vector<FlowRecord>& flows) {
  FlowSums sums;
  for (const auto& f : flows) sums.add(f);
  const ModelInputs in = sums.inputs(kLength);
  return {in.lambda,
          in.mean_size_bits,
          in.mean_s2_over_d,
          sums.mean_duration_s(),
          sums.stddev_size_bits(),
          sums.stddev_duration_s(),
          sums.mean_rate_bps()};
}

/// Error in units of the reference's last double place (0 when exact).
long double ulps(long double got, long double want) {
  if (got == want) return 0.0L;
  const double w = static_cast<double>(want);
  const long double ulp =
      w == 0.0 ? 0x1p-1074L
               : static_cast<long double>(std::nextafter(std::fabs(w), 1e308) -
                                          std::fabs(w));
  return std::fabs(got - want) / ulp;
}

/// Reference noise allowance, in ulps: the long-double reference is good
/// to ~2^-63 relative (~2^-10 ulp).
constexpr long double kRefNoise = 0x1p-8L;

FlowRecord flow(double start, double duration, std::uint64_t bytes) {
  FlowRecord f;
  f.start = start;
  f.end = start + duration;
  f.size_bytes = bytes;
  f.packets = 2;
  return f;
}

/// Every degenerate window must be at least as accurate, field by field.
void expect_no_worse(const std::vector<FlowRecord>& flows,
                     const std::string& label) {
  const Values ref = reference(flows);
  const Values old_v = welford(flows);
  const Values new_v = from_sums(flows);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_LE(ulps(new_v[i], ref[i]), ulps(old_v[i], ref[i]) + kRefNoise)
        << label << ": " << kNames[i] << " new "
        << static_cast<double>(new_v[i]) << " old "
        << static_cast<double>(old_v[i]) << " ref "
        << static_cast<double>(ref[i]);
  }
}

TEST(FlowSums, AddOrderAndMergeShapeDoNotMatter) {
  std::mt19937_64 rng(5);
  std::lognormal_distribution<double> size(8.0, 2.0);
  std::lognormal_distribution<double> dur(-1.0, 2.0);
  std::uniform_real_distribution<double> start(0.0, kLength);
  std::vector<FlowRecord> flows;
  for (int i = 0; i < 3000; ++i) {
    FlowRecord f = flow(start(rng), dur(rng),
                        static_cast<std::uint64_t>(size(rng)) + 40);
    f.continued = i % 7 == 0;
    flows.push_back(f);
  }
  FlowSums reference;
  for (const auto& f : flows) reference.add(f);
  const Values fitted = from_sums(flows);
  for (int trial = 0; trial < 4; ++trial) {
    std::shuffle(flows.begin(), flows.end(), rng);
    std::vector<FlowSums> parts(1 + trial * 2);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      parts[rng() % parts.size()].add(flows[i]);
    }
    FlowSums merged;
    for (const auto& p : parts) merged.merge(p);
    EXPECT_TRUE(merged == reference);
    EXPECT_EQ(from_sums(flows), fitted);
  }
  EXPECT_EQ(reference.continued, 3000u / 7 + 1);
}

TEST(FlowSums, EstimateInputsFoldsTheSameSums) {
  IntervalData iv;
  iv.length = kLength;
  FlowSums sums;
  for (int i = 0; i < 50; ++i) {
    iv.flows.push_back(flow(i * 0.7, 0.013 * (i + 1), 100 + 37 * i));
    sums.add(iv.flows.back());
  }
  const ModelInputs a = estimate_inputs(iv);
  const ModelInputs b = sums.inputs(kLength);
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.mean_size_bits, b.mean_size_bits);
  EXPECT_EQ(a.mean_s2_over_d, b.mean_s2_over_d);
}

TEST(FlowSums, EmptyAndSingleFlow) {
  const FlowSums empty;
  EXPECT_EQ(empty.inputs(kLength).flows, 0u);
  EXPECT_EQ(empty.inputs(kLength).mean_size_bits, 0.0);
  EXPECT_EQ(empty.mean_duration_s(), 0.0);
  EXPECT_EQ(empty.stddev_size_bits(), 0.0);
  EXPECT_EQ(empty.stddev_duration_s(), 0.0);
  EXPECT_EQ(empty.mean_rate_bps(), 0.0);

  FlowSums one;
  one.add(flow(1.0, 0.3, 1234));
  EXPECT_EQ(one.inputs(kLength).mean_size_bits, 1234.0 * 8);
  EXPECT_EQ(one.stddev_size_bits(), 0.0);
  EXPECT_EQ(one.stddev_duration_s(), 0.0);
  EXPECT_EQ(one.mean_duration_s(), flow(1.0, 0.3, 1234).duration());
}

TEST(FlowSums, AtLeastAsAccurateOnRandomizedWindows) {
  // Over many windows, the sums' error never exceeds Welford's in the
  // worst case or on average; means are correctly rounded, so they are
  // checked window by window too.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> start(0.0, kLength);
  Values worst_old{}, worst_new{}, total_old{}, total_new{};
  for (int w = 0; w < 60; ++w) {
    const auto n = std::uniform_int_distribution<int>(2, 8000)(rng);
    std::lognormal_distribution<double> size(7.0 + (w % 4), 1.5 + (w % 3));
    std::lognormal_distribution<double> dur(-2.0 + (w % 5), 1.0 + (w % 2));
    std::vector<FlowRecord> flows;
    for (int i = 0; i < n; ++i) {
      flows.push_back(flow(start(rng), dur(rng),
                           static_cast<std::uint64_t>(size(rng)) + 40));
    }
    const Values ref = reference(flows);
    const Values old_v = welford(flows);
    const Values new_v = from_sums(flows);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const long double eo = ulps(old_v[i], ref[i]);
      const long double en = ulps(new_v[i], ref[i]);
      worst_old[i] = std::max(worst_old[i], eo);
      worst_new[i] = std::max(worst_new[i], en);
      total_old[i] += eo;
      total_new[i] += en;
      const bool is_mean = i != 4 && i != 5;
      if (is_mean) {
        EXPECT_LE(en, 0.5L + kRefNoise) << kNames[i] << " window " << w;
        EXPECT_LE(en, eo + kRefNoise) << kNames[i] << " window " << w;
      }
    }
  }
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    EXPECT_LE(worst_new[i], worst_old[i] + kRefNoise) << kNames[i];
    EXPECT_LE(total_new[i], total_old[i] + kRefNoise) << kNames[i];
    // Stddevs end in a double-double sqrt and division: within one ulp.
    EXPECT_LE(worst_new[i], 1.0L) << kNames[i];
  }
}

TEST(FlowSums, AtLeastAsAccurateOnNearConstantDurations) {
  std::vector<FlowRecord> flows;
  for (int i = 0; i < 2000; ++i) {
    flows.push_back(flow(0.0, 1.0 + 1e-12 * (i % 97), 1500 + i % 3));
  }
  expect_no_worse(flows, "near-constant durations");
}

TEST(FlowSums, AtLeastAsAccurateWithOneElephant) {
  std::mt19937_64 rng(9);
  std::lognormal_distribution<double> size(6.0, 0.5);
  std::uniform_real_distribution<double> dur(0.01, 0.5);
  std::vector<FlowRecord> flows;
  for (int i = 0; i < 3000; ++i) {
    flows.push_back(flow(i * 0.01, dur(rng),
                         static_cast<std::uint64_t>(size(rng)) + 40));
  }
  flows.push_back(flow(1.0, 55.5, 40'000'000'000ULL));
  expect_no_worse(flows, "one elephant");
}

TEST(FlowSums, AtLeastAsAccurateAtClockResolution) {
  std::mt19937_64 rng(10);
  std::vector<FlowRecord> flows;
  for (int i = 0; i < 4000; ++i) {
    const double start = 10.0 + 1e-6 * static_cast<double>(rng() % 1000000);
    FlowRecord f;
    f.start = start;
    f.end = start + 1e-6 * static_cast<double>(1 + rng() % 3);
    f.size_bytes = 40 + rng() % 1460;
    f.packets = 2;
    flows.push_back(f);
  }
  expect_no_worse(flows, "clock resolution");
}

TEST(FlowSums, IdenticalFlowsHaveZeroSpread) {
  std::vector<FlowRecord> flows(777, flow(3.0, 0.123456789, 1499));
  const Values v = from_sums(flows);
  EXPECT_EQ(v[4], 0.0L);
  EXPECT_EQ(v[5], 0.0L);
  EXPECT_EQ(v[1], 1499.0L * 8);
  expect_no_worse(flows, "identical flows");
}

}  // namespace
}  // namespace fbm::flow
