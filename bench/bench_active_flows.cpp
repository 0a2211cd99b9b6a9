// Section V-A substrate check: the number of active flows N(t) behaves as
// M/G/infinity occupancy — Poisson with mean lambda*E[D] — which is the
// backbone of Theorem 1's PGF argument.
//
// Measures N(t) from classified flows, compares its mean/variance with the
// MGInfinity prediction, checks the Poisson dispersion ratio, and compares
// the empirical occupancy histogram against the Poisson pmf.
//
// Checked: the mean lies within three standard deviations of lambda*E[D],
// where the variance of a T-long time average of M/G/infinity occupancy is
// at most lambda*E[D^2]/T; the dispersion lies within the paper's +-20%
// model band of 1. The histogram is printed, not checked.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/mg_infinity.hpp"
#include "flow/active_count.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"

FBM_BENCH(active_flows) {
  using namespace fbm;
  bench::print_header(
      "Theorem 1 substrate: active-flow count vs M/G/infinity");

  const auto run = bench::run_profile(4, bench::default_scale());
  if (run.five_tuple.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }
  const auto& iv = run.five_tuple[0].interval;

  stats::RunningStats dur;
  stats::RunningStats dur2;
  for (const auto& f : iv.flows) {
    dur.add(f.duration());
    dur2.add(f.duration() * f.duration());
  }
  const double lambda = run.five_tuple[0].inputs.lambda;
  const core::MGInfinity occupancy(lambda, dur.mean());

  // Sample N(t) away from the interval edges (warm-up).
  const double window_start = iv.start + 3.0;
  const auto n = flow::active_flow_series(iv.flows, window_start, iv.end(),
                                          0.05);
  const auto s = flow::active_flow_stats(n);

  std::printf("lambda = %.1f /s, E[D] = %.3f s -> rho = %.1f\n\n", lambda,
              dur.mean(), occupancy.load());
  std::printf("%-26s %12s %12s\n", "", "measured", "M/G/inf");
  std::printf("%-26s %12.2f %12.2f\n", "mean active flows", s.mean,
              occupancy.mean_active());
  std::printf("%-26s %12.2f %12.2f\n", "variance", s.variance,
              occupancy.variance_active());
  std::printf("%-26s %12.2f %12.2f\n", "dispersion (var/mean)", s.dispersion,
              1.0);

  // Occupancy histogram vs Poisson pmf around the mean.
  const auto k0 = static_cast<std::uint64_t>(
      std::max(0.0, occupancy.mean_active() - 3.0 *
                         std::sqrt(occupancy.variance_active())));
  const auto k1 = static_cast<std::uint64_t>(
      occupancy.mean_active() + 3.0 * std::sqrt(occupancy.variance_active()));
  std::printf("\noccupancy distribution (k, empirical freq, Poisson pmf):\n");
  for (std::uint64_t k = k0; k <= k1;
       k += std::max<std::uint64_t>(1, (k1 - k0) / 10)) {
    std::size_t count = 0;
    for (double v : n.values) {
      if (static_cast<std::uint64_t>(v) == k) ++count;
    }
    std::printf("  %4llu %10.4f %10.4f\n",
                static_cast<unsigned long long>(k),
                static_cast<double>(count) /
                    static_cast<double>(n.values.size()),
                occupancy.pmf(k));
  }

  std::printf("\n");
  const double mean_sd =
      std::sqrt(lambda * dur2.mean() / (iv.end() - window_start));
  ctx.check("mean active flows", s.mean,
            occupancy.mean_active() - 3.0 * mean_sd,
            occupancy.mean_active() + 3.0 * mean_sd,
            "Theorem 1: M/G/inf mean lambda*E[D], 3 sigma");
  ctx.check("dispersion (var/mean)", s.dispersion, 0.8, 1.2,
            "M/G/inf: Poisson occupancy, paper's +-20% model band");
  return 0;
}
