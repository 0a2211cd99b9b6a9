// Section VII-A: network dimensioning and the smoothing law.
//
// Paper: with C = E[R] + q(1-eps)*sigma, the mean grows like lambda while
// the standard deviation grows like sqrt(lambda); the CoV therefore decays
// as 1/sqrt(lambda) and the ISP "does not need to scale the bandwidth of its
// links linearly with lambda".
//
// This bench sweeps lambda multipliers on a measured interval and verifies
// the 1/sqrt(lambda) law both analytically (Corollaries 1-2) and against a
// re-measured synthetic trace at the higher arrival rate. It also compares
// with the constant-rate M/G/infinity baseline of [3].
//
// Checked: the analytical CoV equals base/sqrt(lambda x) to rounding
// (Corollaries 1-2) and capacity/mean falls at every step; each 4x in
// lambda multiplies the measured CoV by 0.5 within the paper's +-20% model
// band; the identical-rate baseline's CoV is below the shot-noise
// rectangular one, which is below the measured one.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/mg_infinity.hpp"
#include "core/moments.hpp"
#include "dimension/provisioning.hpp"
#include "stats/descriptive.hpp"
#include "trace/synthetic.hpp"

FBM_BENCH(sec7a_dimensioning) {
  using namespace fbm;
  bench::print_header(
      "Section VII-A: dimensioning and the sqrt-lambda smoothing law");

  const auto run = bench::run_profile(6, bench::default_scale());
  if (run.five_tuple.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }
  const auto base = run.five_tuple[0].inputs;
  const double eps = 0.01;

  std::printf("analytical sweep (triangular shots, eps=%.2f):\n", eps);
  std::printf("%9s %12s %10s %10s %13s %10s\n", "lambda x", "mean Mbps",
              "CoV", "pred CoV", "capacity", "cap/mean");
  const auto base_plan = dimension::plan_link(base, 1.0, eps);
  // Largest relative gap between the CoV and base/sqrt(f), and whether
  // capacity/mean fell at every step.
  double worst_cov_gap = 0.0;
  double prev_headroom = std::numeric_limits<double>::infinity();
  std::size_t headroom_rises = 0;
  for (double f : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    const auto plan = dimension::plan_link(core::scale_lambda(base, f), 1.0,
                                           eps);
    const double predicted = base_plan.cov / std::sqrt(f);
    std::printf("%9.0f %12.2f %9.1f%% %9.1f%% %10.2f Mbps %9.2fx\n", f,
                plan.mean_bps / 1e6, 100.0 * plan.cov, 100.0 * predicted,
                plan.capacity_bps / 1e6, plan.headroom);
    worst_cov_gap =
        std::max(worst_cov_gap, std::abs(plan.cov / predicted - 1.0));
    if (!(plan.headroom < prev_headroom)) ++headroom_rises;
    prev_headroom = plan.headroom;
  }

  // Empirical confirmation: regenerate traffic at 4x the arrival rate and
  // re-measure the CoV.
  std::printf("\nempirical check (regenerated traces):\n");
  double prev_cov = -1.0;
  std::vector<std::pair<double, double>> cov_steps;  // (lambda x, ratio)
  for (double f : {1.0, 4.0, 16.0}) {
    trace::SyntheticConfig cfg;
    cfg.duration_s = 60.0;
    cfg.apply_defaults();
    cfg.flow_rate = base.lambda * f;
    cfg.seed = 1000 + static_cast<std::uint64_t>(f);
    const auto packets = trace::generate_packets(cfg);
    const auto series = measure::measure_rate(packets, 0.0, 60.0, 0.2);
    const auto mm = measure::rate_moments(series);
    std::printf("  lambda x%-4.0f measured CoV %.1f%%  (expect ~%.1f%%)\n", f,
                100.0 * mm.cov, 100.0 * base_plan.cov / std::sqrt(f));
    if (prev_cov > 0.0) {
      std::printf("    ratio to previous: %.2f (expect ~0.5)\n",
                  mm.cov / prev_cov);
      cov_steps.emplace_back(f, mm.cov / prev_cov);
    }
    prev_cov = mm.cov;
  }

  // Constant-rate baseline of [3]: same mean, all flows at the mean rate.
  const double mean_duration = [&] {
    stats::RunningStats s;
    for (const auto& f : run.five_tuple[0].interval.flows) s.add(f.duration());
    return s.mean();
  }();
  const double common_rate =
      base.mean_size_bits / std::max(mean_duration, 1e-3);
  const core::ConstantRateBaseline baseline(common_rate, base.lambda,
                                            mean_duration);
  std::printf("\nbaseline (M/G/inf, identical flow rates, ref [3]): CoV "
              "%.1f%% vs shot-noise rectangular %.1f%% vs measured %.1f%%\n",
              100.0 * baseline.cov(), 100.0 * core::power_shot_cov(base, 0.0),
              100.0 * run.five_tuple[0].measured.cov);
  std::printf("\n");
  ctx.check("analytical CoV vs base/sqrt(f), worst gap", worst_cov_gap, 0.0,
            1e-12, "Corollaries 1-2: CoV ~ 1/sqrt(lambda)");
  ctx.check("steps where capacity/mean does not fall",
            static_cast<double>(headroom_rises), 0.0, 0.0,
            "Section VII-A: capacity grows sublinearly in lambda");
  for (const auto& [f, ratio] : cov_steps) {
    char label[64];
    std::snprintf(label, sizeof label, "measured CoV ratio, x%g vs x%g", f,
                  f / 4.0);
    ctx.check(label, ratio, 0.5 * 0.8, 0.5 * 1.2,
              "Corollary 2: 1/2 per 4x lambda, paper's +-20% band");
  }
  const double rect_cov = core::power_shot_cov(base, 0.0);
  ctx.check("identical-rate baseline CoV", baseline.cov(), 0.0, rect_cov,
            "Section VII-A: [3] ignores the spread of S^2/D");
  ctx.check("shot-noise rectangular CoV", rect_cov, 0.0,
            run.five_tuple[0].measured.cov,
            "Theorem 3: the rectangle is the variance floor");
  return 0;
}
