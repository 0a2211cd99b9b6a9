// Ablation (Section VIII): one shot for everyone vs one shot per class.
//
// Assumption 2 forces a single shot distribution; the paper's proposed
// refinement is classes with a different shot each. This bench compares,
// on the same interval:
//   (1) the best single-class power shot (fitted b),
//   (2) a two-class mice/elephants model with per-class fitted shape
//       (rectangular for mice below the TCP window ramp, fitted power for
//       elephants),
// and reports each model's CoV against the measured one, plus the per-class
// contribution shares that only the multi-class model can provide.
//
// Checked: both models' CoV within the paper's +-20% model band, and the
// elephants carrying most of the variance.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/fitting.hpp"
#include "core/moments.hpp"
#include "core/multiclass.hpp"

FBM_BENCH(multiclass) {
  using namespace fbm;
  bench::print_header(
      "Ablation: single-class vs mice/elephants multi-class model");

  const auto run = bench::run_profile(4, bench::default_scale());
  if (run.five_tuple.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }
  const auto& r = run.five_tuple[0];
  const double measured_cov = r.measured.cov;

  // (1) single class, fitted b.
  const auto b_single = core::fit_power_b(r.measured.variance_bps2, r.inputs);
  const double cov_single =
      core::power_shot_cov(r.inputs, b_single.value_or(1.0));

  // (2) two classes split at 30 kB; sweep the elephant b for the best match
  // while mice stay rectangular (their few packets carry no ramp).
  const double threshold = 30e3;
  double best_b = 0.0;
  double best_err = 1e18;
  for (double b = 0.0; b <= 6.0; b += 0.25) {
    const auto mc = core::split_by_size(r.interval, threshold,
                                        core::rectangular_shot(),
                                        core::power_shot(b));
    const double err = std::abs(mc.cov() - measured_cov);
    if (err < best_err) {
      best_err = err;
      best_b = b;
    }
  }
  const auto mc = core::split_by_size(r.interval, threshold,
                                      core::rectangular_shot(),
                                      core::power_shot(best_b));

  std::printf("measured CoV: %.1f%%\n\n", 100.0 * measured_cov);
  std::printf("%-34s %10s %12s\n", "model", "CoV", "error");
  std::printf("%-34s %9.1f%% %+11.1f%%\n", "single class (fitted b)",
              100.0 * cov_single,
              100.0 * (cov_single - measured_cov) / measured_cov);
  std::printf("%-34s %9.1f%% %+11.1f%%\n",
              "two-class (rect mice + power eleph.)", 100.0 * mc.cov(),
              100.0 * (mc.cov() - measured_cov) / measured_cov);

  std::printf("\nsingle-class fitted b: %.2f; elephant-class fitted b: %.2f\n",
              b_single.value_or(-1.0), best_b);
  std::printf("\nper-class attribution (multi-class only):\n");
  for (std::size_t i = 0; i < mc.classes(); ++i) {
    std::printf("  %-10s lambda %8.1f /s  mean share %5.1f%%  variance "
                "share %5.1f%%\n",
                mc.class_name(i).c_str(), mc.class_model(i).lambda(),
                100.0 * mc.mean_share(i), 100.0 * mc.variance_share(i));
  }
  std::printf("\n");
  const char* band = "paper's +-20% model band (Figs. 9-13)";
  ctx.check("single class: model / measured CoV", cov_single / measured_cov,
            0.8, 1.2, band);
  ctx.check("two classes: model / measured CoV", mc.cov() / measured_cov, 0.8,
            1.2, band);
  // split_by_size orders the classes mice, then elephants.
  ctx.check(mc.class_name(1) + "' variance share", mc.variance_share(1), 0.5,
            1.0, "Section VIII: variance follows S^2/D, so elephants lead");
  return 0;
}
