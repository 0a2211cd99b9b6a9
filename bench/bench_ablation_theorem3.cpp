// Ablation: Theorem 3 — the rectangular flow-rate function achieves the
// lowest total-rate variance among all shots, and the variance ordering of
// the power family matches (b+1)^2/(2b+1).
//
// Runs on a measured flow population (not just closed forms): variances are
// evaluated by ShotNoiseModel over the empirical (S, D) sample with several
// shot shapes, including a non-power custom shot.
#include <cmath>
#include <cstdio>
#include <limits>

#include "common.hpp"
#include "core/model.hpp"
#include "measure/rate_meter.hpp"

FBM_BENCH(ablation_theorem3) {
  using namespace fbm;
  bench::print_header(
      "Ablation (Theorem 3): shot shape vs total-rate variance");

  const auto run = bench::run_profile(4, bench::default_scale());
  if (run.five_tuple.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }
  const auto& iv = run.five_tuple[0].interval;

  const auto rect = core::ShotNoiseModel::from_interval(
      iv, core::rectangular_shot());
  const double floor_var = rect.variance();
  const double measured_var = run.five_tuple[0].measured.variance_bps2;

  std::printf("%-28s %14s %12s %10s\n", "shot", "variance", "vs rect",
              "CoV");
  const auto report = [&](const core::ShotNoiseModel& m) {
    std::printf("%-28s %14.4g %11.3fx %9.1f%%\n", m.shot().name().c_str(),
                m.variance(), m.variance() / floor_var, 100.0 * m.cov());
  };
  report(rect);
  const double bs[] = {0.5, 1.0, 2.0, 4.0};
  for (double b : bs) report(rect.with_shot(core::power_shot(b)));
  // A non-power shot: symmetric tent profile (ramp up then down).
  const auto tent = std::make_shared<core::CustomShot>(
      [](double x) { return x < 0.5 ? 4.0 * x : 4.0 * (1.0 - x); }, "tent");
  const auto tent_model = rect.with_shot(tent);
  report(tent_model);

  // The rectangle's bound after the Delta-averaging the measurement
  // applies (eq. 7), which can only lower a variance.
  const double averaged_floor = rect.averaged_variance(measure::kPaperDelta);
  std::printf("\nmeasured variance at Delta=200ms: %.4g (%.3fx rectangular "
              "bound, %.3fx its Delta-averaged value)\n\n",
              measured_var, measured_var / floor_var,
              measured_var / averaged_floor);

  // Power-family ratios are closed forms; the tolerance is rounding only.
  for (double b : bs) {
    const double ratio =
        rect.with_shot(core::power_shot(b)).variance() / floor_var;
    const double factor = (b + 1.0) * (b + 1.0) / (2.0 * b + 1.0);
    char label[64];
    std::snprintf(label, sizeof label, "variance vs rectangle, b=%g", b);
    ctx.check(label, ratio, factor * (1.0 - 1e-12), factor * (1.0 + 1e-12),
              "Corollary 2: (b+1)^2/(2b+1)");
  }
  const double inf = std::numeric_limits<double>::infinity();
  ctx.check("variance vs rectangle, tent", tent_model.variance() / floor_var,
            1.0, inf, "Theorem 3: the rectangle minimises the variance");
  ctx.check("measured / averaged rectangular variance",
            measured_var / averaged_floor, 1.0, inf,
            "Theorem 3 with eq. (7)'s averaging loss");
  return 0;
}
