// Figure 14: predicted vs measured total rate along the trace, for the
// model-driven predictor (top panel of the paper's figure) and the
// measurement-driven predictor (bottom panel).
//
// Paper: iota = 10 s on a 30-min trace; both predictors track the measured
// rate closely. Scaled run: iota = 2 s on a 240 s trace. Checked: both
// errors lie in Table II's ballpark (single digits to low teens, <= 14%).
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "measure/rate_meter.hpp"
#include "predict/predictor.hpp"
#include "stats/autocorrelation.hpp"
#include "stats/descriptive.hpp"

FBM_BENCH(fig14_prediction_series) {
  using namespace fbm;
  bench::print_header("Figure 14: predicted vs measured total rate");

  // Same higher-rate regime as the Table II bench (CoV comparable to the
  // paper's ~130 Mbps trace).
  auto scale = bench::default_scale();
  scale.rate_scale = 1.0;
  const auto run = bench::run_profile(1, scale);
  if (run.five_tuple.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }
  const auto model = core::ShotNoiseModel::from_interval(
      run.five_tuple[0].interval, core::triangular_shot());
  const auto base = measure::measure_rate(run.packets, 0.0, run.horizon, 0.2);
  const auto series = stats::resample(base, 10);  // iota = 2 s
  const double mean = stats::mean(series.values);
  const std::size_t max_order = 6;

  std::vector<double> taus;
  for (std::size_t k = 0; k <= max_order; ++k) {
    taus.push_back(k * series.delta);
  }
  const auto model_acf = model.autocorrelation(taus);
  const auto m1 = predict::select_order(model_acf, series.values, max_order);
  const auto rep_model = predict::evaluate_predictor(
      predict::MovingAveragePredictor(model_acf, m1, mean), series.values);

  const auto data_acf =
      stats::autocorrelation_series(series.values, max_order);
  const auto m2 = predict::select_order(data_acf, series.values, max_order);
  const auto rep_data = predict::evaluate_predictor(
      predict::MovingAveragePredictor(data_acf, m2, mean), series.values);

  std::printf("%8s %14s   model pred (M=%zu)   data pred (M=%zu)\n", "t (s)",
              "measured Mbps", m1, m2);
  for (std::size_t i = std::max(m1, m2); i < series.size(); i += 4) {
    std::printf("%8.1f %14.2f %20.2f %20.2f\n", series.time_at(i),
                series.values[i] / 1e6, rep_model.predictions[i] / 1e6,
                rep_data.predictions[i] / 1e6);
  }
  std::printf("\n");
  const char* source = "Fig. 14 at Table II's ballpark: <= low teens";
  ctx.check("error, model-driven predictor", rep_model.relative_error, 0.0,
            0.14, source);
  ctx.check("error, data-driven predictor", rep_data.relative_error, 0.0,
            0.14, source);
  return 0;
}
