// Rolling short-term rate prediction (paper Section VII-B, live edition).
//
// Streams a synthetic backbone trace through live::WindowedEstimator with
// 2-second windows: every closed window carries the forecast that was made
// for it one window earlier (data-driven ACF over the rolling history,
// order chosen the paper's way), plus its confidence band. The walk-forward
// error of those live forecasts is then compared against the offline
// model-driven predictor of the original demo — Theorem 2's ACF computed
// from the fitted shot-noise model — on the same sampled rate series.
//
// Run:  ./examples/traffic_forecast
#include <cmath>
#include <cstdio>
#include <vector>

#include "api/api.hpp"
#include "core/model.hpp"
#include "flow/classifier.hpp"
#include "flow/interval.hpp"
#include "live/live.hpp"
#include "measure/rate_meter.hpp"
#include "predict/predictor.hpp"
#include "stats/descriptive.hpp"
#include "trace/synthetic.hpp"

int main() {
  using namespace fbm;

  const double horizon = 120.0;
  const double iota = 2.0;  // window width == prediction interval
  trace::SyntheticConfig cfg;
  cfg.duration_s = horizon;
  cfg.apply_defaults();
  cfg.target_utilization_bps(10e6);
  const auto packets = trace::generate_packets(cfg);

  // Live rolling forecast: window rate history only, nothing precomputed.
  live::LiveConfig config;
  config.window_s = iota;
  config.analysis.timeout_s(10.0);
  live::WindowedEstimator monitor(config);
  api::VectorTraceSource source(packets);
  monitor.consume(source);
  const auto reports = monitor.take_reports();

  std::printf("live rolling forecast (iota = %.0f s windows):\n", iota);
  std::printf("%8s %12s %12s %18s\n", "t0", "actual", "predicted", "band");
  double sq = 0.0;
  double mean_actual = 0.0;
  std::size_t evaluated = 0;
  for (const auto& w : reports) {
    if (!w.forecast.available) continue;
    const double err = w.forecast.predicted_mean_bps - w.measured.mean_bps;
    sq += err * err;
    mean_actual += w.measured.mean_bps;
    ++evaluated;
    if (w.window_index >= 20 && w.window_index < 30) {
      std::printf("%8.1f %9.2f M %9.2f M [%6.2f, %6.2f] M\n", w.start_s,
                  w.measured.mean_bps / 1e6,
                  w.forecast.predicted_mean_bps / 1e6,
                  w.forecast.band_low_bps / 1e6,
                  w.forecast.band_high_bps / 1e6);
    }
  }
  if (evaluated > 0) {
    const double rmse = std::sqrt(sq / static_cast<double>(evaluated));
    mean_actual /= static_cast<double>(evaluated);
    std::printf("  %zu windows forecast, rmse %.2f Mbps (%.1f%% of mean)\n",
                evaluated, rmse / 1e6, 100.0 * rmse / mean_actual);
  }

  // Offline reference: the model-driven ACF (Theorem 2) from a whole-trace
  // fit, the original Table-II comparison, on the same iota-sampled series.
  const auto flows = flow::classify_all<flow::FiveTupleKey>(packets);
  const auto intervals = flow::group_by_interval(flows, horizon, horizon);
  const auto model =
      core::ShotNoiseModel::from_interval(intervals[0], core::triangular_shot());
  const auto base = measure::measure_rate(packets, 0.0, horizon, 0.2);
  const auto series = stats::resample(base, static_cast<std::size_t>(iota / 0.2));
  const double mean = stats::mean(series.values);
  const std::size_t max_order =
      std::min<std::size_t>(8, series.values.size() / 4);
  std::vector<double> taus;
  for (std::size_t k = 0; k <= max_order; ++k) taus.push_back(k * iota);
  const auto model_acf = model.autocorrelation(taus);
  const auto order = predict::select_order(model_acf, series.values, max_order);
  const predict::MovingAveragePredictor offline(model_acf, order, mean);
  const auto rep = predict::evaluate_predictor(offline, series.values);

  std::printf("\noffline model-driven predictor (Theorem 2 ACF, M = %zu):\n",
              order);
  std::printf("  %zu samples evaluated, rmse %.2f Mbps (%.1f%% of mean)\n",
              rep.evaluated, rep.rmse / 1e6, 100.0 * rep.relative_error);
  std::printf("\nthe live forecaster needs no model and no past capture — "
              "only the rolling window-rate history.\n");
  return 0;
}
