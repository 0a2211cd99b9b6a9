// Configuration for the fbm::live online-monitoring subsystem.
//
// The live subsystem partitions an unbounded packet stream into sliding
// windows of `window_s` seconds starting every `stride_s` seconds (window k
// covers [k*stride, k*stride + window)). stride == window tiles the stream,
// stride < window overlaps (each packet feeds ceil(window/stride) windows),
// stride > window leaves unmonitored gaps — all three are legal. Per window
// the paper's flow-level parameters are re-derived exactly as a batch fit on
// that window's packets would, so the analysis knobs are the familiar
// api::AnalysisConfig (its interval_s is ignored: the window itself is the
// analysis interval, and flows are never boundary-split inside one).
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "api/pipeline.hpp"

namespace fbm::live {

struct LiveConfig {
  /// Flow definition, idle timeout, Delta, epsilon, shot-b policy, expiry
  /// cadence, reserve-ahead and the read batch size come from here;
  /// interval_s and threads are ignored by the live path.
  api::AnalysisConfig analysis;

  double window_s = 60.0;  ///< window width
  double stride_s = 0.0;   ///< window start spacing; 0 means "= window_s"

  // Rolling next-window forecast (predict::MovingAveragePredictor over the
  // per-window mean rates).
  std::size_t forecast_max_order = 8;   ///< predictor lag-order cap
  std::size_t forecast_history = 64;    ///< window rates kept for the ACF
  double band_k_sigma = 3.0;            ///< confidence band half-width

  // Window-level anomaly alerting (live::AnomalyMonitor).
  std::size_t alert_min_consecutive = 1;  ///< windows outside the band
  /// Band alerts are suppressed for windows with index below this: the
  /// first forecasts come from a near-empty history and routinely land a
  /// settled stream outside the band. 0 keeps every judged window eligible.
  std::size_t alert_warmup_windows = 0;
  double bin_k_sigma = 4.0;               ///< within-window envelope width
  std::size_t bin_min_consecutive = 3;    ///< Delta bins outside before event

  [[nodiscard]] double stride() const {
    return stride_s > 0.0 ? stride_s : window_s;
  }
  /// Windows a packet can belong to at once.
  [[nodiscard]] std::size_t overlap() const {
    return static_cast<std::size_t>(std::ceil(window_s / stride()));
  }

  /// Throws std::invalid_argument on out-of-range parameters.
  void validate() const {
    if (!(window_s > 0.0) || !std::isfinite(window_s)) {
      throw std::invalid_argument("LiveConfig: window must be finite > 0");
    }
    if (!(stride_s >= 0.0) || !std::isfinite(stride())) {
      throw std::invalid_argument("LiveConfig: stride must be finite >= 0");
    }
    if (!(analysis.timeout_s() > 0.0)) {
      throw std::invalid_argument("LiveConfig: timeout <= 0");
    }
    if (!(analysis.delta_s() > 0.0) || !std::isfinite(analysis.delta_s())) {
      throw std::invalid_argument("LiveConfig: delta must be finite > 0");
    }
    if (!(analysis.epsilon() > 0.0 && analysis.epsilon() < 1.0)) {
      throw std::invalid_argument("LiveConfig: eps outside (0,1)");
    }
    if (forecast_max_order == 0) {
      throw std::invalid_argument("LiveConfig: forecast_max_order == 0");
    }
    if (forecast_history < 4) {
      throw std::invalid_argument("LiveConfig: forecast_history < 4");
    }
    if (!(band_k_sigma > 0.0) || !(bin_k_sigma > 0.0)) {
      throw std::invalid_argument("LiveConfig: k_sigma <= 0");
    }
    if (alert_min_consecutive == 0 || bin_min_consecutive == 0) {
      throw std::invalid_argument("LiveConfig: min_consecutive == 0");
    }
  }
};

}  // namespace fbm::live
