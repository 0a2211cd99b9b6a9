// Structured per-interval analysis results (fbm::api, stage 3).
//
// One AnalysisReport summarizes one analysis interval the way the paper's
// operator would consume it: the three model inputs (Section V-G), the
// measured Delta-averaged rate moments, the fitted shot power b (eq. 5-6),
// the Gaussian approximation of the total rate (Section V-E), and the
// capacity recommendation C = E[R] + q(1-eps) sigma (Section VII-A).
//
// to_json() renders reports for dashboards and external tooling through the
// shared core::JsonWriter (no JSON dependency in the container; number
// rendering and string escaping live in exactly one place).
#pragma once

#include <optional>
#include <span>
#include <string>

#include "core/gaussian.hpp"
#include "dimension/provisioning.hpp"
#include "flow/interval.hpp"
#include "measure/rate_meter.hpp"
#include "trace/trace_stats.hpp"

namespace fbm::api {

struct AnalysisReport {
  std::size_t interval_index = 0;
  double start_s = 0.0;
  double length_s = 0.0;

  flow::ModelInputs inputs;       ///< lambda, E[S], E[S^2/D], flow count
  measure::RateMoments measured;  ///< Delta-averaged moments, bits/s

  /// Fitted power-shot b (eq. 5-6); nullopt when the interval is too thin
  /// to fit (no flows, or zero lambda * E[S^2/D]).
  std::optional<double> shot_b;
  /// b actually used downstream: the fit when available, otherwise the
  /// configured fallback (triangular by default).
  double shot_b_used = 1.0;
  double model_cov = 0.0;  ///< CoV of the power shot at shot_b_used

  dimension::ProvisioningPlan plan;  ///< capacity recommendation

  /// Section V-E Gaussian approximation of the total rate.
  [[nodiscard]] core::GaussianApproximation gaussian() const {
    return {plan.mean_bps, plan.stddev_bps * plan.stddev_bps};
  }
};

/// One report as a JSON object. `indent` spaces of leading indentation are
/// applied to every line; the result has no trailing newline.
[[nodiscard]] std::string to_json(const AnalysisReport& report,
                                  int indent = 0);

/// A whole run: trace totals plus the per-interval reports, as one object.
/// (Number rendering and escaping live in core/json_writer.hpp, shared by
/// every JSON emitter in the tree.)
[[nodiscard]] std::string to_json(const trace::TraceSummary& summary,
                                  std::span<const AnalysisReport> reports);

}  // namespace fbm::api
