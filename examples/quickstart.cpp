// Quickstart: the full model pipeline through fbm::api.
//
// 1. Stream a synthetic backbone trace (stand-in for an OC-12 capture).
// 2. api::analyze runs the one estimator (live::WindowedEstimator, here
//    with a single window spanning the trace): it classifies flows
//    (5-tuple, 60 s timeout), estimates the model's three parameters,
//    measures the rate at Delta = 200 ms, and fits the shot power b — all
//    in one pass. fbm_live runs the same estimator on sliding windows.
// 3. Print model vs measured mean and CoV from the report.
//
// Run:  ./examples/quickstart
#include <cstdio>

#include "api/api.hpp"

int main() {
  using namespace fbm;

  // A 60-second link at ~10 Mbps average utilization.
  trace::SyntheticConfig cfg;
  cfg.duration_s = 60.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(10e6);
  api::SyntheticTraceSource source(cfg);

  // One analysis interval covering the whole trace (paper Section III/V-G).
  // To spread one link over several cores, run it through engine::Engine
  // with EngineConfig::shards > 1; the reports are bit-for-bit identical.
  api::AnalysisConfig config;
  config.interval_s(60.0).timeout_s(60.0);
  const auto reports = api::analyze(source, config);
  const api::AnalysisReport& r = reports.at(0);

  std::printf("trace: %llu packets, %.1f Mbps average\n",
              static_cast<unsigned long long>(source.report().packets),
              source.report().mean_rate_bps() / 1e6);
  std::printf("parameters: lambda=%.1f flows/s, E[S]=%.1f kbit, "
              "E[S^2/D]=%.3g bit^2/s\n",
              r.inputs.lambda, r.inputs.mean_size_bits / 1e3,
              r.inputs.mean_s2_over_d);

  std::printf("\n%-28s %12s %12s\n", "", "model", "measured");
  std::printf("%-28s %9.2f Mbps %9.2f Mbps\n", "mean rate (Corollary 1)",
              r.plan.mean_bps / 1e6, r.measured.mean_bps / 1e6);
  std::printf("%-28s %11.1f%% %11.1f%%\n", "CoV, fitted power shot",
              100.0 * r.model_cov, 100.0 * r.measured.cov);
  if (r.shot_b) {
    std::printf("\nfitted shot power b = %.2f  (rectangle=0, triangle=1, "
                "parabola=2)\n", *r.shot_b);
  }
  return 0;
}
