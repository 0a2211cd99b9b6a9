// Model-driven traffic generation (paper Section VII-C).
//
// Fits the shot-noise model to a "real" (synthetic) trace via the fbm::api
// pipeline, then re-generates traffic from the fitted model — the paper's
// proposed use in network simulation tools. Two clones are built:
//   - the fluid gen:: process, which resamples the fitted (S, D) pairs
//     jointly and matches the original in mean and variance;
//   - a *packet* stream from a baseline scenario
//     (scenario::ScenarioTraceSource), pushed back through the same
//     analysis pipeline. It draws S and D independently from lognormals
//     with the fitted means and the fitted size CV. Independence makes
//     E[S^2/D] = E[S^2] (1 + cv_D^2) / E[D], so the duration CV is chosen
//     to give the fitted E[S^2/D] — the moment the model's variance rests
//     on (Corollary 1) — instead of the fitted population's duration CV,
//     which would lose the S-D correlation (Figs. 5-6).
// A rectangular-shot ablation shows why the shot matters.
//
// Run:  ./examples/backbone_generator
#include <cmath>
#include <cstdio>

#include <vector>

#include "api/api.hpp"
#include "core/model.hpp"
#include "flow/classifier.hpp"
#include "gen/traffic_gen.hpp"
#include "scenario/source.hpp"
#include "stats/descriptive.hpp"

int main() {
  using namespace fbm;

  // "Real" traffic to imitate, analyzed in one pass for the fitted shot;
  // its (S, D) population, which the model resamples from, comes from
  // classifying the same packets.
  const double horizon = 90.0;
  trace::SyntheticConfig cfg;
  cfg.duration_s = horizon;
  cfg.apply_defaults();
  cfg.target_utilization_bps(10e6);
  const auto packets = trace::generate_packets(cfg);

  api::AnalysisConfig config;
  config.interval_s(horizon).timeout_s(60.0);
  const auto reports = api::analyze(packets, config);
  const api::AnalysisReport& real = reports.at(0);
  const double b = real.shot_b_used;

  flow::ClassifierOptions options;
  options.timeout = config.timeout_s();
  const flow::IntervalData population{
      .start = 0.0,
      .length = horizon,
      .flows = flow::classify_all<flow::FiveTupleKey>(packets, options)};
  const auto model =
      core::ShotNoiseModel::from_interval(population, core::power_shot(b));
  std::printf("fitted model: lambda=%.1f /s, b=%.2f\n", model.lambda(), b);

  // Clone 1: the fluid rate process (gen::), fitted shot.
  auto gen_cfg = gen::from_model(model, horizon, 0.2);
  gen_cfg.seed = 4242;
  const auto clone = gen::generate(gen_cfg);
  const double clone_mean = stats::mean(clone.series.values);
  const double clone_var = stats::population_variance(clone.series.values);

  // Clone 2: an actual packet stream from the model, analyzed by the same
  // pipeline that measured the original — the full loop trace -> model ->
  // trace -> model. One baseline segment at the fitted lambda and shot;
  // S and D are drawn independently from lognormals with the fitted means.
  std::vector<double> sizes;
  std::vector<double> durations;
  std::vector<double> s2_over_d;
  for (const auto& f : model.samples()) {
    sizes.push_back(f.size_bits);
    durations.push_back(f.duration_s);
    s2_over_d.push_back(f.size_bits * f.size_bits / f.duration_s);
  }
  const double size_mean = stats::mean(sizes);
  const double size_cv = stats::coefficient_of_variation(sizes);
  const double duration_mean = stats::mean(durations);
  // Independent S and D: E[S^2/D] = E[S^2] E[1/D], and a lognormal D has
  // E[1/D] = (1 + cv_D^2) / E[D]. Solve for the cv_D that reproduces the
  // fitted E[S^2/D].
  const double size_m2 = size_mean * size_mean * (1.0 + size_cv * size_cv);
  const double cv2 = stats::mean(s2_over_d) * duration_mean / size_m2 - 1.0;
  if (!(cv2 > 0.0)) {
    std::printf("note: the fitted E[S^2/D] needs cv_D^2 = %.3f <= 0; the "
                "packet clone uses constant-mean durations (cv_D = 0)\n",
                cv2);
  }
  const double duration_cv = cv2 > 0.0 ? std::sqrt(cv2) : 0.0;
  scenario::ScenarioSpec spec;
  spec.name = "packet-clone";
  spec.lambda = model.lambda();
  spec.shot_b = b;
  spec.size_mean_bits = size_mean;
  spec.size_cv = size_cv;
  spec.duration_mean_s = duration_mean;
  spec.duration_cv = duration_cv;
  scenario::Segment baseline;
  baseline.duration_s = horizon;
  spec.segments.push_back(baseline);
  scenario::ScenarioTraceSource packet_clone(spec);
  const auto clone_reports = api::analyze(packet_clone, config);
  const api::AnalysisReport& re = clone_reports.at(0);

  // Ablation: rectangular shots on the same flows.
  auto rect_cfg = gen_cfg;
  rect_cfg.shot = core::rectangular_shot();
  const auto rect = gen::generate(rect_cfg);
  const double rect_var = stats::population_variance(rect.series.values);

  std::printf("\n%-26s %12s %14s\n", "", "mean Mbps", "stddev Mbps");
  std::printf("%-26s %9.2f %14.2f\n", "original trace",
              real.measured.mean_bps / 1e6,
              std::sqrt(real.measured.variance_bps2) / 1e6);
  std::printf("%-26s %9.2f %14.2f\n", "fluid clone (fitted b)",
              clone_mean / 1e6, std::sqrt(clone_var) / 1e6);
  std::printf("%-26s %9.2f %14.2f\n", "packet clone (fitted b)",
              re.measured.mean_bps / 1e6,
              std::sqrt(re.measured.variance_bps2) / 1e6);
  std::printf("%-26s %9.2f %14.2f\n", "ablation: rectangular b=0",
              stats::mean(rect.series.values) / 1e6,
              std::sqrt(rect_var) / 1e6);

  std::printf("\npacket clone refit: b=%.2f (original fit %.2f), "
              "duration CV %.2f (population %.2f)\n",
              re.shot_b_used, b, duration_cv,
              stats::coefficient_of_variation(durations));
  std::printf("rectangular clone variance deficit: %.0f%% of original\n",
              100.0 * rect_var / real.measured.variance_bps2);
  return 0;
}
