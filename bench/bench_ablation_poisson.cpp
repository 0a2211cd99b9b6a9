// Ablation (Section VIII): how much does the Poisson arrival assumption
// matter?
//
// The model's variance formula assumes Poisson flow arrivals. This bench
// generates traffic with the same flow population under (a) Poisson and
// (b) increasingly bursty two-state Markov-modulated arrivals with the same
// average rate, and compares the realised variance of the 200 ms samples
// against the model's prediction for that averaging interval (eq. 7). The
// model should hold for (a) and progressively under-estimate for (b) —
// quantifying the paper's closing remark about "more complex flow arrival
// processes than Poisson".
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "gen/traffic_gen.hpp"
#include "stats/descriptive.hpp"

FBM_BENCH(ablation_poisson) {
  using namespace fbm;
  bench::print_header(
      "Ablation: Poisson vs Markov-modulated flow arrivals (Section VIII)");

  const auto run = bench::run_profile(4, bench::default_scale());
  if (run.five_tuple.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }
  const auto model = core::ShotNoiseModel::from_interval(
      run.five_tuple[0].interval, core::triangular_shot());
  const double delta = 0.2;
  const double predicted_var = model.averaged_variance(delta);

  auto base_cfg = gen::from_model(model, 900.0, delta);
  base_cfg.seed = 2024;

  struct Scenario {
    const char* label;
    gen::ArrivalModulation mod;
  };
  const Scenario scenarios[] = {
      {"Poisson", {}},
      {"MMPP mild (1.5x / 0.5x)", {1.5, 0.5, 5.0}},
      {"MMPP moderate (2x / 0.25x)", {2.0, 0.25, 5.0}},
      {"MMPP strong (3x / 0.05x)", {3.0, 0.05, 5.0}},
  };

  std::printf("model-predicted variance at Delta=%.1fs (Poisson assumption, "
              "eq. 7): %.4g\n\n", delta, predicted_var);
  std::printf("%-30s %14s %12s %10s\n", "arrival process", "realised var",
              "vs model", "CoV");
  std::vector<double> ratios;
  for (const auto& s : scenarios) {
    auto cfg = base_cfg;
    cfg.modulation = s.mod;
    const auto out = gen::generate(cfg);
    const double var = stats::population_variance(out.series.values);
    const double mean = stats::mean(out.series.values);
    ratios.push_back(var / predicted_var);
    std::printf("%-30s %14.4g %11.2fx %9.1f%%\n", s.label, var,
                ratios.back(),
                mean > 0.0 ? 100.0 * std::sqrt(var) / mean : 0.0);
  }

  std::printf("\n");
  ctx.check("Poisson: realised / predicted variance", ratios[0], 0.8, 1.2,
            "eq. (7) prediction, paper's +-20% model band (Figs. 9-13)");
  for (std::size_t i = 1; i < ratios.size(); ++i) {
    ctx.check(std::string(scenarios[i].label) + " vs the row above",
              ratios[i], ratios[i - 1],
              std::numeric_limits<double>::infinity(),
              "Section VIII: burstier arrivals add variance Assumption 1 "
              "omits");
  }
  return 0;
}
