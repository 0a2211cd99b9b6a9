// Figures 9, 10, 12, 13: measured vs model coefficient of variation of the
// total rate, per analysis interval, across all seven traces.
//
//   Fig  9: 5-tuple flows, triangular shots (b=1)
//   Fig 10: 5-tuple flows, parabolic shots (b=2)
//   Fig 12: /24 prefix flows, rectangular shots (b=0)
//   Fig 13: /24 prefix flows, triangular shots (b=1)
//
// Paper findings reproduced as checks:
//  - points cluster by utilization (crosses <50, triangles 50-125, dots
//    >125 Mbps paper-scale), with low-utilization links showing the highest
//    CoV (~30%) and high-utilization links the lowest;
//  - for 5-tuple flows the parabolic shot fits best and the triangular shot
//    under-estimates; for /24 flows rectangular shots already capture the
//    variability;
//  - most points fall within the +-20% error band.
//
// Checked: mean measured CoV falls from cluster 0 to cluster 2; most points
// of every figure lie within +-20%; triangular shots under-estimate most
// 5-tuple points and parabolic shots do not. "/24 aggregates need a smaller
// b" is printed, not checked: on the scaled traces their mean fitted b is
// larger than the 5-tuple one.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/fitting.hpp"
#include "core/moments.hpp"
#include "stats/descriptive.hpp"

namespace {

using fbm::bench::IntervalResult;
using fbm::bench::ProfileRun;

struct Point {
  double measured_cov;
  double model_cov;
  int cluster;
};

const char* marker(int cluster) {
  switch (cluster) {
    case 0: return "x";  // < 50 Mbps paper scale
    case 1: return "^";  // 50-125
    default: return "o"; // > 125
  }
}

struct FigureSummary {
  double within20_share = 0.0;
  double under_share = 0.0;
  double cluster_mean_cov[3] = {0, 0, 0};
};

FigureSummary figure(const char* title, const std::vector<ProfileRun>& runs,
                     bool prefix24, double b) {
  std::printf("\n--- %s ---\n", title);
  std::printf("%3s %8s %12s %12s %9s\n", "", "cluster", "measured CoV",
              "model CoV", "error");
  std::vector<Point> points;
  for (const auto& run : runs) {
    const auto& results = prefix24 ? run.prefix24 : run.five_tuple;
    for (const auto& r : results) {
      Point p;
      p.measured_cov = r.measured.cov;
      p.model_cov = fbm::core::power_shot_cov(r.inputs, b);
      p.cluster = run.profile.cluster();
      points.push_back(p);
    }
  }
  std::size_t within20 = 0;
  std::size_t under = 0;
  double cluster_sum[3] = {0, 0, 0};
  std::size_t cluster_n[3] = {0, 0, 0};
  for (const auto& p : points) {
    const double err = p.measured_cov > 0.0
                           ? (p.model_cov - p.measured_cov) / p.measured_cov
                           : 0.0;
    if (std::abs(err) <= 0.2) ++within20;
    if (err < 0.0) ++under;
    cluster_sum[p.cluster] += p.measured_cov;
    ++cluster_n[p.cluster];
    std::printf("%3s %8d %11.1f%% %11.1f%% %+8.1f%%\n", marker(p.cluster),
                p.cluster, 100.0 * p.measured_cov, 100.0 * p.model_cov,
                100.0 * err);
  }
  std::printf("summary: %zu/%zu points within +-20%% band; %zu/%zu "
              "under-estimates\n",
              within20, points.size(), under, points.size());
  FigureSummary summary;
  const auto n = static_cast<double>(points.size());
  summary.within20_share = static_cast<double>(within20) / n;
  summary.under_share = static_cast<double>(under) / n;
  for (int c = 0; c < 3; ++c) {
    if (cluster_n[c] > 0) {
      summary.cluster_mean_cov[c] =
          cluster_sum[c] / static_cast<double>(cluster_n[c]);
      std::printf("  cluster %d (%s): mean measured CoV %.1f%% over %zu "
                  "intervals\n",
                  c, c == 0 ? "<50 Mbps" : (c == 1 ? "50-125" : ">125"),
                  100.0 * summary.cluster_mean_cov[c], cluster_n[c]);
    }
  }
  return summary;
}

/// Mean fitted shot power over every interval of one flow definition.
double mean_fitted_b(const std::vector<ProfileRun>& runs, bool prefix24) {
  fbm::stats::RunningStats bs;
  for (const auto& run : runs) {
    for (const auto& r : prefix24 ? run.prefix24 : run.five_tuple) {
      if (const auto b = fbm::core::fit_power_b(r.measured.variance_bps2,
                                                r.inputs)) {
        bs.add(*b);
      }
    }
  }
  return bs.mean();
}

}  // namespace

FBM_BENCH(fig09_13_cov_scatter) {
  using namespace fbm;
  bench::print_header(
      "Figures 9/10/12/13: measured vs model coefficient of variation");

  const auto runs = bench::run_all_profiles(bench::default_scale());

  const struct {
    const char* title;
    const char* tag;
    bool prefix24;
    double b;
  } figures[] = {
      {"Figure 9: 5-tuple flows, triangular shots (b=1)", "Fig. 9", false,
       1.0},
      {"Figure 10: 5-tuple flows, parabolic shots (b=2)", "Fig. 10", false,
       2.0},
      {"Figure 12: /24 prefix flows, rectangular shots (b=0)", "Fig. 12",
       true, 0.0},
      {"Figure 13: /24 prefix flows, triangular shots (b=1)", "Fig. 13", true,
       1.0},
  };
  std::vector<FigureSummary> summaries;
  for (const auto& f : figures) {
    summaries.push_back(figure(f.title, runs, f.prefix24, f.b));
  }
  std::printf("\nnot checked: mean fitted b, 5-tuple %.2f vs /24 %.2f "
              "(paper: /24 needs the smaller b)\n\n",
              mean_fitted_b(runs, false), mean_fitted_b(runs, true));

  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const std::string tag = figures[i].tag;
    ctx.check(tag + ": share of points within +-20%",
              summaries[i].within20_share, 0.5, 1.0,
              "Figs. 9-13: most points within the +-20% band");
  }
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const std::string def = figures[i].prefix24 ? "/24" : "5-tuple";
    const auto& cov = summaries[i].cluster_mean_cov;
    ctx.check(def + ": mean CoV, cluster 1 vs cluster 0", cov[1], -inf,
              cov[0], "Figs. 9-13: CoV falls as utilization grows");
    ctx.check(def + ": mean CoV, cluster 2 vs cluster 1", cov[2], -inf,
              cov[1], "Figs. 9-13: CoV falls as utilization grows");
  }
  ctx.check("Fig. 9: share of under-estimates", summaries[0].under_share, 0.5,
            1.0, "Fig. 9: triangular shots under-estimate 5-tuple CoV");
  ctx.check("Fig. 10: share of under-estimates", summaries[1].under_share,
            0.0, 0.5, "Fig. 10: parabolic shots no longer under-estimate");
  return 0;
}
