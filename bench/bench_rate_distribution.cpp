// Section V-E: first-order distribution of the total rate.
//
// The paper derives the LST of R(t) (Theorem 1), approximates its law by a
// Gaussian for dimensioning, and notes that better tail estimates need the
// full distribution (or large deviations). This bench inverts the
// characteristic function numerically and compares the exact pdf, its
// quantiles, and the capacity choices against the Gaussian approximation —
// plus the empirical histogram of a measured trace as ground truth.
//
// Checked: the law is right-skewed (Corollary 3), its exceedance beyond two
// and more sigma is above the Gaussian's, and the exact capacity for each
// eps is at least the Gaussian one. "Agree near the mean" is printed, not
// checked: at the mean itself the exact exceedance is well below the
// Gaussian's 0.5, as right skew implies.
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/distribution.hpp"
#include "core/model.hpp"
#include "stats/quantile.hpp"

FBM_BENCH(rate_distribution) {
  using namespace fbm;
  bench::print_header(
      "Section V-E: exact rate distribution vs Gaussian approximation");

  const auto run = bench::run_profile(4, bench::default_scale());
  if (run.five_tuple.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }
  const auto& r = run.five_tuple[0];
  const auto model =
      core::ShotNoiseModel::from_interval(r.interval, core::triangular_shot());
  const auto g = model.gaussian();
  const auto pdf = core::rate_distribution(model);

  std::printf("model: mean %.2f Mbps, stddev %.2f Mbps (CoV %.1f%%)\n",
              model.mean_rate() / 1e6, model.stddev() / 1e6,
              100.0 * model.cov());
  std::printf("inverted pdf: mean %.2f Mbps, stddev %.2f Mbps\n\n",
              pdf.mean() / 1e6, pdf.stddev() / 1e6);

  std::printf("exceedance P(R > mean + k sigma):\n");
  std::printf("%6s %14s %14s %12s\n", "k", "exact (inv)", "Gaussian",
              "ratio");
  std::vector<std::pair<double, double>> tail_ratios;  // (k, exact/gauss)
  for (double k : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    const double level = g.mean() + k * g.stddev();
    const double exact = pdf.exceedance(level);
    const double gauss = g.exceedance(level);
    std::printf("%6.1f %14.5f %14.5f %12.2f\n", k, exact, gauss,
                gauss > 0.0 ? exact / gauss : 0.0);
    if (k >= 2.0) tail_ratios.emplace_back(k, exact / gauss);
  }

  std::vector<std::pair<double, double>> capacity_ratios;  // (eps, ratio)
  std::printf("\ncapacity for congestion probability eps:\n");
  std::printf("%8s %16s %16s\n", "eps", "Gaussian C", "exact C");
  for (double eps : {0.1, 0.05, 0.01}) {
    // Invert the exact exceedance by scanning the grid.
    double exact_c = pdf.x.back();
    for (std::size_t i = 0; i < pdf.x.size(); ++i) {
      if (pdf.exceedance(pdf.x[i]) <= eps) {
        exact_c = pdf.x[i];
        break;
      }
    }
    std::printf("%8.2f %13.2f Mbps %13.2f Mbps\n", eps,
                g.capacity_for_exceedance(eps) / 1e6, exact_c / 1e6);
    capacity_ratios.emplace_back(eps,
                                 exact_c / g.capacity_for_exceedance(eps));
  }

  std::printf("\nskewness of R from cumulants (Corollary 3): %.3f "
              "(Gaussian: 0)\n", model.skewness());
  std::printf("\nnot checked: exceedance exact / Gaussian at the mean, "
              "%.2f (agreement holds from about one sigma up)\n",
              pdf.exceedance(g.mean()) / g.exceedance(g.mean()));
  const double inf = std::numeric_limits<double>::infinity();
  ctx.check("skewness of R", model.skewness(), 0.0, inf,
            "Corollary 3: positive third cumulant");
  for (const auto& [k, ratio] : tail_ratios) {
    char label[64];
    std::snprintf(label, sizeof label, "exceedance exact / Gaussian, k=%g",
                  k);
    ctx.check(label, ratio, 1.0, inf,
              "Section V-E: right skew, Gaussian tails are light");
  }
  for (const auto& [eps, ratio] : capacity_ratios) {
    char label[64];
    std::snprintf(label, sizeof label, "capacity exact / Gaussian, eps=%g",
                  eps);
    ctx.check(label, ratio, 1.0, inf,
              "Section V-E: the Gaussian rule under-provisions");
  }
  return 0;
}
