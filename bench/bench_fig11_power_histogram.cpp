// Figure 11: histogram of the fitted shot power b across all analysis
// intervals (5-tuple flows).
//
// Paper: the distribution of b spans roughly 0..8 with an average around 2,
// i.e. parabolic shots are the best single choice for 5-tuple flows.
//
// Checked: every fitted b lies in the paper's 0..8, and most are above 1
// (superlinear shots dominate). The mean is printed, not checked: the paper
// gives "around 2" no tolerance.
#include <cstdio>

#include "common.hpp"
#include "core/fitting.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"

FBM_BENCH(fig11_power_histogram) {
  using namespace fbm;
  bench::print_header(
      "Figure 11: fitted shot power b across intervals (5-tuple flows)");

  const auto runs = bench::run_all_profiles(bench::default_scale());

  stats::Histogram hist(0.0, 8.0, 16);
  stats::RunningStats bs;
  std::size_t skipped = 0;
  std::size_t superlinear = 0;
  for (const auto& run : runs) {
    for (const auto& r : run.five_tuple) {
      const auto b = core::fit_power_b(r.measured.variance_bps2, r.inputs);
      if (!b) {
        ++skipped;
        continue;
      }
      hist.add(*b);
      bs.add(*b);
      if (*b > 1.0) ++superlinear;
    }
  }
  if (bs.count() == 0) {
    std::printf("no interval could be fitted\n");
    return 1;
  }

  std::printf("intervals fitted: %zu (skipped %zu degenerate)\n\n",
              bs.count(), skipped);
  std::printf("%s\n", hist.ascii(40).c_str());
  std::printf("mean b = %.2f, median-ish mode bin center = %.2f, "
              "range [%.2f, %.2f]\n",
              bs.mean(), hist.bin_center(hist.mode_bin()), bs.min(), bs.max());
  std::printf("\n");
  ctx.check("smallest fitted b", bs.min(), 0.0, 8.0,
            "Fig. 11: b spans 0..8");
  ctx.check("largest fitted b", bs.max(), 0.0, 8.0, "Fig. 11: b spans 0..8");
  ctx.check("share of fitted b above 1",
            static_cast<double>(superlinear) /
                static_cast<double>(bs.count()),
            0.5, 1.0, "Fig. 11: superlinear shots dominate (mean ~2)");
  return 0;
}
