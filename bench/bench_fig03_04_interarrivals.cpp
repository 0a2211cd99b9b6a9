// Figures 3 and 4: distribution and auto-correlation of flow inter-arrival
// times for 5-tuple flows (Fig 3) and /24 prefix flows (Fig 4).
//
// Paper: the qq-plot against the exponential distribution is close to the
// diagonal and the ACF is near zero for lags 1-20, supporting Assumption 1
// (Poisson arrivals).
//
// Checked for both definitions: the Kolmogorov-Smirnov test does not reject
// exponential inter-arrivals at the 1% level, and at most 4 of the 20 lags
// leave the 95% white-noise band (for white noise, 5 or more happen with
// probability 0.26%).
#include <cmath>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "flow/flow_stats.hpp"

namespace {

void report(fbm::bench::Context& ctx, const char* title, const char* tag,
            const fbm::flow::IntervalData& iv) {
  using namespace fbm;
  std::printf("\n--- %s: %zu flows ---\n", title, iv.flows.size());
  const auto d = flow::diagnose_population(iv.flows, 20, 20);

  std::printf("qq-plot vs exponential (normalised axes):\n");
  std::printf("  %10s %12s\n", "measured", "exponential");
  for (std::size_t i = 0; i < d.interarrival_qq.size(); i += 2) {
    std::printf("  %10.3f %12.3f\n", d.interarrival_qq[i].sample,
                d.interarrival_qq[i].theoretical);
  }
  std::printf("  rms deviation from diagonal: %.3f  (KS stat %.4f)\n",
              stats::qq_rms_deviation(d.interarrival_qq),
              d.interarrival_ks.statistic);

  std::printf("auto-correlation of inter-arrival times (lags 1..20):\n  ");
  for (std::size_t lag = 1; lag <= 20; ++lag) {
    std::printf("%5.2f", d.interarrival_acf[lag]);
  }
  std::printf("\n  white-noise band: +-%.3f\n", d.white_noise_band);

  std::size_t outside = 0;
  for (std::size_t lag = 1; lag <= 20; ++lag) {
    if (std::abs(d.interarrival_acf[lag]) > d.white_noise_band) ++outside;
  }
  ctx.check(std::string(tag) + ": KS p-value vs exponential",
            d.interarrival_ks.pvalue, 0.01, 1.0,
            "Assumption 1: exponential inter-arrivals, 1% test");
  ctx.check(std::string(tag) + ": acf lags outside the 95% band",
            static_cast<double>(outside), 0.0, 4.0,
            "Assumption 1: independent inter-arrivals");
}

}  // namespace

FBM_BENCH(fig03_04_interarrivals) {
  using namespace fbm;
  bench::print_header(
      "Figures 3-4: inter-arrival times vs exponential, both flow "
      "definitions");

  // Mid-utilization profile (136 Mbps paper scale), first full interval.
  const auto run = bench::run_profile(4, bench::default_scale());
  if (run.five_tuple.empty() || run.prefix24.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }
  report(ctx, "Figure 3: 5-tuple flows", "5-tuple",
         run.five_tuple[0].interval);
  report(ctx, "Figure 4: /24 prefix flows", "/24", run.prefix24[0].interval);
  return 0;
}
