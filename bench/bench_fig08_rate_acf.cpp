// Figure 8: auto-correlation coefficient of the total rate r(tau)/r(0) for
// tau in [0, 400] ms, computed by Theorem 2 for b = 0, 1, 2, for both flow
// definitions.
//
// Paper: the coefficient decreases slowly over [0, 400] ms — especially for
// /24 prefix flows whose durations are longer — which justifies using the
// instantaneous variance as a stand-in for the 200 ms-averaged variance.
// A second section evaluates eq. (7) directly: sigma_Delta^2 / sigma^2.
//
// Checked: /24 flows decorrelate no faster than 5-tuple flows (their rho at
// 400 ms is at least as high, for every b); at 50 ms a larger b decays
// faster; and averaging over Delta never raises the variance (eq. 7 ratio
// <= 1). "Slowly" is shown, not checked: the paper gives it no number.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"

namespace {

/// rho(tau) per b in {0, 1, 2} (rows) at tau = 0, 50, ..., 400 ms.
using AcfTable = std::vector<std::vector<double>>;

AcfTable report(fbm::bench::Context& ctx, const char* title,
                const char* tag, const fbm::flow::IntervalData& iv) {
  using namespace fbm;
  std::printf("\n--- %s ---\n", title);
  std::printf("%8s", "tau(ms)");
  for (double b : {0.0, 1.0, 2.0}) std::printf("      b=%.0f", b);
  std::printf("\n");

  std::vector<double> taus;
  for (double t = 0.0; t <= 0.4001; t += 0.05) taus.push_back(t);

  std::vector<std::vector<double>> rows(taus.size());
  AcfTable by_b;
  for (double b : {0.0, 1.0, 2.0}) {
    const auto model =
        core::ShotNoiseModel::from_interval(iv, core::power_shot(b));
    const auto rho = model.autocorrelation(taus);
    for (std::size_t i = 0; i < taus.size(); ++i) rows[i].push_back(rho[i]);
    by_b.push_back(rho);
  }
  for (std::size_t i = 0; i < taus.size(); ++i) {
    std::printf("%8.0f", taus[i] * 1e3);
    for (double v : rows[i]) std::printf("%9.3f", v);
    std::printf("\n");
  }

  // Section V-F, eq. (7): averaging-interval effect on the variance.
  std::printf("  averaged-variance ratio sigma_Delta^2/sigma^2 (b=1): ");
  const auto model = core::ShotNoiseModel::from_interval(iv, core::triangular_shot());
  const double var = model.variance();
  for (double delta : {0.05, 0.2, 1.0}) {
    std::printf(" Delta=%.2fs: %.3f ", delta,
                model.averaged_variance(delta) / var);
  }
  std::printf("\n");

  const std::string t(tag);
  ctx.check(t + ": rho(50 ms), b=1 vs b=0", by_b[1][1],
            -std::numeric_limits<double>::infinity(), by_b[0][1],
            "Fig. 8: a larger b decays faster at small tau");
  ctx.check(t + ": rho(50 ms), b=2 vs b=1", by_b[2][1],
            -std::numeric_limits<double>::infinity(), by_b[1][1],
            "Fig. 8: a larger b decays faster at small tau");
  ctx.check(t + ": averaged / instant variance, 200 ms",
            model.averaged_variance(0.2) / var, 0.0, 1.0,
            "eq. (7): averaging cannot raise the variance");
  return by_b;
}

}  // namespace

FBM_BENCH(fig08_rate_acf) {
  using namespace fbm;
  bench::print_header(
      "Figure 8: auto-correlation of the total rate (Theorem 2)");

  const auto run = bench::run_profile(4, bench::default_scale());
  if (run.five_tuple.empty() || run.prefix24.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }
  const auto five = report(ctx, "5-tuple flows", "5-tuple",
                          run.five_tuple[0].interval);
  const auto prefix = report(ctx, "/24 prefix flows", "/24",
                            run.prefix24[0].interval);

  std::printf("\n");
  for (std::size_t i = 0; i < five.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof label, "rho(400 ms), /24 vs 5-tuple, b=%zu",
                  i);
    ctx.check(label, prefix[i].back(), five[i].back(),
              std::numeric_limits<double>::infinity(),
              "Fig. 8: longer /24 flows decorrelate more slowly");
  }
  return 0;
}
