// Theorem 2, spectral form: Gamma(omega) = lambda/(2 pi) E|X_hat(omega)|^2.
//
// The paper states the spectral density alongside the auto-covariance but
// validates only the latter. This bench closes the loop: it estimates the
// spectrum of the measured 200 ms rate series with a Welch periodogram and
// compares it with the model's spectral density for b = 0, 1, 2 at matching
// frequencies. The model rides on flow statistics only — no rate samples.
//
// Checked: the low-pass shape. The model density never exceeds its value
// at omega = 0, lambda E[S^2] / (2 pi) (|X_hat(omega)| <= S for a
// non-negative shot), and the measured density peaks in the lowest printed
// band. Agreement "within a small factor" is printed, not checked: the
// paper gives the spectrum no tolerance.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/model.hpp"
#include "stats/spectrum.hpp"

FBM_BENCH(spectrum) {
  using namespace fbm;
  bench::print_header(
      "Theorem 2 (spectral form): measured periodogram vs model density");

  auto scale = bench::default_scale();
  scale.max_length_s = 240.0;
  const auto run = bench::run_profile(2, scale);
  if (run.five_tuple.empty()) {
    std::printf("no intervals generated\n");
    return 1;
  }

  const auto series =
      measure::measure_rate(run.packets, 0.0, run.horizon, 0.2);
  stats::PeriodogramOptions popt;
  popt.segment = 128;
  const auto spectrum = stats::welch_periodogram(series.values, 0.2, popt);

  const auto& iv = run.five_tuple[0].interval;
  double max_model_ratio = 0.0;  // model density / its omega=0 value
  double peak_measured = 0.0;
  double first_measured = -1.0;
  std::printf("%10s %14s | %12s %12s %12s | %8s\n", "omega", "measured",
              "model b=0", "model b=1", "model b=2", "ratio b1");
  for (std::size_t i = 0; i < spectrum.size(); i += 6) {
    const double omega = spectrum[i].omega;
    double model_density[3];
    int j = 0;
    for (double b : {0.0, 1.0, 2.0}) {
      const auto model =
          core::ShotNoiseModel::from_interval(iv, core::power_shot(b));
      model_density[j] = model.spectral_density(omega);
      max_model_ratio = std::max(
          max_model_ratio, model_density[j] / model.spectral_density(0.0));
      ++j;
    }
    if (first_measured < 0.0) first_measured = spectrum[i].density;
    peak_measured = std::max(peak_measured, spectrum[i].density);
    std::printf("%10.3f %14.4g | %12.4g %12.4g %12.4g | %8.2f\n", omega,
                spectrum[i].density, model_density[0], model_density[1],
                model_density[2],
                model_density[1] > 0.0
                    ? spectrum[i].density / model_density[1]
                    : 0.0);
  }

  std::printf("\n");
  ctx.check("model density / its omega=0 value, max", max_model_ratio, 0.0,
            1.0, "Theorem 2: Gamma(omega) <= lambda E[S^2] / 2 pi");
  ctx.check("measured peak / lowest-band density",
            peak_measured / first_measured, 1.0, 1.0,
            "Theorem 2: the spectrum is low-pass");
  return 0;
}
