// Figure 1: cumulative number of flows during one analysis interval, with a
// zoom on the first instants showing the extra "arrivals" contributed by
// flows split at the interval boundary (/24 prefix definition).
//
// Paper: ~15,000 continued flows out of ~680,000 arrivals in 30 minutes; the
// arrival rate is constant after the initial step.
//
// Checked: every continued flow starts within one idle timeout of the
// boundary (Section III: a flow still active at the boundary has a packet
// within the timeout), the step above the steady rate over that first
// timeout is the continued flows, and after it the two halves of the
// interval see the same Poisson arrival rate (Assumption 1), within three
// standard deviations of a Poisson count.
#include <cmath>
#include <cstdio>

#include "common.hpp"

FBM_BENCH(fig01_arrivals) {
  using namespace fbm;
  bench::print_header(
      "Figure 1: cumulative flow arrivals in one interval (/24 flows)");

  // Use the second interval of the busiest profile (index 2, 262 Mbps paper
  // scale) so that boundary splitting from interval 1 is visible.
  const auto scale = bench::default_scale();
  const auto run = bench::run_profile(2, scale);
  if (run.prefix24.size() < 2) {
    std::printf("not enough intervals generated\n");
    return 1;
  }
  const auto& iv = run.prefix24[1].interval;

  const std::size_t total = iv.flows.size();
  const std::size_t continued = flow::continued_count(iv);
  std::printf("interval [%.0fs, %.0fs): %zu flow arrivals, %zu continued "
              "from previous interval (%.1f%%)\n\n",
              iv.start, iv.end(), total, continued,
              100.0 * static_cast<double>(continued) /
                  static_cast<double>(total));

  std::printf("cumulative arrivals (full interval, 1 s steps):\n");
  const auto cum = flow::cumulative_arrivals(iv, 1.0);
  for (std::size_t i = 0; i < cum.size(); i += 3) {
    std::printf("  t=%4zus  %6zu\n", i, cum[i]);
  }

  std::printf("\nzoom on the first second (20 ms steps):\n");
  const auto zoom = flow::cumulative_arrivals(iv, 0.02);
  for (std::size_t i = 0; i <= 50 && i < zoom.size(); i += 5) {
    std::printf("  t=%5.2fs  %6zu\n", 0.02 * static_cast<double>(i), zoom[i]);
  }

  // The same idle timeout run_profile classifies with.
  const double timeout = 60.0 * scale.time_scale;
  std::size_t late_continued = 0;
  std::size_t in_step = 0;
  std::size_t first_half = 0;
  std::size_t second_half = 0;
  const double mid = timeout + 0.5 * (iv.length - timeout);
  for (const auto& f : iv.flows) {
    const double rel = f.start - iv.start;
    if (rel < timeout) {
      ++in_step;
    } else {
      (rel < mid ? first_half : second_half) += 1;
      if (f.continued) ++late_continued;
    }
  }
  const double steady_rate = static_cast<double>(first_half + second_half) /
                             (iv.length - timeout);
  const double expected_step = steady_rate * timeout;
  std::printf("\n");
  ctx.check("continued flows starting after one timeout",
            static_cast<double>(late_continued), 0.0, 0.0,
            "Section III: continued pieces start within the timeout");
  ctx.check("step arrivals minus continued flows",
            static_cast<double>(in_step) - static_cast<double>(continued),
            expected_step - 3.0 * std::sqrt(expected_step),
            expected_step + 3.0 * std::sqrt(expected_step),
            "Assumption 1: Poisson count at the steady rate, 3 sigma");
  const double halves = static_cast<double>(first_half + second_half);
  ctx.check("arrivals, second half minus first half",
            static_cast<double>(second_half) -
                static_cast<double>(first_half),
            -3.0 * std::sqrt(halves), 3.0 * std::sqrt(halves),
            "Assumption 1: constant Poisson rate, 3 sigma");
  return 0;
}
