// Table I: summary of the seven (scaled) OC-12 link traces.
//
// Paper: lengths 6h-39h30m, average utilizations 26-262 Mbps. We regenerate
// each trace at 1/60 time scale and 1/10 rate scale and report what the
// measurement pipeline actually saw, next to the paper's original values.
//
// Checked: each measured utilization lies within three standard deviations
// of the scaled target lambda*E[S] (Corollary 1). The bytes of a Poisson
// number of iid flows form a compound Poisson sum, whose variance over a
// trace of length T is lambda*T*E[S^2].
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_stats.hpp"

FBM_BENCH(table1_traces) {
  using namespace fbm;
  bench::print_header(
      "Table I: summary of OC-12 link traces (scaled reproduction)");

  const auto scale = bench::default_scale();
  std::printf("%-16s %12s %14s | %12s %14s %10s\n", "Date", "paper len",
              "paper util", "scaled len", "measured util", "packets");

  std::vector<double> measured_mbps;
  for (std::size_t i = 0; i < trace::sprint_table1().size(); ++i) {
    const auto& row = trace::sprint_table1()[i];
    const auto cfg = trace::make_config(i, scale);
    trace::GenerationReport rep;
    const auto packets = trace::generate_packets(cfg, &rep);
    const auto summary = trace::summarize(packets);
    ctx.count_packets(summary.packets);
    std::printf("%-16s %12s %11.0f Mbps | %11s %11.1f Mbps %10llu\n",
                row.date.c_str(), trace::format_duration(row.length_s).c_str(),
                row.utilization_bps / 1e6,
                trace::format_duration(cfg.duration_s).c_str(),
                summary.mean_rate_mbps(),
                static_cast<unsigned long long>(summary.packets));
    measured_mbps.push_back(summary.mean_rate_mbps());
  }

  std::printf("\n");
  for (std::size_t i = 0; i < trace::sprint_table1().size(); ++i) {
    const auto cfg = trace::make_config(i, scale);
    const auto& size = *cfg.size_bytes;
    const double second_moment = size.variance() + size.mean() * size.mean();
    const double target = cfg.expected_rate_bps();
    const double sd = 8.0 *
                      std::sqrt(cfg.flow_rate * cfg.duration_s *
                                second_moment) /
                      cfg.duration_s;
    char label[64];
    std::snprintf(label, sizeof label, "profile %zu utilization (Mbps)", i);
    ctx.check(label, measured_mbps[i], (target - 3.0 * sd) / 1e6,
              (target + 3.0 * sd) / 1e6,
              "Corollary 1: lambda*E[S], compound Poisson 3 sigma");
  }
  return 0;
}
