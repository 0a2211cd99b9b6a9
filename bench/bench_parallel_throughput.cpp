// Sharded-pipeline throughput: packets/sec of AnalysisPipeline at 1, 2, 4
// and 8 worker shards (AnalysisConfig::threads) on a synthetic 8 Mbps
// backbone trace, against the api::analyze baseline.
//
// The sharded pipeline's merge is deterministic (flow-key-hashed shards,
// exact flow sums and integral bin sums), so besides timing each run this
// bench verifies that every shard count reproduces the serial reports bit
// for bit — a throughput number that silently changed the answers would be
// worthless. Speedup tracks the physical core count: on a single-core
// container every configuration runs at roughly the serial rate (the extra
// shards just time-slice), while on a 4-core machine the 4-shard row is the
// one the ISSUE's >= 2x criterion refers to.
#include <chrono>
#include <cstdio>
#include <vector>

#include "api/api.hpp"
#include "common.hpp"
#include "trace/synthetic.hpp"

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] bool reports_identical(
    const std::vector<fbm::api::AnalysisReport>& a,
    const std::vector<fbm::api::AnalysisReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.interval_index != y.interval_index || x.start_s != y.start_s ||
        x.inputs.flows != y.inputs.flows ||
        x.inputs.lambda != y.inputs.lambda ||
        x.inputs.mean_size_bits != y.inputs.mean_size_bits ||
        x.inputs.mean_s2_over_d != y.inputs.mean_s2_over_d ||
        x.measured.mean_bps != y.measured.mean_bps ||
        x.measured.variance_bps2 != y.measured.variance_bps2 ||
        x.shot_b != y.shot_b || x.shot_b_used != y.shot_b_used ||
        x.plan.capacity_bps != y.plan.capacity_bps) {
      return false;
    }
  }
  return true;
}

}  // namespace

FBM_BENCH(parallel_throughput) {
  using namespace fbm;
  bench::print_header("Sharded pipeline throughput (packets/sec)");

  // Synthetic 8 Mbps trace, long enough that per-run timing noise is small.
  trace::SyntheticConfig cfg;
  cfg.duration_s = 120.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(8e6);
  cfg.seed = 20020;
  const auto packets = trace::generate_packets(cfg);

  api::AnalysisConfig base;
  base.interval_s(15.0).timeout_s(1.0).min_flows(0);

  std::printf("trace: %zu packets over %.0f s (~8 Mbps synthetic)\n\n",
              packets.size(), cfg.duration_s);
  std::printf("%-14s %14s %12s %10s %10s\n", "pipeline", "packets/s",
              "elapsed s", "speedup", "identical");

  // Serial baseline (also the reference output).
  const auto t0 = Clock::now();
  const auto reference = api::analyze(packets, base);
  const double serial_s = seconds_since(t0);
  const double serial_pps = static_cast<double>(packets.size()) / serial_s;
  std::printf("%-14s %14.0f %12.3f %10s %10s\n", "serial", serial_pps,
              serial_s, "1.00x", "-");

  bool all_identical = true;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    auto config = base;
    config.threads(threads);
    // The single-shard row runs the serial code path (no routing, no pool
    // thread), so it is a second sample of the baseline.
    const auto t1 = Clock::now();
    api::AnalysisPipeline pipeline(config);
    bench::push_packets(pipeline, packets);
    pipeline.finish();
    const auto reports = pipeline.take_reports();
    const double elapsed = seconds_since(t1);
    const double pps = static_cast<double>(packets.size()) / elapsed;
    const bool same = reports_identical(reference, reports);
    all_identical = all_identical && same;
    char label[32];
    std::snprintf(label, sizeof label, "%zu shard%s", threads,
                  threads == 1 ? "" : "s");
    std::printf("%-14s %14.0f %12.3f %9.2fx %10s\n", label, pps, elapsed,
                serial_s / elapsed, same ? "yes" : "NO");
  }

  // Serial reference plus the four shard configurations each classify the
  // whole trace.
  ctx.count_packets(5 * packets.size());

  std::printf("\nall shard counts bit-for-bit identical to serial: %s\n",
              all_identical ? "yes" : "NO");
  return all_identical ? 0 : 1;
}
