// Micro-benchmarks: throughput of the pipeline stages an operator would run
// online — packet classification, parameter estimation, model evaluation,
// prediction, and traffic generation — timed with the fbm::perf stopwatch
// (no external benchmark framework needed). The rates land in
// BENCH_micro_perf.json; nothing here is gated (the repository's
// performance gate is perfbench), so this bench has no checks.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "api/api.hpp"
#include "common.hpp"
#include "core/fitting.hpp"
#include "core/model.hpp"
#include "flow/classifier.hpp"
#include "gen/traffic_gen.hpp"
#include "measure/rate_meter.hpp"
#include "predict/predictor.hpp"
#include "predict/toeplitz.hpp"
#include "stats/autocorrelation.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace fbm;

std::vector<net::PacketRecord> make_packets(bool quick) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = quick ? 10.0 : 30.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(10e6);
  return trace::generate_packets(cfg);
}

/// Repeats `body` until it has run for at least `min_s` (and at least three
/// times), returning executions per second.
template <typename Body>
double rate_per_s(double min_s, Body&& body) {
  perf::Stopwatch watch;
  std::uint64_t reps = 0;
  do {
    body();
    ++reps;
  } while (watch.elapsed_s() < min_s || reps < 3);
  return static_cast<double>(reps) / watch.elapsed_s();
}

/// Classification packets/sec, with the reserve-ahead the production
/// pipeline configures (api::kReserveFlows), so the loop measures steady
/// classification rather than allocator ramp-up; best of three trials.
template <typename Key>
double classify_rate(bench::Context& ctx,
                     const std::vector<net::PacketRecord>& packets,
                     double min_s) {
  flow::ClassifierOptions options;
  options.reserve_flows = api::kReserveFlows;
  // One long-lived classifier, as in a production monitor: each pass
  // replays the trace and flush() ends the capture, so the timed loop
  // measures steady classification, not table construction.
  flow::FlowClassifier<Key> classifier(options);
  std::uint64_t flows = 0;
  const auto one_pass = [&] {
    for (const auto& p : packets) classifier.add(p);
    classifier.flush();
    flows += classifier.take_flows().size();
    ctx.count_packets(packets.size());
  };
  one_pass();  // warm-up: fault in the table and train the branch predictor
  double best_runs_per_s = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    best_runs_per_s = std::max(best_runs_per_s, rate_per_s(min_s, one_pass));
  }
  if (flows == 0) std::printf("classification produced no flows\n");
  return best_runs_per_s * static_cast<double>(packets.size());
}

}  // namespace

FBM_BENCH(micro_perf) {
  bench::print_header("Micro-benchmarks: per-stage throughput");

  const bool quick = ctx.quick();
  const double min_s = quick ? 0.2 : 0.5;
  const auto packets = make_packets(quick);
  const auto flows = flow::classify_all<flow::FiveTupleKey>(packets);
  std::printf("workload: %zu packets, %zu 5-tuple flows\n\n", packets.size(),
              flows.size());

  const double classify_5tuple_pps =
      classify_rate<flow::FiveTupleKey>(ctx, packets, min_s);
  const double classify_prefix24_pps =
      classify_rate<flow::PrefixKey<24>>(ctx, packets, min_s);
  ctx.report().set_metric("classify_5tuple_pps", classify_5tuple_pps);
  ctx.report().set_metric("classify_prefix24_pps", classify_prefix24_pps);

  // --- the remaining online stages ---
  const double binning_runs = rate_per_s(min_s, [&] {
    const auto series = measure::measure_rate(packets, 0.0, 30.0, 0.2);
    if (series.values.empty()) std::printf("empty rate series\n");
  });
  const double binning_pps =
      binning_runs * static_cast<double>(packets.size());
  ctx.report().set_metric("rate_binning_pps", binning_pps);

  double lambda_sink = 0.0;
  const double estimator_runs = rate_per_s(min_s, [&] {
    core::OnlineEstimator est(0.05);
    for (const auto& f : flows) est.observe(f);
    lambda_sink += est.inputs().lambda;
  });
  const double estimator_fps =
      estimator_runs * static_cast<double>(flows.size());
  ctx.report().set_metric("online_estimator_flows_per_s", estimator_fps);

  const auto samples = core::to_samples(flows);
  const core::ShotNoiseModel model(100.0, samples, core::triangular_shot());
  double variance_sink = 0.0;
  const double variance_calls = rate_per_s(min_s, [&] {
    variance_sink += model.variance();
  });
  ctx.report().set_metric("model_variance_calls_per_s", variance_calls);

  double acov_sink = 0.0;
  const double acov_calls = rate_per_s(min_s, [&] {
    acov_sink += model.autocovariance(0.2);
  });
  ctx.report().set_metric("model_autocovariance_calls_per_s", acov_calls);

  std::vector<double> acf(65);
  for (std::size_t k = 0; k < acf.size(); ++k) {
    acf[k] = std::pow(0.85, static_cast<double>(k));
  }
  double coeff_sink = 0.0;
  const double levinson_calls = rate_per_s(min_s, [&] {
    coeff_sink += predict::levinson_durbin(acf, 64).coefficients[0];
  });
  ctx.report().set_metric("levinson_durbin_64_calls_per_s", levinson_calls);

  gen::GeneratorConfig gen_cfg;
  gen_cfg.duration_s = quick ? 10.0 : 30.0;
  gen_cfg.lambda = 200.0;
  gen_cfg.shot = core::triangular_shot();
  gen_cfg.resample_pool = samples;
  const double gen_runs = rate_per_s(min_s, [&] {
    const auto out = gen::generate(gen_cfg);
    if (out.series.values.empty()) std::printf("empty generated series\n");
  });
  ctx.report().set_metric("traffic_gen_runs_per_s", gen_runs);

  std::printf("%-34s %16.0f\n", "5-tuple classification (pkts/s)",
              classify_5tuple_pps);
  std::printf("%-34s %16.0f\n", "/24 classification (pkts/s)",
              classify_prefix24_pps);
  std::printf("%-34s %16.0f\n", "rate binning (pkts/s)", binning_pps);
  std::printf("%-34s %16.0f\n", "online estimator (flows/s)", estimator_fps);
  std::printf("%-34s %16.0f\n", "model variance (calls/s)", variance_calls);
  std::printf("%-34s %16.0f\n", "model autocov (calls/s)", acov_calls);
  std::printf("%-34s %16.0f\n", "levinson-durbin p=64 (calls/s)",
              levinson_calls);
  std::printf("%-34s %16.2f\n", "traffic generation (runs/s)", gen_runs);
  std::printf("(sinks: %g %g %g %g)\n", lambda_sink, variance_sink,
              acov_sink, coeff_sink);

  return 0;
}
