// Micro-benchmarks: throughput of the pipeline stages an operator would run
// online — packet classification, parameter estimation, model evaluation,
// prediction, and traffic generation — timed with the fbm::perf stopwatch
// (no external benchmark framework needed).
//
// The headline measurement is the flow-classification A/B: the production
// core::FlatHashMap active-flow table against a std::unordered_map build of
// the same classifier, on the same packets in the same process. Both rates
// land in BENCH_micro_perf.json (classify_*_flat_pps / classify_*_std_pps),
// so any PR can prove the flat table is still the faster choice. The
// bench's packets_per_s — the number the CI baseline gates — counts every
// packet the fixed-wall-time classification loops get through, so it drops
// in proportion when classification slows down.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
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

template <typename K, typename V, typename H>
using StdUnorderedMap = std::unordered_map<K, V, H>;

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

/// Classification packets/sec with the given active-flow table type. Both
/// tables get the same reserve-ahead the production pipeline configures
/// (api::kReserveFlows), so the A/B measures steady classification
/// rather than allocator ramp-up; best-of-three trials squeezes out
/// scheduler noise so the flat-vs-std comparison is stable run to run.
template <typename Key, template <typename, typename, typename> class Map>
double classify_rate(bench::Context& ctx,
                     const std::vector<net::PacketRecord>& packets,
                     double min_s, std::uint64_t* flows_out) {
  flow::ClassifierOptions options;
  options.reserve_flows = api::kReserveFlows;
  // One long-lived classifier, as in a production monitor: each pass
  // replays the trace and flush() ends the capture, so the timed loop
  // measures steady classification, not table construction.
  flow::FlowClassifier<Key, Map> classifier(options);
  std::uint64_t flows = 0;
  const auto one_pass = [&] {
    for (const auto& p : packets) classifier.add(p);
    classifier.flush();
    flows += classifier.take_flows().size();
    // Credit every classified packet, so the report's wall-normalized
    // packets_per_s (the number the CI baseline gates) scales with the
    // classification rate: the timed loops run for fixed wall time, so a
    // slower classifier completes fewer passes and counts fewer packets.
    ctx.count_packets(packets.size());
  };
  one_pass();  // warm-up: fault in the table and train the branch predictor
  double best_runs_per_s = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    best_runs_per_s = std::max(best_runs_per_s, rate_per_s(min_s, one_pass));
  }
  if (flows_out != nullptr) *flows_out = flows;
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

  // --- classification A/B: FlatHashMap (production) vs unordered_map ---
  struct ClassifyRow {
    const char* label;
    const char* metric_flat;
    const char* metric_std;
    double flat_pps;
    double std_pps;
  };
  std::uint64_t flows_flat = 0;
  std::uint64_t flows_std = 0;
  ClassifyRow rows[] = {
      {"5-tuple", "classify_5tuple_flat_pps", "classify_5tuple_std_pps",
       classify_rate<flow::FiveTupleKey, core::FlatHashMap>(ctx, packets,
                                                            min_s,
                                                            &flows_flat),
       classify_rate<flow::FiveTupleKey, StdUnorderedMap>(ctx, packets,
                                                          min_s,
                                                          &flows_std)},
      {"/24 prefix", "classify_prefix24_flat_pps",
       "classify_prefix24_std_pps",
       classify_rate<flow::PrefixKey<24>, core::FlatHashMap>(ctx, packets,
                                                             min_s, nullptr),
       classify_rate<flow::PrefixKey<24>, StdUnorderedMap>(ctx, packets,
                                                           min_s, nullptr)},
  };

  std::printf("%-12s %16s %16s %9s\n", "classifier", "flat (pkts/s)",
              "std (pkts/s)", "speedup");
  for (const auto& row : rows) {
    std::printf("%-12s %16.0f %16.0f %8.2fx\n", row.label, row.flat_pps,
                row.std_pps, row.flat_pps / row.std_pps);
    ctx.report().set_metric(row.metric_flat, row.flat_pps);
    ctx.report().set_metric(row.metric_std, row.std_pps);
  }
  // The headline comparison is the 5-tuple definition — the paper's flow
  // definition 1 and the table the pipeline actually stresses (thousands of
  // concurrent flows). The /24 table holds only ~100 aggregates, so both
  // maps run at the classifier's per-packet floor there.
  const bool flat_wins = rows[0].flat_pps >= rows[0].std_pps;
  if (flows_flat == 0 || flows_std == 0) {
    std::printf("classification produced no flows\n");
    return 1;
  }
  ctx.report().set_metric("classify_flat_vs_std_speedup",
                          rows[0].flat_pps / rows[0].std_pps);

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

  std::printf("\n%-34s %16.0f\n", "rate binning (pkts/s)", binning_pps);
  std::printf("%-34s %16.0f\n", "online estimator (flows/s)", estimator_fps);
  std::printf("%-34s %16.0f\n", "model variance (calls/s)", variance_calls);
  std::printf("%-34s %16.0f\n", "model autocov (calls/s)", acov_calls);
  std::printf("%-34s %16.0f\n", "levinson-durbin p=64 (calls/s)",
              levinson_calls);
  std::printf("%-34s %16.2f\n", "traffic generation (runs/s)", gen_runs);
  std::printf("(sinks: %g %g %g %g)\n", lambda_sink, variance_sink,
              acov_sink, coeff_sink);

  std::printf("\ncheck: flat-hash 5-tuple classification at least matches "
              "the unordered_map baseline measured in this run — %s\n",
              flat_wins ? "yes" : "NO (investigate!)");
  return 0;
}
