// fbm_scenario — run a scenario end to end: generate the regime-switching
// stream, push it through live analysis on the multi-link engine, score the
// monitor's alerts against the injected ground truth, and emit the
// precision/recall/latency report.
//
// Usage: fbm_scenario <scenario.scn> [flags]; the flag list is the table in
// parse_args() (run with no arguments to print it).
//
// The score JSON document (scenario/score.hpp schema) goes to stdout, or
// to --json FILE with a one-line human summary on stdout instead. The
// stream runs through the multi-link engine; without --link it is one
// match-all link observed untagged. --link (repeatable) demuxes it instead,
// and truth events carrying link names are matched against these.
// --threads N spreads the sessions over a worker pool, with or without
// --link. --window and --stride default to the spec's suggestion.
// --min-precision/--min-recall turn the run into a gate: exit 1 when the
// score falls below either floor — the scenario-smoke CI job runs the
// bundled scenarios exactly this way. --trace/--truth additionally write
// the replayable .fbmt trace and the truth log, byte-identical to what
// fbm_trace_gen --scenario produces.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cli.hpp"
#include "obs/catalog.hpp"
#include "scenario/score.hpp"
#include "scenario/source.hpp"
#include "scenario/spec.hpp"
#include "scenario/truth.hpp"
#include "trace/trace_format.hpp"

namespace {

using fbm::tools::Kind;

struct Options {
  std::string spec_path;
  fbm::tools::LiveOptions live;
  std::string json_path;    // empty = JSON to stdout
  std::string report_path;  // window JSONL dump
  std::string trace_path;   // replayable .fbmt
  std::string truth_path;   // truth log
  double min_precision = -1.0;  // <0 = no gate
  double min_recall = -1.0;
  fbm::tools::MetricsOptions metrics;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  opt.live.window = 0.0;   // 0 = take the spec's suggestion
  opt.live.stride = -1.0;  // <0 = take the spec's suggestion
  opt.live.analysis.timeout = 1.0;
  opt.live.analysis.delta = 0.1;
  opt.live.warmup = 8;
  fbm::tools::Cli("fbm_scenario", "<scenario.scn>", &opt.spec_path,
                  fbm::tools::live_flags(opt.live))
      .add({{"--json", &opt.json_path, Kind::text, "FILE"},
            {"--report", &opt.report_path, Kind::text, "FILE"},
            {"--trace", &opt.trace_path, Kind::text, "FILE"},
            {"--truth", &opt.truth_path, Kind::text, "FILE"},
            {"--min-precision", &opt.min_precision, Kind::real, "P"},
            {"--min-recall", &opt.min_recall, Kind::real, "R"}})
      .add(fbm::tools::metrics_flags(opt.metrics))
      .parse(argc, argv);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fbm;
  const Options opt = parse_args(argc, argv);
  try {
    const scenario::ScenarioSpec spec =
        scenario::load_scenario(opt.spec_path);
    const scenario::TruthLog truth = scenario::derive_truth(spec);
    tools::LiveOptions live = opt.live;
    if (live.window <= 0.0) live.window = spec.window_s;
    if (live.stride < 0.0) live.stride = spec.stride_s;
    const live::LiveConfig config = live.config();
    config.validate();

    obs::MetricsExporter metrics = tools::make_metrics_exporter(opt.metrics);
    tools::MetricsFinishGuard metrics_guard(metrics);
    for (const auto& e : truth.events) {
      obs::scenario_events(std::string(live::to_string(e.kind))).add(1);
    }

    if (!opt.truth_path.empty()) {
      scenario::write_truth_file(opt.truth_path, truth);
    }
    std::unique_ptr<trace::TraceWriter> trace_out;
    if (!opt.trace_path.empty()) {
      trace_out = std::make_unique<trace::TraceWriter>(opt.trace_path);
    }
    std::unique_ptr<std::ofstream> report_out;
    if (!opt.report_path.empty()) {
      report_out = std::make_unique<std::ofstream>(opt.report_path,
                                                   std::ios::trunc);
      if (!*report_out) {
        std::fprintf(stderr, "error: cannot open %s\n",
                     opt.report_path.c_str());
        return 1;
      }
    }

    scenario::ScenarioTraceSource source(spec);
    std::vector<scenario::ObservedWindow> observed;
    std::uint64_t packets = 0;

    engine::EngineConfig econfig;
    econfig.mode = engine::EngineMode::live;
    econfig.live = config;
    econfig.threads = opt.live.analysis.threads;
    const bool tagged = !opt.live.analysis.links.empty();
    engine::Engine eng(econfig);
    // Serialized by the engine even under a worker pool, so the plain
    // vector append is safe.
    eng.set_report_sink([&](engine::LinkReport&& r) {
      if (report_out) {
        *report_out << (tagged ? engine::to_jsonl(r)
                               : live::to_jsonl(*r.window))
                    << "\n";
      }
      observed.push_back(tagged ? scenario::observe(*r.window, r.name)
                                : scenario::observe(*r.window));
    });
    (void)tools::attach_links(eng, opt.live.analysis.links, {});
    net::PacketBatch batch;
    obs::Histogram& gen_stage = obs::stage_seconds(obs::kStageScenarioGen);
    while (true) {
      std::size_t n = 0;
      {
        obs::StageSpan span(gen_stage);
        n = source.next_batch(batch, config.analysis.batch_packets());
      }
      if (n == 0) break;
      packets += n;
      obs::scenario_packets().add(n);
      if (trace_out) {
        for (std::size_t i = 0; i < n; ++i) trace_out->append(batch.record(i));
      }
      eng.push_batch(batch);
      metrics.tick();
    }
    eng.finish();
    if (trace_out) trace_out->close();

    obs::scenario_flows("attack").add(source.attack_flows());
    obs::scenario_flows("baseline").add(source.flows_started() -
                                        source.attack_flows());

    scenario::ScoreReport result;
    {
      obs::StageSpan span(
          obs::stage_seconds(obs::kStageScenarioScore));
      result = scenario::score(truth, observed);
    }
    obs::scenario_alerts("tp").add(result.true_positives);
    obs::scenario_alerts("fp").add(result.false_positives);
    obs::scenario_alerts("ignored").add(result.ignored_alerts);

    const std::string json = scenario::to_json(result);
    if (opt.json_path.empty()) {
      std::printf("%s\n", json.c_str());
    } else {
      std::ofstream out(opt.json_path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "error: cannot open %s\n",
                     opt.json_path.c_str());
        return 1;
      }
      out << json << "\n";
      std::printf(
          "%s: %llu packets, %zu windows, %zu alerts -> precision %.3f "
          "recall %.3f (%zu/%zu events)\n",
          spec.name.c_str(), static_cast<unsigned long long>(packets),
          result.windows, result.alerts, result.precision, result.recall,
          result.detected_events, result.events.size());
    }

    bool gate_failed = false;
    if (opt.min_precision >= 0.0 && result.precision < opt.min_precision) {
      std::fprintf(stderr, "gate: precision %.3f < floor %.3f\n",
                   result.precision, opt.min_precision);
      gate_failed = true;
    }
    if (opt.min_recall >= 0.0 && result.recall < opt.min_recall) {
      std::fprintf(stderr, "gate: recall %.3f < floor %.3f\n",
                   result.recall, opt.min_recall);
      gate_failed = true;
    }
    return gate_failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
