// fbm_scenario — run a scenario end to end: generate the regime-switching
// stream, push it through live analysis (single estimator or multi-link
// engine), score the monitor's alerts against the injected ground truth,
// and emit the precision/recall/latency report.
//
// Usage:
//   fbm_scenario <scenario.scn>
//     [--window S] [--stride S] [--timeout S] [--delta S] [--prefix24]
//     [--eps P] [--k-sigma K] [--max-order M] [--consecutive N] [--warmup N]
//     [--link NAME=PREFIX[,...]]... [--threads N] [--batch N]
//     [--json FILE] [--report FILE] [--trace FILE] [--truth FILE]
//     [--min-precision P] [--min-recall R]
//     [--metrics FILE] [--metrics-every N] [--metrics-prom FILE]
//
// The score JSON document (scenario/score.hpp schema) goes to stdout, or
// to --json FILE with a one-line human summary on stdout instead.
// --link switches to engine live mode (repeatable; truth events carrying
// link names are matched against these). --min-precision/--min-recall turn
// the run into a gate: exit 1 when the score falls below either floor —
// the scenario-smoke CI job runs the bundled scenarios exactly this way.
// --trace/--truth additionally write the replayable .fbmt trace and the
// truth log, byte-identical to what fbm_trace_gen --scenario produces.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "live/live.hpp"
#include "obs/catalog.hpp"
#include "scenario/score.hpp"
#include "scenario/source.hpp"
#include "scenario/spec.hpp"
#include "scenario/truth.hpp"
#include "trace/trace_format.hpp"
#include "metrics_cli.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: fbm_scenario <scenario.scn> [--window S] [--stride S] "
      "[--timeout S] [--delta S] [--prefix24] [--eps P] [--k-sigma K] "
      "[--max-order M] [--consecutive N] [--warmup N] "
      "[--link NAME=PREFIX[,...]]... "
      "[--threads N] [--batch N] [--json FILE] [--report FILE] "
      "[--trace FILE] [--truth FILE] [--min-precision P] [--min-recall R] "
      "[--metrics FILE] [--metrics-every N] [--metrics-prom FILE]\n");
  std::exit(2);
}

struct Options {
  std::string spec_path;
  double window = 0.0;   // 0 = take the spec's suggestion
  double stride = -1.0;  // <0 = take the spec's suggestion
  double timeout = 1.0;
  double delta = 0.1;
  bool prefix24 = false;
  double eps = 0.01;
  double k_sigma = 3.0;
  std::size_t max_order = 8;
  std::size_t consecutive = 1;
  std::size_t warmup = 8;  ///< windows unjudged while the forecaster settles
  std::vector<std::string> links;  // empty = single estimator
  std::size_t threads = 1;
  std::size_t batch = 1024;
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
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage();
      }
      return argv[++i];
    };
    if (arg == "--window") {
      opt.window = std::atof(need_value("--window"));
    } else if (arg == "--stride") {
      opt.stride = std::atof(need_value("--stride"));
    } else if (arg == "--timeout") {
      opt.timeout = std::atof(need_value("--timeout"));
    } else if (arg == "--delta") {
      opt.delta = std::atof(need_value("--delta"));
    } else if (arg == "--prefix24") {
      opt.prefix24 = true;
    } else if (arg == "--eps") {
      opt.eps = std::atof(need_value("--eps"));
    } else if (arg == "--k-sigma") {
      opt.k_sigma = std::atof(need_value("--k-sigma"));
    } else if (arg == "--max-order") {
      opt.max_order = fbm::tools::to_count(
          std::atof(need_value("--max-order")), "--max-order", usage);
    } else if (arg == "--consecutive") {
      opt.consecutive = fbm::tools::to_count(
          std::atof(need_value("--consecutive")), "--consecutive", usage);
    } else if (arg == "--warmup") {
      opt.warmup = fbm::tools::to_count(std::atof(need_value("--warmup")),
                                        "--warmup", usage);
    } else if (arg == "--link") {
      opt.links.emplace_back(need_value("--link"));
    } else if (arg == "--threads") {
      opt.threads =
          fbm::tools::to_threads(std::atof(need_value("--threads")), usage);
    } else if (arg == "--batch") {
      opt.batch = fbm::tools::to_count(std::atof(need_value("--batch")),
                                       "--batch", usage);
      if (opt.batch == 0) usage();
    } else if (arg == "--json") {
      opt.json_path = need_value("--json");
    } else if (arg == "--report") {
      opt.report_path = need_value("--report");
    } else if (arg == "--trace") {
      opt.trace_path = need_value("--trace");
    } else if (arg == "--truth") {
      opt.truth_path = need_value("--truth");
    } else if (arg == "--min-precision") {
      opt.min_precision = std::atof(need_value("--min-precision"));
    } else if (arg == "--min-recall") {
      opt.min_recall = std::atof(need_value("--min-recall"));
    } else if (fbm::tools::parse_metrics_flag(argc, argv, i, opt.metrics,
                                              usage)) {
      // handled
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      usage();
    } else if (opt.spec_path.empty()) {
      opt.spec_path = arg;
    } else {
      usage();
    }
  }
  if (opt.spec_path.empty()) usage();
  return opt;
}

fbm::live::LiveConfig make_live_config(const Options& opt,
                                       const fbm::scenario::ScenarioSpec&
                                           spec) {
  using namespace fbm;
  live::LiveConfig config;
  config.window_s = opt.window > 0.0 ? opt.window : spec.window_s;
  config.stride_s = opt.stride >= 0.0 ? opt.stride : spec.stride_s;
  config.band_k_sigma = opt.k_sigma;
  config.forecast_max_order = opt.max_order;
  config.alert_min_consecutive = opt.consecutive;
  config.alert_warmup_windows = opt.warmup;
  config.analysis
      .flow_definition(opt.prefix24 ? api::FlowDefinition::prefix24
                                    : api::FlowDefinition::five_tuple)
      .timeout_s(opt.timeout)
      .delta_s(opt.delta)
      .epsilon(opt.eps);
  config.validate();
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fbm;
  const Options opt = parse_args(argc, argv);
  try {
    const scenario::ScenarioSpec spec =
        scenario::load_scenario(opt.spec_path);
    const scenario::TruthLog truth = scenario::derive_truth(spec);
    const live::LiveConfig config = make_live_config(opt, spec);

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

    obs::Histogram& gen_stage =
        obs::stage_seconds(obs::kStageScenarioGen);
    const auto drain = [&](auto&& push_batch) {
      net::PacketBatch batch;
      while (true) {
        std::size_t n = 0;
        {
          obs::StageSpan span(gen_stage);
          n = source.next_batch(batch, opt.batch);
        }
        if (n == 0) break;
        packets += n;
        obs::scenario_packets().add(n);
        if (trace_out) {
          for (std::size_t i = 0; i < n; ++i) {
            trace_out->append(batch.record(i));
          }
        }
        push_batch(batch);
        metrics.tick();
      }
    };

    if (opt.links.empty()) {
      live::WindowedEstimator estimator(config);
      estimator.set_window_sink([&](live::WindowReport&& r) {
        if (report_out) *report_out << live::to_jsonl(r) << "\n";
        observed.push_back(scenario::observe(r));
      });
      drain([&](const net::PacketBatch& b) { estimator.push_batch(b); });
      estimator.finish();
    } else {
      engine::EngineConfig econfig;
      econfig.mode = engine::EngineMode::live;
      econfig.live = config;
      econfig.threads = opt.threads;
      engine::Engine eng(econfig);
      // Serialized by the engine even under a worker pool, so the plain
      // vector append is safe.
      eng.set_report_sink([&](engine::LinkReport&& r) {
        if (!r.window) return;
        if (report_out) {
          *report_out << live::to_jsonl(*r.window, r.name) << "\n";
        }
        observed.push_back(scenario::observe(*r.window, r.name));
      });
      for (const auto& text : opt.links) {
        (void)eng.attach(engine::parse_link_spec(text));
      }
      drain([&](const net::PacketBatch& b) { eng.push_batch(b); });
      eng.finish();
    }
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
