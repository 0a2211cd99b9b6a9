#include "common.hpp"

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "api/api.hpp"
#include "obs/export.hpp"
#include "trace/synthetic.hpp"

namespace fbm::bench {

namespace {

/// Telemetry sink for the bench currently executing (run_registered sets
/// it); run_profile counts its work here so individual benches don't have
/// to. Null outside a registered run (e.g. library use in tests).
Context* g_active_context = nullptr;

/// Quick mode for the bench currently executing; default_scale() shortens
/// the trace cap when set.
bool g_quick = false;

}  // namespace

trace::ScaleOptions default_scale() {
  trace::ScaleOptions scale;
  scale.time_scale = 1.0 / 60.0;  // 30-min interval -> 30 s
  scale.rate_scale = 1.0 / 10.0;  // 26-262 Mbps -> 2.6-26.2 Mbps
  // Quick (CI smoke) keeps three full analysis intervals per trace; the
  // default keeps the laptop-scale 240 s documented above.
  scale.max_length_s = g_quick ? 90.0 : 240.0;
  return scale;
}

namespace {

std::vector<IntervalResult> analyse(api::FlowDefinition flow_def,
                                    const std::vector<net::PacketRecord>& packets,
                                    double interval_s, double timeout_s) {
  api::AnalysisConfig config;
  config.flow_definition(flow_def)
      .interval_s(interval_s)
      .timeout_s(timeout_s)
      .delta_s(measure::kPaperDelta)
      .min_flows(20)  // skip ragged tail intervals
      .keep_flows(true);

  std::vector<IntervalResult> out;
  for (auto& report : api::analyze(packets, config)) {
    IntervalResult r;
    r.inputs = report.inputs;
    r.measured = report.measured;
    r.interval = std::move(report.interval);
    out.push_back(std::move(r));
  }

  if (g_active_context != nullptr) {
    g_active_context->count_packets(packets.size());
  }
  return out;
}

}  // namespace

ProfileRun run_profile(std::size_t index, const trace::ScaleOptions& scale) {
  ProfileRun run;
  run.profile_index = index;
  run.profile = trace::sprint_table1()[index];
  const auto cfg = trace::make_config(index, scale);
  run.packets = trace::generate_packets(cfg);
  run.horizon = cfg.duration_s;
  run.interval_s = trace::scaled_interval_s(scale);
  // The paper's 60 s idle timeout scales with the interval (60 s : 30 min
  // becomes 1 s : 30 s) so gap structure relative to the analysis window is
  // preserved.
  const double timeout_s = 60.0 * scale.time_scale;
  run.five_tuple = analyse(api::FlowDefinition::five_tuple, run.packets,
                           run.interval_s, timeout_s);
  run.prefix24 = analyse(api::FlowDefinition::prefix24, run.packets,
                         run.interval_s, timeout_s);
  return run;
}

std::vector<ProfileRun> run_all_profiles(const trace::ScaleOptions& scale) {
  std::vector<ProfileRun> out;
  out.reserve(trace::sprint_table1().size());
  for (std::size_t i = 0; i < trace::sprint_table1().size(); ++i) {
    out.push_back(run_profile(i, scale));
  }
  return out;
}

void print_header(const std::string& title) {
  std::printf("==================================================="
              "=========================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==================================================="
              "=========================\n");
}

// --------------------------------------------------------------- registry ---

void Context::check(const std::string& label, double value, double lo,
                    double hi, const std::string& source) {
  const bool ok = value >= lo && value <= hi;  // false for NaN
  if (!ok) ++failed_;
  std::printf("check: %-46s %-11.6g in [%.6g, %.6g]  %s  (%s)\n",
              label.c_str(), value, lo, hi, ok ? "ok" : "FAIL",
              source.c_str());
}

namespace {

std::vector<BenchInfo>& registry() {
  static std::vector<BenchInfo> benches;
  return benches;
}

}  // namespace

int register_bench(const char* name, BenchFn fn) {
  registry().push_back({name, fn});
  return static_cast<int>(registry().size());
}

const std::vector<BenchInfo>& registered_benches() { return registry(); }

int run_registered(const BenchInfo& info, bool quick,
                   perf::BenchReport& report) {
  report.bench = info.name;
  report.git_sha = perf::current_git_sha();

  Context context(report, quick);
  g_active_context = &context;
  g_quick = quick;
  const auto scale = default_scale();
  report.set_config("quick", quick);
  report.set_config("time_scale", scale.time_scale);
  report.set_config("rate_scale", scale.rate_scale);
  report.set_config("max_length_s", scale.max_length_s);

  // The obs registry delta of this run rides along in the report's "obs"
  // section.
  const obs::Snapshot obs_before = obs::Registry::global().snapshot();

  perf::Stopwatch watch;
  int rc = 1;
  try {
    rc = info.fn(context);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench %s threw: %s\n", info.name, e.what());
  }
  report.wall_s = watch.elapsed_s();
  report.packets_per_s =
      report.wall_s > 0.0
          ? static_cast<double>(report.packets) / report.wall_s
          : 0.0;
  if (context.failed_checks() > 0) {
    std::fprintf(stderr, "bench %s: %zu checks failed\n", info.name,
                 context.failed_checks());
    if (rc == 0) rc = 1;
  }
  const obs::Snapshot obs_after = obs::Registry::global().snapshot();
  const obs::Snapshot obs_delta = obs::delta(obs_before, obs_after);
  if (!obs_delta.metrics.empty()) {
    report.obs_json = obs::to_json_metrics(obs_delta);
  }
  report.peak_rss_kb = perf::peak_rss_kb();

  g_active_context = nullptr;
  g_quick = false;
  return rc;
}

bool write_report_json(const std::string& dir,
                       const perf::BenchReport& report) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path path =
      std::filesystem::path(dir) / ("BENCH_" + report.bench + ".json");
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return false;
  }
  out << report.to_json() << "\n";
  return static_cast<bool>(out);
}

int standalone_main(const char* name, int argc, char** argv) {
  bool quick = false;
  std::string json_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json DIR]\n", argv[0]);
      return 2;
    }
  }

  for (const auto& info : registered_benches()) {
    if (std::strcmp(info.name, name) != 0) continue;
    perf::BenchReport report;
    const int rc = run_registered(info, quick, report);
    if (!json_dir.empty() && !write_report_json(json_dir, report)) return 1;
    return rc;
  }
  std::fprintf(stderr, "bench %s is not registered\n", name);
  return 2;
}

}  // namespace fbm::bench
