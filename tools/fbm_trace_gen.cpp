// fbm_trace_gen — generate a synthetic backbone trace file.
//
// Usage: fbm_trace_gen <out.fbmt|out.pcap|out.csv> [flags]; the flag list
// is the table in main() (run with no arguments to print it).
//
// Either pick a Table-I profile (--profile 0..6, scaled) or set the target
// utilization / flow rate directly. The output format follows the file
// extension.
//
// With --scenario the packets come from the regime-switching scenario
// engine instead: the spec's segments drive a seeded, replayable stream
// (scenario::ScenarioTraceSource), written alongside its ground-truth
// event log (--truth FILE, default <out>.truth). `fbm_live OUT --truth
// OUT.truth` then analyzes the capture and scores its alerts. --seed
// overrides the spec's seed; the other generator flags do not apply.
#include <cstdio>
#include <cstring>
#include <string>

#include "cli.hpp"
#include "scenario/source.hpp"
#include "scenario/spec.hpp"
#include "scenario/truth.hpp"
#include "trace/pcap.hpp"
#include "trace/sprint_profiles.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"

int main(int argc, char** argv) {
  using namespace fbm;
  using tools::Kind;

  std::string out_path;
  double duration = 60.0;
  double mbps = 10.0;
  double lambda = 0.0;
  double tcp_fraction = -1.0;  // <0 = the generator's default
  std::uint64_t seed = stats::Rng::default_seed;
  std::uint64_t profile = 0;
  std::string scenario_path;
  std::string truth_path;
  tools::Cli cli("fbm_trace_gen", "<out.fbmt|.pcap|.csv>", &out_path,
                 {{"--duration", &duration, Kind::real, "S"},
                  {"--mbps", &mbps, Kind::real, "M"},
                  {"--lambda", &lambda, Kind::real, "F"},
                  {"--tcp-fraction", &tcp_fraction, Kind::fraction, "P"},
                  {"--seed", &seed, Kind::seed, "N"},
                  {"--profile", &profile, Kind::count, "0..6"},
                  {"--scenario", &scenario_path, Kind::text, "FILE"},
                  {"--truth", &truth_path, Kind::text, "FILE"}});
  cli.parse(argc, argv);
  if (profile > 6) cli.fail("--profile wants 0..6");

  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return out_path.size() >= n &&
           out_path.compare(out_path.size() - n, n, suffix) == 0;
  };

  if (!scenario_path.empty()) {
    try {
      scenario::ScenarioSpec spec = scenario::load_scenario(scenario_path);
      if (cli.given("--seed")) spec.seed = seed;
      const scenario::TruthLog truth = scenario::derive_truth(spec);
      if (truth_path.empty()) truth_path = out_path + ".truth";
      scenario::write_truth_file(truth_path, truth);

      scenario::ScenarioTraceSource source(spec);
      std::uint64_t packets = 0;
      if (ends_with(".pcap") || ends_with(".csv")) {
        // The interop exporters are batch; materialize, then convert.
        const auto recs = api::read_all(source);
        packets = recs.size();
        if (ends_with(".pcap")) {
          trace::export_pcap(out_path, recs);
        } else {
          trace::export_csv(out_path, recs);
        }
      } else {
        trace::TraceWriter writer(out_path);
        net::PacketBatch batch;
        while (source.next_batch(batch, 4096) > 0) {
          for (std::size_t i = 0; i < batch.size(); ++i) {
            writer.append(batch.record(i));
          }
        }
        writer.close();
        packets = writer.written();
      }
      std::printf("%s: scenario %s, %llu packets, %llu flows "
                  "(%llu attack) over %.1f s (seed %llu); truth -> %s\n",
                  out_path.c_str(), spec.name.c_str(),
                  static_cast<unsigned long long>(packets),
                  static_cast<unsigned long long>(source.flows_started()),
                  static_cast<unsigned long long>(source.attack_flows()),
                  spec.total_duration_s(),
                  static_cast<unsigned long long>(spec.seed),
                  truth_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  trace::SyntheticConfig cfg;
  if (cli.given("--profile")) {
    cfg = trace::make_config(static_cast<std::size_t>(profile));
    cfg.duration_s = duration;
  } else {
    cfg.duration_s = duration;
    cfg.apply_defaults();
    if (lambda > 0.0) {
      cfg.flow_rate = lambda;
    } else {
      cfg.target_utilization_bps(mbps * 1e6);
    }
  }
  if (tcp_fraction >= 0.0) cfg.tcp_fraction = tcp_fraction;
  cfg.seed = seed;

  try {
    trace::GenerationReport rep;
    const auto packets = trace::generate_packets(cfg, &rep);
    if (ends_with(".pcap")) {
      trace::export_pcap(out_path, packets);
    } else if (ends_with(".csv")) {
      trace::export_csv(out_path, packets);
    } else {
      trace::write_trace(out_path, packets);
    }
    std::printf("%s: %llu packets, %llu flows, %.2f Mbps over %.1f s "
                "(seed %llu)\n",
                out_path.c_str(),
                static_cast<unsigned long long>(rep.packets),
                static_cast<unsigned long long>(rep.flows),
                rep.mean_rate_bps() / 1e6, cfg.duration_s,
                static_cast<unsigned long long>(seed));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
