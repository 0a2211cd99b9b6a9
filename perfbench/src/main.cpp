// perfbench — the repository benchmark's driver (one workload per process).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--speedup X] [--scenario FILE] [--workdir DIR]
//
// Sets the workload up three times (--trace 0) or once (--trace 1), then
// replays the generated input for at least --seconds and checks every
// replay's output. --trace 0 replays untraced and reports the end-to-end
// metrics; --trace 1 alternates untraced and traced replays and reports the
// per-layer metrics. Human-readable lines come first; the last line of
// standard output is one JSON object:
//   {"correct": b, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// run.py builds this program and validates that line against BENCHMARK.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/json_writer.hpp"
#include "measure.hpp"
#include "scenario/score.hpp"
#include "scenario/truth.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double speedup = 8.0;
  std::filesystem::path scenario = "perfbench/ddos.scn";
  std::filesystem::path workdir = ".bench_work";
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--speedup X] [--scenario FILE] "
               "[--workdir DIR]\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage();
        opt.trace = value == "1";
      } else if (arg == "--speedup") {
        opt.speedup = std::stod(value);
      } else if (arg == "--scenario") {
        opt.scenario = value;
      } else if (arg == "--workdir") {
        opt.workdir = value;
      } else {
        usage();
      }
    } catch (const std::logic_error&) {
      usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0.0)) usage();
  return opt;
}

/// Metrics in print order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!values_.contains(name)) order_.push_back(name);
    values_[name] = {value, unit};
  }
  void print_table() const {
    for (const auto& name : order_) {
      const auto& [value, unit] = values_.at(name);
      std::printf("  %-28s %16.6g %s\n", name.c_str(), value, unit.c_str());
    }
  }
  void write(fbm::core::JsonWriter& json) const {
    json.begin_object("metrics");
    for (const auto& name : order_) {
      const auto& [value, unit] = values_.at(name);
      json.begin_object(name).field("value", value).field("unit", unit);
      json.end_object();
    }
    json.end_object();
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Output checks of one replay against the expected window grid and the
/// packet totals. Returns the failed operations; adds the attempted window
/// reports to `attempted`.
std::size_t check_replay(const Workload& w, const Replay& r,
                         std::uint64_t& attempted) {
  const auto expected = static_cast<std::size_t>(
                            std::floor(r.last_ts / w.live.window_s)) +
                        1;
  attempted += expected * w.links;
  std::size_t failed = r.nonfinite + r.durability_errors;
  std::uint64_t routed = 0;
  for (const LinkStream& ls : r.links) {
    // Each link must report windows 0 .. expected-1, once each, in order.
    const std::size_t n = std::min(ls.windows.size(), expected);
    for (std::size_t i = 0; i < n; ++i) {
      if (ls.windows[i] != static_cast<std::int64_t>(i)) ++failed;
    }
    failed += std::max(ls.windows.size(), expected) - n;
    if (ls.report_packets != ls.routed_packets) ++failed;
    routed += ls.routed_packets;
  }
  if (routed != r.packets) ++failed;
  if (w.links > 1 && r.engine_packets != r.packets) ++failed;
  return failed;
}

/// Report streams of two replays that must agree, compared link by link;
/// returns the differing reports.
std::size_t compare_streams(const Replay& a, const Replay& b) {
  std::size_t diff = 0;
  for (std::size_t l = 0; l < a.links.size(); ++l) {
    const auto& x = a.links[l].line_hashes;
    const auto& y = b.links[l].line_hashes;
    const std::size_t n = std::min(x.size(), y.size());
    for (std::size_t i = 0; i < n; ++i) diff += x[i] != y[i] ? 1 : 0;
    diff += std::max(x.size(), y.size()) - n;
  }
  if (a.store_hash != b.store_hash) ++diff;
  return diff;
}

double obs_gauge(const fbm::obs::Snapshot& s, const std::string& key) {
  const auto* m = s.find(key);
  return m == nullptr ? 0.0 : m->gauge;
}

double link_skew(const Replay& r) {
  double max = 0.0;
  double sum = 0.0;
  for (const auto& ls : r.links) {
    max = std::max(max, static_cast<double>(ls.routed_packets));
    sum += static_cast<double>(ls.routed_packets);
  }
  return sum > 0.0 ? max / (sum / static_cast<double>(r.links.size())) : 0.0;
}

template <typename F>
double median_of(const std::vector<Replay>& reps, F&& f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const auto& r : reps) v.push_back(f(r));
  return median(v);
}

struct Lag {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 100.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Each link's report lag per window, the best over the replays, then the
/// p50 and tail over all links' windows: pooled over every replay, a few
/// slowed replays moved the p50 by a third between runs of the same code.
/// The tail percentile leaves ten of the samples the workload's minimum
/// number of replays pools beyond it, so it is the same in every run.
Lag best_lag(const Workload& w, const std::vector<Replay>& reps) {
  Lag lag;
  if (reps.empty()) return lag;
  std::vector<double> best;
  for (std::size_t l = 0; l < reps.front().links.size(); ++l) {
    std::vector<std::vector<double>> series;
    for (const auto& r : reps) series.push_back(r.links[l].lags_ms);
    const auto b = best_per_window(series);
    best.insert(best.end(), b.begin(), b.end());
  }
  if (best.empty()) return lag;
  lag.samples = best.size();
  lag.tail_pct = tail_percentile(best.size() * w.min_replays);
  lag.beyond = samples_beyond(best.size(), lag.tail_pct);
  lag.p50 = percentile(best, 50.0);
  lag.tail = percentile(std::move(best), lag.tail_pct);
  return lag;
}

struct Run {
  Workload w;
  Paths paths;
  std::vector<SetupTimes> setups;
  std::vector<Replay> plain;   ///< untraced replays
  std::vector<Replay> traced;
  std::uint64_t attempted = 0;
  std::size_t failed = 0;
  std::size_t exceptions = 0;
};

void replay_checked(Run& run, bool traced) {
  try {
    Replay r = run_replay(run.w, run.paths, traced);
    run.failed += check_replay(run.w, r, run.attempted);
    // Every replay of one input must produce the same per-link streams:
    // untraced ones across open-loop batch boundaries, traced ones against
    // untraced.
    const Replay* ref = !run.plain.empty()    ? &run.plain.front()
                        : !run.traced.empty() ? &run.traced.front()
                                              : nullptr;
    if (ref != nullptr) run.failed += compare_streams(*ref, r);
    (traced ? run.traced : run.plain).push_back(std::move(r));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: replay failed: %s\n", e.what());
    ++run.failed;
    ++run.exceptions;
  }
}

void end_to_end(const Run& run, Metrics& m) {
  const auto& reps = run.plain;
  std::vector<double> setup;
  for (const auto& s : run.setups) setup.push_back(s.generate_s + s.open_s);

  // Throughput and CPU per packet take the run's best replay: interference
  // from other tenants of a shared host only ever slows a replay, and it
  // moved whole replays of pop_16link between ~1.6 s and ~2.5 s within one
  // run, which a median over a handful of replays does not absorb.
  double pps = 0.0;
  double cpu_ns = std::numeric_limits<double>::infinity();
  for (const auto& r : reps) {
    const auto packets = static_cast<double>(r.packets);
    pps = std::max(pps, packets / r.wall_s);
    cpu_ns = std::min(cpu_ns, r.cpu_s * 1e9 / packets);
  }
  m.set("throughput_pps", pps, "packets/s");
  m.set("cpu_ns_per_packet", cpu_ns, "ns");
  m.set("setup_s", median(setup), "s");
  m.set("peak_rss_mb", process_usage().max_rss_mb, "MB");
}

void per_layer(const Run& run, Metrics& m) {
  const Workload& w = run.w;
  const auto& reps = run.traced;
  const Replay& first = reps.front();
  const double packets = static_cast<double>(first.packets);
  const double reports = static_cast<double>(first.layers.fit_ms.size());
  const auto med = [&](auto f) { return median_of(reps, f); };
  const auto layer = [&](double LayerTimes::*field) {
    return med([&](const Replay& r) { return r.layers.*field; });
  };
  const auto ns_per_packet = [&](double s) { return s * 1e9 / packets; };
  const auto pooled = [&](std::vector<double> LayerTimes::*field) {
    std::vector<double> all;
    for (const auto& r : reps) {
      all.insert(all.end(), (r.layers.*field).begin(), (r.layers.*field).end());
    }
    return all;
  };

  const double wall = med([](const Replay& r) { return r.wall_s; });
  const double plain_wall =
      median_of(run.plain, [](const Replay& r) { return r.wall_s; });
  const double awake =
      med([](const Replay& r) { return r.wall_s - r.layers.sleep; });
  const double read = layer(&LayerTimes::trace_read);
  const double ingest = layer(&LayerTimes::ingest);
  const double push = layer(&LayerTimes::engine_push);
  const double finish = layer(&LayerTimes::engine_finish);
  const double fit = layer(&LayerTimes::fit);
  const double render = layer(&LayerTimes::render);
  const double sink = layer(&LayerTimes::sink);
  const double store = layer(&LayerTimes::store);
  const double ckpt = layer(&LayerTimes::ckpt);
  const double replay = layer(&LayerTimes::replay);
  const double sleep = layer(&LayerTimes::sleep);
  // With a worker pool the windows close on the workers, off the driver
  // thread whose wall the other layers cover.
  const bool pool = w.threads > 1;
  const double attributed = read + ingest + push + finish + render + sink +
                            store + ckpt + replay + (pool ? 0.0 : fit);

  std::printf("\n  %-14s %10s %8s %10s\n", "layer", "self_s", "share",
              "ns/packet");
  const auto row = [&](const char* name, double s) {
    std::printf("  %-14s %10.4f %7.1f%% %10.1f\n", name, s,
                100.0 * s / awake, ns_per_packet(s));
  };
  row("trace", read);
  row("engine.push", push);
  row("engine.finish", finish);
  row("live.ingest", ingest);
  row(pool ? "live.close*" : "live.close", fit);
  row("live.render", render);
  row("replay.sink", sink);
  row("store", store);
  row("ckpt", ckpt);
  row("replay", replay);
  row("unattributed", awake - attributed);
  std::printf("  %-14s %10.4f (traced; untraced %.4f s, overhead %+.1f%%)\n",
              "wall", wall, plain_wall, 100.0 * (wall / plain_wall - 1.0));
  if (sleep > 0.0) {
    std::printf("  %-14s %10.4f (not in the shares)\n", "replay.sleep", sleep);
  }
  if (pool) {
    std::printf("  * on the %zu pool workers, not the driver thread\n",
                w.threads);
  }
  std::printf("\n");

  const auto fit_ms = pooled(&LayerTimes::fit_ms);
  const auto store_ms = pooled(&LayerTimes::store_ms);
  const auto ckpt_ms = pooled(&LayerTimes::ckpt_ms);
  std::vector<double> late_ms;
  for (const auto& r : reps) {
    late_ms.insert(late_ms.end(), r.late_ms.begin(), r.late_ms.end());
  }
  // The live path does not feed the registry's classify counters, so the
  // flow counts come from the reports: every discard is one single-packet
  // flow.
  const double emitted = static_cast<double>(first.flows);
  const double discarded = static_cast<double>(first.discards);
  const Lag lag = best_lag(w, run.plain);
  std::printf("  report lag per window is the best of %zu untraced replays; "
              "report_lag.tail_ms is p%g of %zu windows (%zu beyond it)\n\n",
              run.plain.size(), lag.tail_pct, lag.samples, lag.beyond);
  const auto per_report_ms = [&](double s) {
    return reports > 0.0 ? s * 1e3 / reports : 0.0;
  };

  m.set("trace.read_s", read, "s");
  m.set("trace.read_ns_per_packet", ns_per_packet(read), "ns");
  m.set("live.ingest_s", ingest, "s");
  m.set("live.ingest_ns_per_packet", ns_per_packet(ingest), "ns");
  m.set("live.active_flows_max", med([](const Replay& r) {
          return static_cast<double>(r.layers.active_flows_max);
        }), "flows");
  m.set("flow.packets_classified", packets, "packets");
  m.set("flow.flows_emitted", emitted, "flows");
  m.set("flow.flows_discarded", discarded, "flows");
  m.set("flow.useful_ratio",
        emitted + discarded > 0.0 ? emitted / (emitted + discarded) : 0.0,
        "ratio");
  m.set("flow.table_avg_probe", med([](const Replay& r) {
          return obs_gauge(r.obs,
                           "fbm_flow_table_avg_probe{pipeline=\"live\"}");
        }), "probes");
  m.set("engine.push_s", push, "s");
  m.set("engine.push_ns_per_packet", ns_per_packet(push), "ns");
  m.set("engine.finish_s", finish, "s");
  m.set("engine.backpressure_waits", med([](const Replay& r) {
          const auto* m = r.obs.find(
              "fbm_backpressure_waits_total{pool=\"engine\"}");
          return m == nullptr ? 0.0 : static_cast<double>(m->counter);
        }), "count");
  m.set("engine.link_skew", link_skew(first), "ratio");
  m.set("live.fit_s", fit, "s");
  m.set("live.fit_ms_p50", percentile(fit_ms, 50.0), "ms");
  m.set("live.fit_ms_tail", percentile(fit_ms, tail_percentile(fit_ms.size())),
        "ms");
  m.set("live.windows", reports, "windows");
  m.set("live.flows_per_window", reports > 0.0 ? emitted / reports : 0.0,
        "flows");
  m.set("live.render_s", render, "s");
  m.set("live.render_ms_per_report", per_report_ms(render), "ms");
  m.set("store.append_s", store, "s");
  m.set("store.append_ms_p50", percentile(store_ms, 50.0), "ms");
  m.set("store.bytes_per_record",
        store_ms.empty() ? 0.0
                         : static_cast<double>(first.store_bytes) /
                               static_cast<double>(first.layers.store_ms.size()),
        "bytes");
  m.set("ckpt.write_s", ckpt, "s");
  m.set("ckpt.write_ms_p50", percentile(ckpt_ms, 50.0), "ms");
  m.set("ckpt.bytes", static_cast<double>(first.layers.ckpt_bytes), "bytes");
  m.set("replay.self_s", replay, "s");
  m.set("replay.sink_s", sink, "s");
  m.set("replay.late_p50_ms", percentile(late_ms, 50.0), "ms");
  m.set("replay.late_max_ms", percentile(late_ms, 100.0), "ms");
  m.set("replay.idle_share", sleep / wall, "ratio");
  m.set("report_lag.p50_ms", lag.p50, "ms");
  m.set("report_lag.tail_ms", lag.tail, "ms");
  m.set("report_lag.tail_pct", lag.tail_pct, "%");
  m.set("report_lag.samples", static_cast<double>(lag.samples), "count");
  m.set("alert.count", static_cast<double>(first.alerts), "count");
  m.set("setup.generate_s", run.setups.front().generate_s, "s");
  m.set("setup.open_s", run.setups.front().open_s, "s");
  m.set("trace_overhead", wall / plain_wall - 1.0, "ratio");
  m.set("unattributed_share", 1.0 - attributed / awake, "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  Run run;
  try {
    run.w = make_workload(opt.workload, opt.speedup);
    run.paths = {opt.workdir / run.w.name, opt.scenario};
    std::filesystem::remove_all(run.paths.dir);
    std::filesystem::create_directories(run.paths.dir);

    const int setups = opt.trace ? 1 : 3;
    for (int i = 0; i < setups; ++i) {
      run.setups.push_back(set_up(run.w, run.paths, opt.seed));
    }
    // Measure for --seconds, and at least the workload's minimum number of
    // replays (per mode), so the tail percentile has its samples.
    const double start = now_s();
    for (std::size_t i = 0;; ++i) {
      const bool traced = opt.trace && i % 2 == 1;
      replay_checked(run, traced);
      if (run.exceptions > 0) break;
      const std::size_t done = opt.trace ? std::min(run.plain.size(),
                                                    run.traced.size())
                                         : run.plain.size();
      const std::size_t need = opt.trace ? 1 : run.w.min_replays;
      if (done >= need && now_s() - start >= opt.seconds) break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  bool correct = run.failed == 0;
  std::printf("perfbench %s seed=%llu trace=%d: %zu untraced + %zu traced "
              "replays of %llu packets\n",
              run.w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, run.plain.size(), run.traced.size(),
              run.plain.empty()
                  ? 0ULL
                  : static_cast<unsigned long long>(run.plain.front().packets));
  if (run.w.kind == Kind::ddos_live_durable && !run.plain.empty()) {
    const auto truth = fbm::scenario::load_truth(run.paths.truth());
    const auto score = fbm::scenario::score(truth, run.plain.front().observed);
    std::printf("  alert_precision %.3f, alert_recall %.3f (%zu alerts, "
                "%zu/%zu events; floor 0.9)\n",
                score.precision, score.recall, score.alerts,
                score.detected_events, score.events.size());
    correct = correct && score.precision >= 0.9 && score.recall >= 0.9;
  }
  for (const auto* reps : {&run.plain, &run.traced}) {
    if (reps->empty()) continue;
    std::printf("  %s replay walls (s):", reps == &run.plain ? "untraced"
                                                             : "traced");
    for (const auto& r : *reps) std::printf(" %.4f", r.wall_s);
    std::printf("\n");
  }
  std::printf("  failed_share %.6g (%zu failed of %llu window reports)\n",
              run.attempted > 0 ? static_cast<double>(run.failed) /
                                      static_cast<double>(run.attempted)
                                : 0.0,
              run.failed, static_cast<unsigned long long>(run.attempted));

  Metrics m;
  if (run.exceptions == 0) {
    if (opt.trace) {
      per_layer(run, m);
    } else {
      end_to_end(run, m);
    }
  }
  m.print_table();
  std::filesystem::remove_all(run.paths.dir);

  fbm::core::JsonWriter json(fbm::core::JsonWriter::Style::compact);
  json.begin_object()
      .field("correct", correct)
      .field("attempted", std::max<std::uint64_t>(run.attempted, 1))
      .field("failed", static_cast<std::uint64_t>(run.failed));
  m.write(json);
  json.end_object();
  std::printf("%s\n", std::move(json).str().c_str());
  return 0;
}
