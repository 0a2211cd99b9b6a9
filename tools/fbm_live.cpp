// fbm_live — continuous sliding-window monitoring of a packet trace.
//
// Usage: fbm_live <trace.fbmt|.pcap|.csv> [flags]; the flag list is the
// table in parse_args() (run with no arguments to print it).
//
// Streams the trace through the multi-link engine (engine::Engine, live
// mode): per sliding window the three model parameters, measured vs model
// rate, fitted shot, capacity plan, the rolling next-window forecast and the
// anomaly verdict. --json emits one JSON object per window (JSONL, schema in
// src/live/window_report.hpp); the default is a human-readable table with
// ALERT markers. --follow keeps polling the file for appended records
// (tail -f; .fbmt/.pcap only), stopping after --idle seconds without new
// data (default: forever). --max-windows stops after N reports either way
// (a restored run counts the checkpoint's reports too).
//
// Without --link the run is one match-all link rendered untagged: the
// single-link JSONL schema, a table without a link column. --link
// (repeatable) demuxes the stream to one engine link per spec instead
// (longest-prefix match for overlapping claims; NAME=all or NAME=* for a
// match-all aggregate) and every window report carries its link — a "link"
// name column, or a leading "link" JSONL field (schema pinned by the
// engine-smoke CI job). --threads N (0 = every core) means what it means in
// fbm_analyze: an untagged run is one link of N flow-key shards on N
// workers, a --link run is one shard per link on N workers. The output is
// byte-identical at every N.
//
// --emit-partial FILE switches to distributed-aggregation mode: no window
// is fitted, forecast or judged; each closed window's raw sufficient
// statistics stream to FILE as an agg::PartialReport for fbm_aggregate to
// merge and fit once — the merged JSONL is byte-identical to a
// single-machine run. --shard I/K keeps only the packets whose flow key
// hashes to shard I of K, so K such runs partition the stream by flow.
// Incompatible with --follow and --max-windows (a partial file is valid
// only once the stream ends cleanly and the end frame is written).
//
// Durable operations (src/ckpt/, src/store/):
//   --checkpoint FILE        snapshot the complete mid-stream state every
//                            --checkpoint-every N closed windows (default 1),
//                            atomically (tmp + rename). The file is an
//                            engine checkpoint (FBMC) with or without --link.
//   --restore FILE           resume from an engine checkpoint (a
//                            single-estimator file, which only library
//                            callers write, is refused): the config, link
//                            set and shard count (--threads, untagged) are
//                            validated against the file, the first
//                            <checkpointed packets> records of the trace are
//                            skipped, and the remaining output is
//                            byte-identical to the uninterrupted run's
//                            (stderr announces "resuming after N reports" —
//                            keep the killed run's first N lines and append).
//   --store FILE             append every finished window to a queryable
//                            on-disk report store (fbm_query reads it; a
//                            SIGKILL mid-append is recovered on reopen).
//
// Alert acceptance (src/scenario/): --truth FILE reads a truth log, as
// fbm_trace_gen --scenario writes next to the trace, and scores the windows
// the run prints against its events (scenario::score): precision, recall
// and detection latency, one summary line on stderr. --score FILE writes
// the score JSON (schema in src/scenario/score.hpp). --min-precision and
// --min-recall turn the run into a gate: exit 1 below either floor. A
// scored run must see the whole stream, so --truth refuses --emit-partial
// and --restore.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "cli.hpp"
#include "obs/catalog.hpp"
#include "scenario/score.hpp"
#include "scenario/truth.hpp"
#include "store/report_store.hpp"

namespace {

using fbm::tools::Kind;

struct Options {
  std::string path;
  fbm::tools::LiveOptions live;
  bool follow = false;
  double idle = 0.0;              // 0 = wait forever
  std::uint64_t max_windows = 0;  // 0 = unlimited
  std::string emit_partial;       // empty = fit locally
  fbm::tools::Shard shard;
  bool json = false;
  std::string checkpoint;              // empty = no checkpointing
  std::uint64_t checkpoint_every = 1;  // closed windows per checkpoint
  std::string restore;                 // empty = start fresh
  std::string store;                   // empty = no on-disk report store
  std::string truth;                   // empty = no alert scoring
  std::string score;                   // score JSON; empty = none
  double min_precision = -1.0;         // <0 = no floor
  double min_recall = -1.0;
  fbm::tools::MetricsOptions metrics;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  fbm::tools::Cli cli("fbm_live", "<trace.fbmt|.pcap|.csv>", &opt.path,
                      fbm::tools::live_flags(opt.live));
  cli.add({{"--follow", &opt.follow, Kind::flag, ""},
           {"--idle", &opt.idle, Kind::real, "S"},
           {"--max-windows", &opt.max_windows, Kind::count, "N"},
           {"--emit-partial", &opt.emit_partial, Kind::text, "FILE"},
           {"--shard", &opt.shard, Kind::shard, "I/K"},
           {"--json", &opt.json, Kind::flag, ""},
           {"--checkpoint", &opt.checkpoint, Kind::text, "FILE"},
           {"--checkpoint-every", &opt.checkpoint_every, Kind::count, "N"},
           {"--restore", &opt.restore, Kind::text, "FILE"},
           {"--store", &opt.store, Kind::text, "FILE"},
           {"--truth", &opt.truth, Kind::text, "FILE"},
           {"--score", &opt.score, Kind::text, "FILE"},
           {"--min-precision", &opt.min_precision, Kind::fraction, "P"},
           {"--min-recall", &opt.min_recall, Kind::fraction, "R"}})
      .add(fbm::tools::metrics_flags(opt.metrics))
      .parse(argc, argv);
  const bool partial = !opt.emit_partial.empty();
  if (opt.truth.empty() && (cli.given("--score") ||
                            cli.given("--min-precision") ||
                            cli.given("--min-recall"))) {
    cli.fail("--score/--min-precision/--min-recall score against --truth");
  }
  if (!opt.truth.empty() && (partial || !opt.restore.empty())) {
    cli.fail("--truth scores the windows this run prints; it cannot combine "
             "with --emit-partial or --restore");
  }
  if (opt.checkpoint_every == 0) cli.fail("--checkpoint-every wants N >= 1");
  if (opt.shard.count > 1 && !partial) {
    cli.fail("--shard only makes sense with --emit-partial (a fitted shard "
             "is not a fitted trace)");
  }
  if (opt.shard.count > 1 && !opt.live.analysis.links.empty()) {
    cli.fail("--shard partitions by flow key and cannot combine with --link "
             "demux; emit one multi-link partial instead");
  }
  if (partial && opt.follow) {
    cli.fail("--emit-partial needs a finite stream (the end frame seals the "
             "file); drop --follow");
  }
  if (partial && opt.max_windows > 0) {
    cli.fail("--emit-partial streams every window; drop --max-windows");
  }
  if (partial &&
      (!opt.checkpoint.empty() || !opt.restore.empty() || !opt.store.empty())) {
    cli.fail("--checkpoint/--restore/--store snapshot fitted state; "
             "--emit-partial defers fitting — they cannot combine");
  }
  return opt;
}

void print_human(const fbm::live::WindowReport& r, const char* link) {
  const char* mark = "";
  if (r.anomaly.alert) {
    mark = r.anomaly.kind == fbm::live::AlertKind::spike ? "  ALERT spike"
                                                         : "  ALERT drop";
  }
  if (link != nullptr) std::printf("%-10s ", link);
  if (r.forecast.available) {
    std::printf(
        "%6zu %8.1f %8zu %9.1f | %8.2f in [%7.2f, %7.2f] %+6.1fs%s\n",
        r.window_index, r.start_s, r.inputs.flows, r.inputs.lambda,
        r.measured.mean_bps / 1e6, r.forecast.band_low_bps / 1e6,
        r.forecast.band_high_bps / 1e6, r.anomaly.deviation_sigma, mark);
  } else {
    std::printf("%6zu %8.1f %8zu %9.1f | %8.2f (warming up)%s\n",
                r.window_index, r.start_s, r.inputs.flows, r.inputs.lambda,
                r.measured.mean_bps / 1e6, mark);
  }
}

/// Drains the source into `push` a batch at a time (the configured
/// analysis batch size), with --follow/--idle polling; `done` flips when
/// --max-windows is reached. `push` gets the batch mutable, so it can
/// filter it in place. `idle_tick` runs before each quiet sleep (the engine
/// flushes its demux buffers there, so a stalled stream still delivers and
/// checkpoints buffered windows). `metrics` is ticked every few thousand
/// packets and on every idle poll; in --follow mode each tick also
/// refreshes the window-lag gauge (wall clock minus the newest packet
/// timestamp).
template <typename Push, typename IdleTick>
void drain(fbm::api::TraceSource& source, const Options& opt,
           std::size_t batch_packets, const std::atomic<bool>& done,
           fbm::obs::MetricsExporter& metrics, Push&& push,
           IdleTick&& idle_tick) {
  const auto poll = std::chrono::milliseconds(50);
  double idle_s = 0.0;
  std::uint64_t seen = 0;
  double newest_ts = 0.0;
  const auto metrics_tick = [&] {
    if (!metrics.active()) return;
    if (opt.follow && seen > 0 && fbm::obs::enabled()) {
      const double wall_s =
          std::chrono::duration<double>(
              std::chrono::system_clock::now().time_since_epoch())
              .count();
      fbm::obs::live_window_lag_s().set(wall_s - newest_ts);
    }
    metrics.tick();
  };
  fbm::net::PacketBatch batch;
  while (!done) {
    if (source.next_batch(batch, batch_packets) > 0) {
      newest_ts = batch.timestamps.back();
      const std::uint64_t before = seen;
      seen += batch.size();
      push(batch);
      idle_s = 0.0;
      if ((before >> 12) != (seen >> 12)) metrics_tick();
      continue;
    }
    if (!opt.follow) break;
    if (opt.idle > 0.0 && idle_s >= opt.idle) break;
    idle_tick();
    metrics_tick();
    std::this_thread::sleep_for(poll);
    idle_s += 0.05;
  }
}

/// Scores the printed windows against the truth log: the summary on
/// stderr, the score JSON to --score. Returns 1 when a floor is missed.
int score_run(const Options& opt, const fbm::scenario::TruthLog& truth,
              const std::vector<fbm::scenario::ObservedWindow>& observed) {
  using namespace fbm;
  scenario::ScoreReport result;
  {
    obs::StageSpan span(obs::stage_seconds(obs::kStageScenarioScore));
    result = scenario::score(truth, observed);
  }
  obs::scenario_alerts("tp").add(result.true_positives);
  obs::scenario_alerts("fp").add(result.false_positives);
  obs::scenario_alerts("ignored").add(result.ignored_alerts);
  if (!opt.score.empty()) {
    std::ofstream out(opt.score, std::ios::trunc);
    out << scenario::to_json(result) << "\n";
    if (!out) throw std::runtime_error("cannot write " + opt.score);
  }
  std::fprintf(stderr,
               "%s: %zu windows, %zu alerts -> precision %.3f recall %.3f "
               "(%zu/%zu events)\n",
               truth.scenario.c_str(), result.windows, result.alerts,
               result.precision, result.recall, result.detected_events,
               result.events.size());
  int status = 0;
  if (opt.min_precision >= 0.0 && result.precision < opt.min_precision) {
    std::fprintf(stderr, "gate: precision %.3f < floor %.3f\n",
                 result.precision, opt.min_precision);
    status = 1;
  }
  if (opt.min_recall >= 0.0 && result.recall < opt.min_recall) {
    std::fprintf(stderr, "gate: recall %.3f < floor %.3f\n", result.recall,
                 opt.min_recall);
    status = 1;
  }
  return status;
}

int run(const Options& opt) {
  using namespace fbm;
  auto source = api::open_trace(opt.path, opt.follow);
  obs::MetricsExporter metrics = tools::make_metrics_exporter(opt.metrics);
  tools::MetricsFinishGuard metrics_guard(metrics);
  std::optional<scenario::TruthLog> truth;
  if (!opt.truth.empty()) {
    truth = scenario::load_truth(opt.truth);
    for (const auto& e : truth->events) {
      obs::scenario_events(std::string(live::to_string(e.kind))).add(1);
    }
  }

  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live = opt.live.config();
  const auto& links = opt.live.analysis.links;
  const bool tagged = !links.empty();
  config.threads = opt.live.analysis.threads;
  config.shards = tagged ? 1 : opt.live.analysis.threads;
  const std::size_t batch_packets = config.live.analysis.batch_packets();

  // The sinks run on pool workers under --threads, possibly until ~Engine
  // joins them — so the state they capture is declared before the engine
  // (destroyed after it). The drain loop polls `done` from the caller.
  // Counters are atomic: workers bump them while the caller reads them.
  std::atomic<bool> done{false};
  std::atomic<bool> stopped{false};       // the drain ended at --max-windows
  std::atomic<std::uint64_t> closed{0};   // windows closed, restored ones too
  std::atomic<std::uint64_t> flows{0};    // their flows
  std::atomic<std::uint64_t> printed{0};  // windows this run printed
  std::vector<scenario::ObservedWindow> observed;  // with --truth
  std::unique_ptr<agg::PartialWriter> writer;
  std::unique_ptr<store::StoreWriter> store_writer;
  engine::Engine eng(config);

  if (!opt.emit_partial.empty()) {
    // Distributed mode: every link's closed windows stream to the writer as
    // raw partials; nothing is fitted, forecast or judged here.
    eng.set_partial_sink([&](engine::LinkId link, const std::string&,
                             live::WindowPartial&& partial) {
      writer->add(static_cast<std::uint32_t>(link), partial);
    });
  }
  // The run's config identity: the live knobs plus the link set, so a
  // merge or restore under different links or knobs is refused with a
  // field-naming diagnostic.
  const agg::PartialMeta meta = tools::attach_links(
      eng, links, agg::PartialMeta::from_live(config.live));

  if (!opt.emit_partial.empty()) {
    writer = std::make_unique<agg::PartialWriter>(opt.emit_partial, meta);
    drain(
        *source, opt, batch_packets, done, metrics,
        [&](net::PacketBatch& b) {
          tools::keep_shard(b, config.live.analysis.flow_definition(),
                            opt.shard);
          eng.push_batch(b);
        },
        [&] { eng.flush(); });
    eng.finish();
    // An empty shard is legitimate: a small trace may hash every flow
    // elsewhere, and the merger folds its partial as a no-op.
    if (eng.summary().packets == 0 && opt.shard.count <= 1) {
      return tools::no_packets(opt.path);
    }
    const auto link_totals =
        tagged ? eng.links() : std::vector<engine::LinkInfo>{};
    tools::finish_partials(*writer, eng.summary(), link_totals, "window",
                           opt.emit_partial);
    return 0;
  }

  // Durable operations: the report store persists each finished window the
  // moment it is printed; restore rebuilds the engine from a checkpoint and
  // skips the packets it had already consumed.
  if (!opt.store.empty()) {
    store_writer = std::make_unique<store::StoreWriter>(opt.store);
  }
  std::uint64_t skip = 0;
  if (!opt.restore.empty()) {
    const ckpt::Checkpoint ck = ckpt::read_checkpoint(opt.restore);
    if (ck.kind != ckpt::CheckpointKind::engine) {
      std::fprintf(stderr,
                   "error: %s is a single-estimator checkpoint; fbm_live "
                   "resumes engine checkpoints only\n",
                   opt.restore.c_str());
      return 1;
    }
    agg::check_compatible(ck.meta, meta);
    eng.restore_state(ck.engine);
    skip = ck.packets_consumed();
    closed = ck.reports_emitted();
    for (const auto& s : ck.engine.sessions) {
      for (const auto& shard : s.shards) flows += shard.counters.flows;
    }
    std::fprintf(stderr, "resuming after %llu reports (%llu packets) from %s\n",
                 static_cast<unsigned long long>(ck.reports_emitted()),
                 static_cast<unsigned long long>(skip), opt.restore.c_str());
  }

  eng.set_report_sink([&](engine::LinkReport&& r) {
    // Windows the final flush closes after --max-windows tripped are not
    // counted; the ones closed by the batch that tripped it are.
    if (stopped) return;
    ++closed;
    flows += r.window->inputs.flows;
    // One batch can close many windows at once (a quiet gap in the stream,
    // or just a long batch); stop printing the moment the cap is reached.
    if (done) return;
    if (opt.json) {
      const std::string line =
          tagged ? engine::to_jsonl(r) : live::to_jsonl(*r.window);
      std::printf("%s\n", line.c_str());
    } else {
      print_human(*r.window, tagged ? r.name.c_str() : nullptr);
    }
    std::fflush(stdout);
    if (truth) {
      observed.push_back(tagged ? scenario::observe(*r.window, r.name)
                                : scenario::observe(*r.window));
    }
    if (store_writer) {
      store_writer->append({static_cast<std::uint32_t>(r.link), tagged,
                            tagged ? r.name : std::string(),
                            std::move(*r.window)});
    }
    ++printed;
    if (opt.max_windows > 0 && closed >= opt.max_windows) done = true;
  });

  // Checkpoints are cut between batches (never inside the sink — a shard
  // is mid-mutation there), after the sink has printed and flushed every
  // window the snapshot counts as delivered. save_state() quiesces the
  // pool, so the snapshot is a consistent cut.
  std::uint64_t last_ckpt = closed;
  const auto maybe_checkpoint = [&] {
    if (opt.checkpoint.empty() || done) return;
    const std::uint64_t w = closed;
    if (w - last_ckpt < opt.checkpoint_every) return;
    ckpt::write_checkpoint(opt.checkpoint, meta, eng.save_state());
    last_ckpt = w;
  };

  if (!opt.json) {
    if (tagged) std::printf("%-10s ", "link");
    std::printf("%6s %8s %8s %9s | %s\n", "window", "t0", "flows", "lambda",
                "measured Mbps vs forecast band");
  }
  drain(
      *source, opt, batch_packets, done, metrics,
      [&](net::PacketBatch& b) {
        skip -= tools::drop_front(b, skip);
        if (b.empty()) return;
        eng.push_batch(b);
        maybe_checkpoint();
      },
      [&] {
        // A quiet stream's buffered windows close on this flush; with a
        // pool they are counted once the workers fold them, so a later
        // idle tick checkpoints them.
        eng.flush();
        maybe_checkpoint();
      });
  stopped = done.load();
  if (!stopped && !opt.checkpoint.empty()) {
    // With a pool the reader runs ahead of the workers, so the last pushes
    // may have closed windows no maybe_checkpoint() saw counted. save_state()
    // quiesces the pool first, which settles `closed`.
    const engine::EngineState state = eng.save_state();
    if (closed - last_ckpt >= opt.checkpoint_every) {
      ckpt::write_checkpoint(opt.checkpoint, meta, state);
    }
  }
  // Unconditional: it joins the pool workers (the sink drops what they still
  // report once `stopped`), so the footer below reads settled counters.
  eng.finish();

  if (eng.summary().packets == 0) return tools::no_packets(opt.path);
  const auto packets = static_cast<unsigned long long>(eng.summary().packets);
  if (!opt.json && !tagged) {
    std::printf("\n%llu windows, %llu packets, %llu flows\n",
                static_cast<unsigned long long>(closed), packets,
                static_cast<unsigned long long>(flows));
  } else if (!opt.json) {
    std::printf("\n%llu windows over %zu links, %llu packets\n",
                static_cast<unsigned long long>(printed), links.size(),
                packets);
    for (const auto& link : eng.links()) {
      std::printf("  %-10s %llu packets, %llu windows\n", link.name.c_str(),
                  static_cast<unsigned long long>(link.counters.packets),
                  static_cast<unsigned long long>(link.counters.reports));
    }
  }
  return truth ? score_run(opt, *truth, observed) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
