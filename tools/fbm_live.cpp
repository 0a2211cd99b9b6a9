// fbm_live — continuous sliding-window monitoring of a packet trace.
//
// Usage:
//   fbm_live <trace.fbmt|.pcap|.csv> [--window S] [--stride S] [--timeout S]
//            [--delta S] [--prefix24] [--eps P] [--k-sigma K] [--max-order M]
//            [--consecutive N] [--warmup N] [--follow] [--idle S]
//            [--max-windows N]
//            [--link NAME=PREFIX[,PREFIX...] ...] [--threads N]
//            [--emit-partial FILE] [--shard I/K] [--json]
//            [--checkpoint FILE] [--checkpoint-every N] [--restore FILE]
//            [--store FILE] [--metrics FILE] [--metrics-every S]
//            [--metrics-prom FILE]
//
// Streams the trace through live::WindowedEstimator: per sliding window the
// three model parameters, measured vs model rate, fitted shot, capacity
// plan, the rolling next-window forecast and the anomaly verdict. --json
// emits one JSON object per window (JSONL, schema in
// src/live/window_report.hpp); the default is a human-readable table with
// ALERT markers. --follow keeps polling the file for appended records
// (tail -f; .fbmt/.pcap only), stopping after --idle seconds without new
// data (default: forever). --max-windows stops after N reports either way.
//
// --link (repeatable) switches to the multi-link engine: the stream is
// demuxed to one session per link (longest-prefix match for overlapping
// claims; NAME=all or NAME=* for a match-all aggregate) and every window
// report carries its link — a "link" name column, or a leading "link" JSONL
// field (schema pinned by the engine-smoke CI job). --threads N spreads the
// sessions over a worker pool (0 = every core).
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
//                            atomically (tmp + rename). Works in both the
//                            single-estimator and --link engine modes.
//   --restore FILE           resume from a checkpoint: the config is
//                            validated against the file's meta, the first
//                            <checkpointed packets> records of the trace are
//                            skipped, and the remaining output is
//                            byte-identical to the uninterrupted run's
//                            (stderr announces "resuming after N reports" —
//                            keep the killed run's first N lines and append).
//   --store FILE             append every finished window to a queryable
//                            on-disk report store (fbm_query reads it; a
//                            SIGKILL mid-append is recovered on reopen).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "agg/agg.hpp"
#include "api/api.hpp"
#include "batch_filter.hpp"
#include "ckpt/checkpoint.hpp"
#include "live/live.hpp"
#include "metrics_cli.hpp"
#include "obs/catalog.hpp"
#include "store/report_store.hpp"
#include "trace/trace_stats.hpp"

namespace {

struct Options {
  std::string path;
  double window = 60.0;
  double stride = 0.0;  // 0 = window
  double timeout = 60.0;
  double delta = fbm::measure::kPaperDelta;
  bool prefix24 = false;
  double eps = 0.01;
  double k_sigma = 3.0;
  std::size_t max_order = 8;
  std::size_t consecutive = 1;
  std::size_t warmup = 0;  ///< windows unjudged while the forecaster settles
  bool follow = false;
  double idle = 0.0;  // 0 = wait forever
  std::uint64_t max_windows = 0;  // 0 = unlimited
  std::vector<std::string> links;  // empty = single-link estimator
  std::size_t threads = 1;
  std::string emit_partial;  // empty = fit locally
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  bool json = false;
  std::string checkpoint;  // empty = no checkpointing
  std::uint64_t checkpoint_every = 1;  // closed windows per checkpoint
  std::string restore;     // empty = start fresh
  std::string store;       // empty = no on-disk report store
  fbm::tools::MetricsOptions metrics;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: fbm_live <trace.fbmt|.pcap|.csv> [--window S] [--stride S] "
      "[--timeout S] [--delta S] [--prefix24] [--eps P] [--k-sigma K] "
      "[--max-order M] [--consecutive N] [--warmup N] [--follow] [--idle S] "
      "[--max-windows N] [--link NAME=PREFIX[,PREFIX...]] [--threads N] "
      "[--emit-partial FILE] [--shard I/K] [--json] [--checkpoint FILE] "
      "[--checkpoint-every N] [--restore FILE] [--store FILE] "
      "[--metrics FILE] [--metrics-every S] [--metrics-prom FILE]\n");
  std::exit(2);
}

/// Parses "--shard I/K" (0-based I < K). Exits through usage() on malformed
/// input.
void parse_shard(const std::string& text, Options& opt) {
  const auto slash = text.find('/');
  std::size_t index = 0;
  std::size_t count = 0;
  try {
    if (slash == std::string::npos) throw std::invalid_argument(text);
    index = std::stoul(text.substr(0, slash));
    count = std::stoul(text.substr(slash + 1));
  } catch (const std::exception&) {
    std::fprintf(stderr, "--shard wants I/K (e.g. 0/4), got \"%s\"\n",
                 text.c_str());
    usage();
  }
  if (count == 0 || count > 1024 || index >= count) {
    std::fprintf(stderr,
                 "--shard %s out of range (need 0 <= I < K <= 1024)\n",
                 text.c_str());
    usage();
  }
  opt.shard_index = index;
  opt.shard_count = count;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> double {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage();
      }
      return std::atof(argv[++i]);
    };
    if (arg == "--window") {
      opt.window = need_value("--window");
    } else if (arg == "--stride") {
      opt.stride = need_value("--stride");
    } else if (arg == "--timeout") {
      opt.timeout = need_value("--timeout");
    } else if (arg == "--delta") {
      opt.delta = need_value("--delta");
    } else if (arg == "--eps") {
      opt.eps = need_value("--eps");
    } else if (arg == "--k-sigma") {
      opt.k_sigma = need_value("--k-sigma");
    } else if (arg == "--max-order") {
      opt.max_order = fbm::tools::to_count(need_value("--max-order"),
                                           "--max-order", usage);
    } else if (arg == "--consecutive") {
      opt.consecutive = fbm::tools::to_count(need_value("--consecutive"),
                                             "--consecutive", usage);
    } else if (arg == "--warmup") {
      opt.warmup =
          fbm::tools::to_count(need_value("--warmup"), "--warmup", usage);
    } else if (arg == "--idle") {
      opt.idle = need_value("--idle");
    } else if (arg == "--max-windows") {
      opt.max_windows = fbm::tools::to_count(need_value("--max-windows"),
                                             "--max-windows", usage);
    } else if (arg == "--link") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --link\n");
        usage();
      }
      opt.links.emplace_back(argv[++i]);
    } else if (arg == "--threads") {
      opt.threads = fbm::tools::to_threads(need_value("--threads"), usage);
    } else if (arg == "--emit-partial") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --emit-partial\n");
        usage();
      }
      opt.emit_partial = argv[++i];
    } else if (arg == "--shard") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --shard\n");
        usage();
      }
      parse_shard(argv[++i], opt);
    } else if (arg == "--checkpoint") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --checkpoint\n");
        usage();
      }
      opt.checkpoint = argv[++i];
    } else if (arg == "--checkpoint-every") {
      const double v = need_value("--checkpoint-every");
      if (!(v >= 1.0)) {
        std::fprintf(stderr, "--checkpoint-every wants N >= 1\n");
        usage();
      }
      opt.checkpoint_every = static_cast<std::uint64_t>(v);
    } else if (arg == "--restore") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --restore\n");
        usage();
      }
      opt.restore = argv[++i];
    } else if (arg == "--store") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --store\n");
        usage();
      }
      opt.store = argv[++i];
    } else if (fbm::tools::parse_metrics_flag(argc, argv, i, opt.metrics,
                                              usage)) {
      // consumed --metrics / --metrics-every / --metrics-prom
    } else if (arg == "--prefix24") {
      opt.prefix24 = true;
    } else if (arg == "--follow") {
      opt.follow = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      usage();
    } else if (opt.path.empty()) {
      opt.path = arg;
    } else {
      usage();
    }
  }
  if (opt.path.empty()) usage();
  if (opt.threads != 1 && opt.links.empty()) {
    std::fprintf(stderr,
                 "--threads sizes the multi-link worker pool; give at least "
                 "one --link\n");
    usage();
  }
  if (opt.shard_count > 1 && opt.emit_partial.empty()) {
    std::fprintf(stderr,
                 "--shard only makes sense with --emit-partial (a fitted "
                 "shard is not a fitted trace)\n");
    usage();
  }
  if (opt.shard_count > 1 && !opt.links.empty()) {
    std::fprintf(stderr,
                 "--shard partitions by flow key and cannot combine with "
                 "--link demux; emit one multi-link partial instead\n");
    usage();
  }
  if (!opt.emit_partial.empty() && opt.follow) {
    std::fprintf(stderr,
                 "--emit-partial needs a finite stream (the end frame seals "
                 "the file); drop --follow\n");
    usage();
  }
  if (!opt.emit_partial.empty() && opt.max_windows > 0) {
    std::fprintf(stderr,
                 "--emit-partial streams every window; drop --max-windows\n");
    usage();
  }
  if (!opt.emit_partial.empty() &&
      (!opt.checkpoint.empty() || !opt.restore.empty() ||
       !opt.store.empty())) {
    std::fprintf(stderr,
                 "--checkpoint/--restore/--store snapshot fitted state; "
                 "--emit-partial defers fitting — they cannot combine\n");
    usage();
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

fbm::live::LiveConfig make_live_config(const Options& opt) {
  using namespace fbm;
  live::LiveConfig config;
  config.window_s = opt.window;
  config.stride_s = opt.stride;
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
  return config;
}

/// Drains the source into `push` a batch at a time (the configured
/// analysis batch size), with --follow/--idle polling; `done` flips when
/// --max-windows is reached. `push` gets the batch mutable, so it can
/// filter it in place. `idle_tick` runs before each quiet sleep (the engine
/// flushes its demux buffers there, so a stalled stream still delivers
/// buffered windows). `metrics` is ticked every few thousand packets and
/// on every idle poll; in --follow mode each tick also refreshes the
/// window-lag gauge (wall clock minus the newest packet timestamp).
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

int run_single(const Options& opt) {
  using namespace fbm;
  auto source = api::open_trace(opt.path, opt.follow);
  const live::LiveConfig config = make_live_config(opt);
  live::WindowedEstimator estimator(config);
  const std::size_t batch_packets = config.analysis.batch_packets();
  obs::MetricsExporter metrics = tools::make_metrics_exporter(opt.metrics);
  tools::MetricsFinishGuard metrics_guard(metrics);

  // Distributed mode: raw window partials stream to the writer instead of
  // being fitted; the shard's trace totals accumulate at the push site
  // (the estimator counts packets but not timestamps) for the end frame.
  std::unique_ptr<agg::PartialWriter> writer;
  trace::TraceSummary shard_summary;
  if (!opt.emit_partial.empty()) {
    writer = std::make_unique<agg::PartialWriter>(
        opt.emit_partial, agg::PartialMeta::from_live(config));
    estimator.set_partial_sink(
        [&](live::WindowPartial&& partial) { writer->add(0, partial); });

    std::atomic<bool> done{false};
    drain(
        *source, opt, batch_packets, done, metrics,
        [&](net::PacketBatch& b) {
          tools::keep_shard(b, config.analysis.flow_definition(),
                            opt.shard_index, opt.shard_count);
          if (b.empty()) return;
          estimator.push_batch(b);
          shard_summary.add(b);
        },
        [] {});
    estimator.finish();
    if (shard_summary.packets == 0 && opt.shard_count <= 1) {
      std::fprintf(stderr, "error: no packets in %s\n", opt.path.c_str());
      return 1;
    }
    writer->finish({shard_summary, {}});
    std::fprintf(stderr, "wrote %llu window partials to %s\n",
                 static_cast<unsigned long long>(writer->windows_written()),
                 opt.emit_partial.c_str());
    return 0;
  }

  // Durable operations: the report store persists each finished window the
  // moment it is printed; restore rebuilds the estimator from a checkpoint
  // and skips the packets it had already consumed.
  std::unique_ptr<store::StoreWriter> store_writer;
  if (!opt.store.empty()) {
    store_writer = std::make_unique<store::StoreWriter>(opt.store);
  }
  std::uint64_t skip = 0;
  if (!opt.restore.empty()) {
    const ckpt::Checkpoint ck = ckpt::read_checkpoint(opt.restore);
    if (ck.kind != ckpt::CheckpointKind::estimator) {
      std::fprintf(stderr,
                   "error: %s is an engine checkpoint; pass its --link "
                   "set to resume it\n",
                   opt.restore.c_str());
      return 1;
    }
    agg::check_compatible(ck.meta, agg::PartialMeta::from_live(config));
    estimator.restore_state(ck.estimator);
    skip = ck.packets_consumed();
    std::fprintf(stderr, "resuming after %llu reports (%llu packets) from %s\n",
                 static_cast<unsigned long long>(ck.reports_emitted()),
                 static_cast<unsigned long long>(skip), opt.restore.c_str());
  }

  std::atomic<bool> done{false};
  estimator.set_window_sink([&](live::WindowReport&& r) {
    // One batch can close many windows at once (a quiet gap in the
    // stream, or just a long batch); stop printing the moment the cap is
    // reached, not just at the next outer-loop check.
    if (done) return;
    if (opt.json) {
      std::printf("%s\n", live::to_jsonl(r).c_str());
    } else {
      print_human(r, nullptr);
    }
    std::fflush(stdout);
    if (store_writer) store_writer->append({0, false, "", std::move(r)});
    if (opt.max_windows > 0 &&
        estimator.counters().windows >= opt.max_windows) {
      done = true;
    }
  });

  // Checkpoints are cut between batches (never inside the sink — the
  // estimator is mid-mutation there), after the sink has printed and
  // flushed every window the snapshot counts as delivered.
  std::uint64_t last_ckpt = estimator.counters().windows;
  const auto maybe_checkpoint = [&] {
    if (opt.checkpoint.empty() || done) return;
    const std::uint64_t w = estimator.counters().windows;
    if (w - last_ckpt < opt.checkpoint_every) return;
    ckpt::write_checkpoint(opt.checkpoint, agg::PartialMeta::from_live(config),
                           estimator.save_state());
    last_ckpt = w;
  };

  if (!opt.json) {
    std::printf("%6s %8s %8s %9s | %s\n", "window", "t0", "flows",
                "lambda", "measured Mbps vs forecast band");
  }
  drain(
      *source, opt, batch_packets, done, metrics,
      [&](net::PacketBatch& b) {
        skip -= tools::drop_front(b, skip);
        if (b.empty()) return;
        estimator.push_batch(b);
        maybe_checkpoint();
      },
      [] {});
  if (!done) estimator.finish();

  if (estimator.counters().packets == 0) {
    std::fprintf(stderr, "error: no packets in %s\n", opt.path.c_str());
    return 1;
  }
  if (!opt.json) {
    const auto& c = estimator.counters();
    std::printf("\n%llu windows, %llu packets, %llu flows\n",
                static_cast<unsigned long long>(c.windows),
                static_cast<unsigned long long>(c.packets),
                static_cast<unsigned long long>(c.flows));
  }
  return 0;
}

int run_engine(const Options& opt) {
  using namespace fbm;
  auto source = api::open_trace(opt.path, opt.follow);
  obs::MetricsExporter metrics = tools::make_metrics_exporter(opt.metrics);
  tools::MetricsFinishGuard metrics_guard(metrics);

  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live = make_live_config(opt);
  config.threads = opt.threads;
  const std::size_t batch_packets = config.live.analysis.batch_packets();

  // The sink runs on pool workers under --threads, possibly until ~Engine
  // joins them — so the state it captures is declared before the engine
  // (destroyed after it). The drain loop polls `done` from the caller.
  std::atomic<bool> done{false};
  // Atomic: pool workers bump it in the report sink while the demux thread
  // reads it for the --max-windows cap and the checkpoint trigger.
  std::atomic<std::uint64_t> windows{0};

  std::unique_ptr<agg::PartialWriter> writer;
  engine::Engine eng(config);
  if (!opt.emit_partial.empty()) {
    // Distributed mode: declare the link set in the meta frame, stream
    // every link's closed windows as window frames, fit nothing.
    std::vector<engine::LinkSpec> specs;
    specs.reserve(opt.links.size());
    for (const auto& text : opt.links) {
      specs.push_back(engine::parse_link_spec(text));
    }
    agg::PartialMeta meta = agg::PartialMeta::from_live(config.live);
    meta.engine = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      meta.links.push_back({static_cast<std::uint32_t>(i), specs[i].name});
    }
    writer = std::make_unique<agg::PartialWriter>(opt.emit_partial,
                                                  std::move(meta));
    eng.set_partial_sink([&](engine::LinkId link, const std::string&,
                             live::WindowPartial&& partial) {
      writer->add(static_cast<std::uint32_t>(link), partial);
    });
    for (auto& spec : specs) (void)eng.attach(std::move(spec));

    drain(
        *source, opt, batch_packets, done, metrics,
        [&](const net::PacketBatch& b) { eng.push_batch(b); },
        [&] { eng.flush(); });
    eng.finish();
    if (eng.summary().packets == 0) {
      std::fprintf(stderr, "error: no packets in %s\n", opt.path.c_str());
      return 1;
    }
    agg::PartialTotals totals;
    totals.summary = eng.summary();
    for (const auto& link : eng.links()) {
      totals.links.push_back({static_cast<std::uint32_t>(link.id),
                              link.counters.packets, link.counters.bytes});
    }
    writer->finish(totals);
    std::fprintf(stderr, "wrote %llu window partials for %zu links to %s\n",
                 static_cast<unsigned long long>(writer->windows_written()),
                 opt.links.size(), opt.emit_partial.c_str());
    return 0;
  }
  // The engine's config identity for checkpoints: the live knobs plus the
  // link set, so a restore under different links or knobs is refused with a
  // field-naming diagnostic.
  std::vector<engine::LinkSpec> specs;
  specs.reserve(opt.links.size());
  for (const auto& text : opt.links) {
    specs.push_back(engine::parse_link_spec(text));
  }
  agg::PartialMeta ckpt_meta = agg::PartialMeta::from_live(config.live);
  ckpt_meta.engine = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ckpt_meta.links.push_back({static_cast<std::uint32_t>(i), specs[i].name});
  }
  for (auto& spec : specs) (void)eng.attach(std::move(spec));

  std::unique_ptr<store::StoreWriter> store_writer;
  if (!opt.store.empty()) {
    store_writer = std::make_unique<store::StoreWriter>(opt.store);
  }
  std::uint64_t skip = 0;
  if (!opt.restore.empty()) {
    const ckpt::Checkpoint ck = ckpt::read_checkpoint(opt.restore);
    if (ck.kind != ckpt::CheckpointKind::engine) {
      std::fprintf(stderr,
                   "error: %s is a single-estimator checkpoint; drop the "
                   "--link flags to resume it\n",
                   opt.restore.c_str());
      return 1;
    }
    agg::check_compatible(ck.meta, ckpt_meta);
    eng.restore_state(ck.engine);
    skip = ck.packets_consumed();
    std::fprintf(stderr, "resuming after %llu reports (%llu packets) from %s\n",
                 static_cast<unsigned long long>(ck.reports_emitted()),
                 static_cast<unsigned long long>(skip), opt.restore.c_str());
  }

  eng.set_report_sink([&](engine::LinkReport&& r) {
    if (done) return;
    if (opt.json) {
      std::printf("%s\n", engine::to_jsonl(r).c_str());
    } else {
      print_human(*r.window, r.name.c_str());
    }
    std::fflush(stdout);
    if (store_writer) {
      store_writer->append({static_cast<std::uint32_t>(r.link), true, r.name,
                            std::move(*r.window)});
    }
    ++windows;
    if (opt.max_windows > 0 && windows >= opt.max_windows) done = true;
  });

  // Between-batch checkpoint trigger; `windows` is atomic because pool
  // workers bump it in the sink while the demux thread reads it here.
  // save_state() quiesces the pool, so the snapshot is a consistent cut.
  std::uint64_t last_ckpt = windows.load();
  const auto maybe_checkpoint = [&] {
    if (opt.checkpoint.empty() || done) return;
    const std::uint64_t w = windows.load();
    if (w - last_ckpt < opt.checkpoint_every) return;
    ckpt::write_checkpoint(opt.checkpoint, ckpt_meta, eng.save_state());
    last_ckpt = w;
  };

  if (!opt.json) {
    std::printf("%-10s %6s %8s %8s %9s | %s\n", "link", "window", "t0",
                "flows", "lambda", "measured Mbps vs forecast band");
  }
  drain(
      *source, opt, batch_packets, done, metrics,
      [&](net::PacketBatch& b) {
        skip -= tools::drop_front(b, skip);
        if (b.empty()) return;
        eng.push_batch(b);
        maybe_checkpoint();
      },
      [&] { eng.flush(); });
  // Unconditional: when --max-windows tripped, finish() joins the pool
  // workers (the sink drops further reports via `done`) so the footer below
  // reads the counters race-free.
  eng.finish();

  if (eng.summary().packets == 0) {
    std::fprintf(stderr, "error: no packets in %s\n", opt.path.c_str());
    return 1;
  }
  if (!opt.json) {
    std::printf("\n%llu windows over %zu links, %llu packets\n",
                static_cast<unsigned long long>(windows), opt.links.size(),
                static_cast<unsigned long long>(eng.summary().packets));
    for (const auto& link : eng.links()) {
      std::printf("  %-10s %llu packets, %llu windows\n", link.name.c_str(),
                  static_cast<unsigned long long>(link.counters.packets),
                  static_cast<unsigned long long>(link.counters.reports));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return opt.links.empty() ? run_single(opt) : run_engine(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
