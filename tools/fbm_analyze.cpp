// fbm_analyze — fit the shot-noise model to a packet trace and report it.
//
// Usage:
//   fbm_analyze <trace> [--interval S] [--timeout S] [--delta S]
//               [--prefix24] [--eps P] [--min-flows N] [--threads N]
//               [--link NAME=PREFIX[,PREFIX...] ...]
//               [--emit-partial FILE] [--shard I/K] [--json] [--store FILE]
//
// <trace> may be .fbmt (native, streamed with window-bounded memory), .pcap,
// or .csv. For each analysis interval the tool prints the three model
// parameters, measured vs model mean and CoV, the fitted shot power b, and
// a capacity recommendation; --json emits the same as one JSON document.
// --threads N > 1 analyzes through N flow-key-hashed worker shards; the
// output is bit-for-bit identical to the single-threaded run. --threads 0
// auto-detects the machine's core count.
//
// --link (repeatable) switches to the multi-link engine: the stream is
// demuxed to one analysis session per link (longest-prefix match across
// overlapping claims; NAME=all or NAME=* for a match-all aggregate), each
// proven bit-for-bit equal to analyzing that link's packets alone. The
// table gains a link column; --json groups intervals per link. --threads
// then sizes the engine's session worker pool instead.
//
// --emit-partial FILE switches to distributed-aggregation mode: nothing is
// fitted; every closed interval's raw sufficient statistics (flow records +
// exact byte bins) are serialized to FILE as an agg::PartialReport, for a
// later fbm_aggregate run to merge and fit once. --shard I/K (with
// --emit-partial) makes this process shard I of K: only packets whose flow
// key hashes to shard I are analyzed, so K such runs partition the trace
// and their K partials merge into a byte-identical replica of the
// single-process output. Requires an explicit --interval (the whole-trace
// horizon of one shard would differ from the full trace's).
//
// --store FILE appends every fitted interval to the durable report store
// (the same format fbm_live writes and fbm_query reads), so batch results
// land in the queryable on-disk log alongside live-mode windows. Works in
// both the single-link and --link pipelines; incompatible with
// --emit-partial, which fits nothing.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "agg/agg.hpp"
#include "api/api.hpp"
#include "batch_filter.hpp"
#include "metrics_cli.hpp"
#include "store/report_store.hpp"

namespace {

struct Options {
  std::string path;
  double interval = 0.0;  // 0 = whole trace
  double timeout = 60.0;
  double delta = fbm::measure::kPaperDelta;
  bool prefix24 = false;
  double eps = 0.01;
  std::size_t min_flows = 10;
  std::size_t threads = 1;
  std::vector<std::string> links;  // empty = single-link pipeline
  std::string emit_partial;        // empty = fit locally
  std::string store;               // empty = no durable persistence
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  bool json = false;
  fbm::tools::MetricsOptions metrics;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: fbm_analyze <trace.fbmt|.pcap|.csv> [--interval S] "
               "[--timeout S] [--delta S] [--prefix24] [--eps P] "
               "[--min-flows N] [--threads N] "
               "[--link NAME=PREFIX[,PREFIX...]] [--emit-partial FILE] "
               "[--shard I/K] [--json] [--store FILE] [--metrics FILE] "
               "[--metrics-every S] [--metrics-prom FILE]\n");
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
    if (arg == "--interval") {
      opt.interval = need_value("--interval");
    } else if (arg == "--timeout") {
      opt.timeout = need_value("--timeout");
    } else if (arg == "--delta") {
      opt.delta = need_value("--delta");
    } else if (arg == "--eps") {
      opt.eps = need_value("--eps");
    } else if (arg == "--min-flows") {
      opt.min_flows = fbm::tools::to_count(need_value("--min-flows"),
                                           "--min-flows", usage);
    } else if (arg == "--threads") {
      opt.threads = fbm::tools::to_threads(need_value("--threads"), usage);
    } else if (arg == "--link") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --link\n");
        usage();
      }
      opt.links.emplace_back(argv[++i]);
    } else if (arg == "--emit-partial") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --emit-partial\n");
        usage();
      }
      opt.emit_partial = argv[++i];
    } else if (arg == "--store") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --store\n");
        usage();
      }
      opt.store = argv[++i];
    } else if (arg == "--shard") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --shard\n");
        usage();
      }
      parse_shard(argv[++i], opt);
    } else if (fbm::tools::parse_metrics_flag(argc, argv, i, opt.metrics,
                                              usage)) {
      // consumed --metrics / --metrics-every / --metrics-prom
    } else if (arg == "--prefix24") {
      opt.prefix24 = true;
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
  if (opt.shard_count > 1 && opt.emit_partial.empty()) {
    std::fprintf(stderr, "--shard only makes sense with --emit-partial\n");
    usage();
  }
  if (opt.shard_count > 1 && !opt.links.empty()) {
    // Per-link overrides could change the flow definition the shard hash
    // must agree on; key-sharding and link demux do not compose.
    std::fprintf(stderr, "--shard cannot be combined with --link\n");
    usage();
  }
  if (!opt.store.empty() && !opt.emit_partial.empty()) {
    std::fprintf(stderr,
                 "--store needs fitted reports; --emit-partial fits "
                 "nothing\n");
    usage();
  }
  if (!opt.emit_partial.empty() && opt.interval <= 0.0) {
    std::fprintf(stderr,
                 "--emit-partial requires an explicit --interval (a shard "
                 "cannot derive the whole-trace horizon)\n");
    usage();
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fbm;
  const Options opt = parse_args(argc, argv);
  obs::MetricsExporter metrics = tools::make_metrics_exporter(opt.metrics);
  tools::MetricsFinishGuard metrics_guard(metrics);

  // Whole-trace mode needs the horizon before the pipeline is configured.
  // Since a single interval spans the entire capture anyway (the pipeline
  // holds the whole window), buffer the packets while finding the horizon
  // and analyze from memory — one read of the file, not two.
  double interval_s = opt.interval;
  std::vector<net::PacketRecord> buffered;
  try {
    if (interval_s <= 0.0) {
      auto probe = api::open_trace(opt.path);
      probe->for_each(
          [&](const net::PacketRecord& p) { buffered.push_back(p); });
      if (buffered.empty()) {
        std::fprintf(stderr, "error: no packets in %s\n", opt.path.c_str());
        return 1;
      }
      interval_s = buffered.back().timestamp + 1e-9;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!(interval_s > 0.0)) {
    // Whole-trace mode only: the buffered trace ends at a negative or NaN
    // timestamp, so it spans no positive horizon.
    std::fprintf(stderr, "error: %s does not end at a positive timestamp\n",
                 opt.path.c_str());
    return 1;
  }

  api::AnalysisConfig config;
  config
      .flow_definition(opt.prefix24 ? api::FlowDefinition::prefix24
                                    : api::FlowDefinition::five_tuple)
      .interval_s(interval_s)
      .timeout_s(opt.timeout)
      .delta_s(opt.delta)
      .epsilon(opt.eps)
      .min_flows(opt.min_flows)
      .threads(opt.threads);

  // Multi-link mode: demux through the engine, one session per --link.
  if (!opt.links.empty()) {
    engine::EngineConfig engine_config;
    engine_config.mode = engine::EngineMode::batch;
    engine_config.analysis = config;
    engine_config.threads = opt.threads;
    try {
      // Declared before the engine: pool workers can still invoke the sink
      // while ~Engine drains their queues on an error-path unwind.
      std::map<engine::LinkId, std::vector<api::AnalysisReport>> by_link;
      std::unique_ptr<agg::PartialWriter> writer;
      engine::Engine eng(engine_config);
      if (!opt.emit_partial.empty()) {
        // Distributed mode: declare the link set in the meta frame, stream
        // every link's closed intervals as window frames, fit nothing.
        std::vector<engine::LinkSpec> specs;
        specs.reserve(opt.links.size());
        for (const auto& text : opt.links) {
          specs.push_back(engine::parse_link_spec(text));
        }
        agg::PartialMeta meta = agg::PartialMeta::from_batch(config);
        meta.engine = true;
        for (std::size_t i = 0; i < specs.size(); ++i) {
          meta.links.push_back(
              {static_cast<std::uint32_t>(i), specs[i].name});
        }
        writer = std::make_unique<agg::PartialWriter>(opt.emit_partial,
                                                      std::move(meta));
        eng.set_partial_sink([&](engine::LinkId link, const std::string&,
                                 live::WindowPartial&& partial) {
          writer->add(static_cast<std::uint32_t>(link), partial);
          metrics.tick();
        });
        for (auto& spec : specs) (void)eng.attach(std::move(spec));
      } else {
        eng.set_report_sink([&](engine::LinkReport&& r) {
          by_link[r.link].push_back(std::move(*r.interval));
          metrics.tick();
        });
        for (const auto& text : opt.links) {
          (void)eng.attach(engine::parse_link_spec(text));
        }
      }
      auto source = buffered.empty()
                        ? api::open_trace(opt.path)
                        : api::make_vector_source(std::move(buffered));
      eng.consume(*source);

      if (eng.summary().packets == 0) {
        std::fprintf(stderr, "error: no packets in %s\n", opt.path.c_str());
        return 1;
      }
      if (writer) {
        agg::PartialTotals totals;
        totals.summary = eng.summary();
        for (const auto& link : eng.links()) {
          totals.links.push_back({static_cast<std::uint32_t>(link.id),
                                  link.counters.packets,
                                  link.counters.bytes});
        }
        writer->finish(totals);
        std::fprintf(stderr,
                     "wrote %llu window partials for %zu links to %s\n",
                     static_cast<unsigned long long>(
                         writer->windows_written()),
                     opt.links.size(), opt.emit_partial.c_str());
        return 0;
      }
      std::vector<engine::LinkBatchResult> results;
      for (auto& link : eng.links()) {
        results.push_back({std::move(link.name), link.counters,
                           std::move(by_link[link.id])});
      }
      if (!opt.store.empty()) {
        store::StoreWriter store_writer(opt.store);
        for (std::size_t i = 0; i < results.size(); ++i) {
          for (const auto& r : results[i].reports) {
            auto record = store::from_analysis(r, interval_s);
            record.link_id = static_cast<std::uint32_t>(i);
            record.link_tagged = true;
            record.link_name = results[i].name;
            store_writer.append(record);
          }
        }
        std::fprintf(stderr, "stored %llu interval reports in %s\n",
                     static_cast<unsigned long long>(store_writer.appended()),
                     opt.store.c_str());
      }
      if (opt.json) {
        std::printf("%s\n", engine::to_json(eng.summary(), results).c_str());
        return 0;
      }
      const auto& summary = eng.summary();
      std::printf("trace: %llu packets, %s, %.2f Mbps average over %zu "
                  "links\n\n",
                  static_cast<unsigned long long>(summary.packets),
                  trace::format_duration(summary.duration_s()).c_str(),
                  summary.mean_rate_mbps(), results.size());
      std::printf("%-10s %8s %8s %10s %12s | %9s %9s | %7s %10s\n", "link",
                  "t0", "flows", "lambda", "E[S] kbit", "meas CoV",
                  "mdl CoV", "b_hat", "cap Mbps");
      for (const auto& link : results) {
        for (const auto& r : link.reports) {
          std::printf("%-10s %8.1f %8zu %10.1f %12.1f | %8.1f%% %8.1f%% | "
                      "%7.2f %10.2f\n",
                      link.name.c_str(), r.start_s, r.inputs.flows,
                      r.inputs.lambda, r.inputs.mean_size_bits / 1e3,
                      100.0 * r.measured.cov, 100.0 * r.model_cov,
                      r.shot_b_used, r.plan.capacity_bps / 1e6);
        }
        std::printf("%-10s %llu packets routed\n\n", link.name.c_str(),
                    static_cast<unsigned long long>(link.counters.packets));
      }
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  std::vector<api::AnalysisReport> reports;
  trace::TraceSummary summary;
  std::uint64_t flows_emitted = 0;
  std::unique_ptr<agg::PartialWriter> writer;
  try {
    // --threads N != 1 shards the analysis by flow key (0 = every core),
    // with bit-for-bit identical reports.
    api::AnalysisPipeline pipeline(config);
    auto source = buffered.empty()
                      ? api::open_trace(opt.path)
                      : api::make_vector_source(std::move(buffered));
    if (!opt.emit_partial.empty()) {
      // Distributed mode: closed intervals leave as raw sufficient
      // statistics; fbm_aggregate folds the shards and fits once.
      writer = std::make_unique<agg::PartialWriter>(
          opt.emit_partial, agg::PartialMeta::from_batch(config));
      pipeline.set_partial_sink([&](api::WindowPartial&& iv) {
        writer->add(0, iv);
        metrics.tick();
      });
    } else {
      // Reports stream out through the per-window flush hook as intervals
      // close; memory stays window-bounded (interval mode reads the file
      // directly, nothing buffered).
      pipeline.set_report_sink([&](api::AnalysisReport&& r) {
        reports.push_back(std::move(r));
        metrics.tick();
      });
    }
    if (opt.shard_count > 1) {
      (void)api::read_batches(
          *source, config.batch_packets(), [&](net::PacketBatch& b) {
            tools::keep_shard(b, config.flow_definition(), opt.shard_index,
                              opt.shard_count);
            pipeline.push_batch(b);
          });
      pipeline.finish();
    } else {
      pipeline.consume(*source);
    }
    summary = pipeline.summary();
    flows_emitted = pipeline.counters().flows_emitted;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (summary.packets == 0 && (writer == nullptr || opt.shard_count <= 1)) {
    // In shard mode an empty shard is legitimate (a small trace may hash
    // every flow elsewhere); the partial below records zero windows and the
    // merger folds it as a no-op.
    std::fprintf(stderr, "error: no packets in %s\n", opt.path.c_str());
    return 1;
  }

  if (writer) {
    try {
      writer->finish({summary, {}});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::fprintf(
        stderr, "wrote %llu interval partials to %s\n",
        static_cast<unsigned long long>(writer->windows_written()),
        opt.emit_partial.c_str());
    return 0;
  }

  if (!opt.store.empty()) {
    try {
      store::StoreWriter store_writer(opt.store);
      for (const auto& r : reports) {
        store_writer.append(store::from_analysis(r, interval_s));
      }
      std::fprintf(stderr, "stored %llu interval reports in %s\n",
                   static_cast<unsigned long long>(store_writer.appended()),
                   opt.store.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  if (opt.json) {
    std::printf("%s\n", api::to_json(summary, reports).c_str());
    return 0;
  }

  std::printf("trace: %llu packets, %s, %.2f Mbps average, mean packet %.0f "
              "B\n",
              static_cast<unsigned long long>(summary.packets),
              trace::format_duration(summary.duration_s()).c_str(),
              summary.mean_rate_mbps(), summary.mean_packet_bytes());
  std::printf("flows (%s): %llu completed\n\n",
              opt.prefix24 ? "/24 prefix" : "5-tuple",
              static_cast<unsigned long long>(flows_emitted));

  std::printf("%8s %8s %10s %12s | %9s %9s | %7s %10s\n", "t0", "flows",
              "lambda", "E[S] kbit", "meas CoV", "mdl CoV", "b_hat",
              "cap Mbps");
  for (const auto& r : reports) {
    std::printf("%8.1f %8zu %10.1f %12.1f | %8.1f%% %8.1f%% | %7.2f %10.2f\n",
                r.start_s, r.inputs.flows, r.inputs.lambda,
                r.inputs.mean_size_bits / 1e3, 100.0 * r.measured.cov,
                100.0 * r.model_cov, r.shot_b_used,
                r.plan.capacity_bps / 1e6);
  }
  std::printf("\ncapacity column: E[R] + q(1-eps) sigma at eps=%.2g with the "
              "fitted shot\n", opt.eps);
  return 0;
}
