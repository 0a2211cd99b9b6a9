// fbm_analyze — fit the shot-noise model to a packet trace and report it.
//
// Usage: fbm_analyze <trace> [flags]; the flag list is the table in
// parse_args() (run with no arguments to print it).
//
// <trace> may be .fbmt (native, streamed with window-bounded memory), .pcap,
// or .csv. For each analysis interval the tool prints the three model
// parameters, measured vs model mean and CoV, the fitted shot power b, and
// a capacity recommendation; --json emits the same as one JSON document.
// Without --interval one interval spans the trace: a first pass reads the
// last timestamp and the source rewinds, so memory stays bounded.
//
// Every run goes through the multi-link engine (engine::Engine, batch
// mode), whose links run fbm_live's estimator with tiling windows of the
// interval: `--interval W` reports what `fbm_live --window W` reports, and
// a one-packet piece of a flow at an interval edge is dropped as a
// single-packet flow. Timestamps must be non-negative. Without --link it
// is one match-all link rendered untagged; --link
// (repeatable) demuxes the stream to one link per spec instead
// (longest-prefix match across overlapping claims; NAME=all or NAME=* for a
// match-all aggregate), each proven bit-for-bit equal to analyzing that
// link's packets alone. The table then gains a link column, and --json
// groups intervals per link. --threads N (0 = every core) means what it
// means in fbm_live: an untagged run is one link of N flow-key shards on N
// workers, a --link run is one shard per link on N workers. The output is
// bit-for-bit identical at every N.
//
// --emit-partial FILE switches to distributed-aggregation mode: nothing is
// fitted; every closed interval's raw sufficient statistics (exact flow
// sums + byte bins) are serialized to FILE as an agg::PartialReport, for a
// later fbm_aggregate run to merge and fit once. --shard I/K (with
// --emit-partial) makes this process shard I of K: only packets whose flow
// key hashes to shard I are analyzed, so K such runs partition the trace
// and their K partials merge into a byte-identical replica of the
// single-process output. Requires an explicit --interval (the whole-trace
// horizon of one shard would differ from the full trace's).
//
// --store FILE appends every fitted interval to the durable report store
// (the same format fbm_live writes and fbm_query reads), so batch results
// land in the queryable on-disk log alongside live-mode windows. Works with
// and without --link; incompatible with --emit-partial, which fits nothing.
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hpp"
#include "store/report_store.hpp"

namespace {

using fbm::tools::Kind;

struct Options {
  std::string path;
  double interval = 0.0;  // 0 = whole trace
  fbm::tools::AnalysisOptions analysis;  // no --link = one untagged link
  std::uint64_t min_flows = 10;
  std::string emit_partial;  // empty = fit locally
  std::string store;         // empty = no durable persistence
  fbm::tools::Shard shard;
  bool json = false;
  fbm::tools::MetricsOptions metrics;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  fbm::tools::Cli cli("fbm_analyze", "<trace.fbmt|.pcap|.csv>", &opt.path,
                      {{"--interval", &opt.interval, Kind::real, "S"}});
  cli.add(fbm::tools::analysis_flags(opt.analysis))
      .add({{"--min-flows", &opt.min_flows, Kind::count, "N"},
            {"--emit-partial", &opt.emit_partial, Kind::text, "FILE"},
            {"--shard", &opt.shard, Kind::shard, "I/K"},
            {"--json", &opt.json, Kind::flag, ""},
            {"--store", &opt.store, Kind::text, "FILE"}})
      .add(fbm::tools::metrics_flags(opt.metrics))
      .parse(argc, argv);
  if (opt.shard.count > 1 && opt.emit_partial.empty()) {
    cli.fail("--shard only makes sense with --emit-partial");
  }
  if (opt.shard.count > 1 && !opt.analysis.links.empty()) {
    // Per-link overrides could change the flow definition the shard hash
    // must agree on; key-sharding and link demux do not compose.
    cli.fail("--shard cannot be combined with --link");
  }
  if (!opt.store.empty() && !opt.emit_partial.empty()) {
    cli.fail("--store needs fitted reports; --emit-partial fits nothing");
  }
  if (!opt.emit_partial.empty() && opt.interval <= 0.0) {
    cli.fail("--emit-partial requires an explicit --interval (a shard cannot "
             "derive the whole-trace horizon)");
  }
  return opt;
}

int run(const Options& opt, fbm::obs::MetricsExporter& metrics) {
  using namespace fbm;
  api::AnalysisConfig config;
  opt.analysis.apply(config);
  config.min_flows(static_cast<std::size_t>(opt.min_flows));
  const auto source = api::open_trace(opt.path);
  double interval_s = opt.interval;
  if (interval_s <= 0.0) {
    // Whole-trace mode: one interval spanning the capture. A first pass
    // finds the horizon, then the source rewinds for the analysis (read
    // directly, so the source metrics count the analysis pass only).
    net::PacketBatch batch;
    double last_ts = 0.0;
    std::uint64_t packets = 0;
    while (source->next_batch(batch, config.batch_packets()) > 0) {
      packets += batch.size();
      last_ts = batch.timestamps.back();
    }
    if (packets == 0) return tools::no_packets(opt.path);
    if (!source->reset()) throw std::runtime_error("cannot rewind " + opt.path);
    interval_s = last_ts + 1e-9;
    if (!(interval_s > 0.0)) {
      std::fprintf(stderr,
                   "error: %s ends at timestamp %.17g; whole-trace mode "
                   "needs a positive one\n",
                   opt.path.c_str(), last_ts);
      return 1;
    }
  }
  config.interval_s(interval_s);

  const bool tagged = !opt.analysis.links.empty();
  engine::EngineConfig engine_config;
  engine_config.mode = engine::EngineMode::batch;
  engine_config.live.analysis = config;
  engine_config.threads = opt.analysis.threads;
  engine_config.shards = tagged ? 1 : opt.analysis.threads;

  // Declared before the engine: pool workers can still invoke the sink
  // while ~Engine drains their queues on an error-path unwind.
  std::map<engine::LinkId, std::vector<api::AnalysisReport>> by_link;
  std::unique_ptr<agg::PartialWriter> writer;
  engine::Engine eng(engine_config);
  if (!opt.emit_partial.empty()) {
    // Distributed mode: every link's closed intervals leave as window
    // frames; fbm_aggregate folds the files and fits once.
    eng.set_partial_sink([&](engine::LinkId link, const std::string&,
                             live::WindowPartial&& partial) {
      writer->add(static_cast<std::uint32_t>(link), partial);
      metrics.tick();
    });
  } else {
    eng.set_report_sink([&](engine::LinkReport&& r) {
      by_link[r.link].push_back(std::move(*r.interval));
      metrics.tick();
    });
  }
  const agg::PartialMeta meta = tools::attach_links(
      eng, opt.analysis.links, agg::PartialMeta::from_batch(config));
  if (!opt.emit_partial.empty()) {
    writer = std::make_unique<agg::PartialWriter>(opt.emit_partial, meta);
  }
  (void)api::read_batches(*source, config.batch_packets(),
                          [&](net::PacketBatch& b) {
                            tools::keep_shard(b, config.flow_definition(),
                                              opt.shard);
                            eng.push_batch(b);
                          });
  eng.finish();
  const trace::TraceSummary& summary = eng.summary();

  // In shard mode an empty shard is legitimate (a small trace may hash
  // every flow elsewhere); the partial records zero windows and the merger
  // folds it as a no-op.
  if (summary.packets == 0 && (writer == nullptr || opt.shard.count <= 1)) {
    return tools::no_packets(opt.path);
  }
  if (writer) {
    tools::finish_partials(*writer, summary,
                           tagged ? eng.links()
                                  : std::vector<engine::LinkInfo>{},
                           tagged ? "window" : "interval", opt.emit_partial);
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
        if (tagged) {
          record.link_id = static_cast<std::uint32_t>(i);
          record.link_tagged = true;
          record.link_name = results[i].name;
        }
        store_writer.append(record);
      }
    }
    std::fprintf(stderr, "stored %llu interval reports in %s\n",
                 static_cast<unsigned long long>(store_writer.appended()),
                 opt.store.c_str());
  }
  if (opt.json) {
    const std::string doc =
        tagged ? engine::to_json(summary, results)
               : api::to_json(summary, results.front().reports);
    std::printf("%s\n", doc.c_str());
    return 0;
  }
  if (tagged) {
    std::printf("trace: %llu packets, %s, %.2f Mbps average over %zu "
                "links\n\n",
                static_cast<unsigned long long>(summary.packets),
                trace::format_duration(summary.duration_s()).c_str(),
                summary.mean_rate_mbps(), results.size());
    std::printf("%-10s ", "link");
  } else {
    std::printf("trace: %llu packets, %s, %.2f Mbps average, mean packet "
                "%.0f B\n",
                static_cast<unsigned long long>(summary.packets),
                trace::format_duration(summary.duration_s()).c_str(),
                summary.mean_rate_mbps(), summary.mean_packet_bytes());
    std::printf("flows (%s): %llu completed\n\n",
                opt.analysis.prefix24 ? "/24 prefix" : "5-tuple",
                static_cast<unsigned long long>(
                    results.front().counters.flows));
  }
  std::printf("%8s %8s %10s %12s | %9s %9s | %7s %10s\n", "t0", "flows",
              "lambda", "E[S] kbit", "meas CoV", "mdl CoV", "b_hat",
              "cap Mbps");
  for (const auto& link : results) {
    for (const auto& r : link.reports) {
      if (tagged) std::printf("%-10s ", link.name.c_str());
      std::printf("%8.1f %8zu %10.1f %12.1f | %8.1f%% %8.1f%% | %7.2f "
                  "%10.2f\n",
                  r.start_s, r.inputs.flows, r.inputs.lambda,
                  r.inputs.mean_size_bits / 1e3, 100.0 * r.measured.cov,
                  100.0 * r.model_cov, r.shot_b_used,
                  r.plan.capacity_bps / 1e6);
    }
    if (tagged) {
      std::printf("%-10s %llu packets routed\n\n", link.name.c_str(),
                  static_cast<unsigned long long>(link.counters.packets));
    }
  }
  if (!tagged) {
    std::printf("\ncapacity column: E[R] + q(1-eps) sigma at eps=%.2g with "
                "the fitted shot\n", opt.analysis.eps);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  fbm::obs::MetricsExporter metrics =
      fbm::tools::make_metrics_exporter(opt.metrics);
  fbm::tools::MetricsFinishGuard metrics_guard(metrics);
  try {
    return run(opt, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
