// Multi-link engine demux throughput: packets/sec through fbm::engine at
// 1, 4 and 16 links, against the plain single-link AnalysisPipeline on the
// same trace.
//
// At 1 match-all link the engine does the pipeline's per-packet work plus
// the demux (no routing-table lookup at all with no prefix links, one
// counter update), so its packets/sec should stay within 10% of the
// pipeline's — the acceptance bar recorded as demux_ratio_1link. With N
// disjoint prefix links every packet still feeds exactly one session: the
// demux is one pass over the batch, one stride-table LPM lookup and one
// copy into that session's buffer per packet, whatever N is; the 4- and
// 16-link rows show what N sessions' own work adds.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common.hpp"
#include "trace/synthetic.hpp"

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] fbm::api::AnalysisConfig analysis_config() {
  fbm::api::AnalysisConfig cfg;
  cfg.interval_s(15.0).timeout_s(1.0).min_flows(0);
  return cfg;
}

/// N disjoint prefix links covering the synthetic 10.x destination space.
[[nodiscard]] std::vector<fbm::engine::LinkSpec> disjoint_links(
    std::size_t n) {
  using namespace fbm;
  std::vector<engine::LinkSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    engine::LinkSpec spec;
    spec.name = "link" + std::to_string(i);
    // 8 /15 blocks cover 10.0.0.0-10.7.255.255; split each into halves
    // again (/16, /17, ...) as n grows.
    int extra = 0;
    std::size_t blocks = n;
    while (blocks > 8) {
      blocks /= 2;
      ++extra;
    }
    const auto block = static_cast<std::uint32_t>(i);
    const int len = 15 + extra;
    const std::uint32_t base =
        (10u << 24) | (block << (32 - static_cast<std::uint32_t>(len)));
    spec.rule = engine::MatchPrefixes{
        {net::Prefix(net::Ipv4Address(base), len)}};
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

FBM_BENCH(engine_demux) {
  using namespace fbm;
  bench::print_header("Multi-link engine demux (packets/sec vs pipeline)");

  trace::SyntheticConfig cfg;
  cfg.duration_s = ctx.quick() ? 60.0 : 120.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(8e6);
  cfg.seed = 20025;
  const auto packets = trace::generate_packets(cfg);

  std::printf("trace: %zu packets over %.0f s (~8 Mbps synthetic)\n\n",
              packets.size(), cfg.duration_s);
  std::printf("%-24s %10s %14s %10s\n", "configuration", "reports",
              "packets/s", "ratio");

  // Plain streaming pipeline: the reference rate.
  const auto t0 = Clock::now();
  const auto reference = api::analyze(packets, analysis_config());
  const double pipeline_pps =
      static_cast<double>(packets.size()) / seconds_since(t0);
  std::printf("%-24s %10zu %14.0f %10s\n", "pipeline (reference)",
              reference.size(), pipeline_pps, "-");
  ctx.count_packets(packets.size());
  ctx.count_intervals(reference.size());

  double ratio_1link = 0.0;
  struct Shape {
    const char* label;
    std::size_t links;  ///< 0 = one match-all link
  };
  const Shape shapes[] = {{"engine 1 link (all)", 0},
                          {"engine 4 links", 4},
                          {"engine 16 links", 16}};
  for (const auto& shape : shapes) {
    engine::EngineConfig config;
    config.mode = engine::EngineMode::batch;
    config.analysis = analysis_config();

    const auto t1 = Clock::now();
    engine::Engine eng(config);
    std::size_t reports = 0;
    eng.set_report_sink([&](engine::LinkReport&&) { ++reports; });
    if (shape.links == 0) {
      (void)eng.attach(engine::parse_link_spec("tap=all"));
    } else {
      for (auto& spec : disjoint_links(shape.links)) {
        (void)eng.attach(std::move(spec));
      }
    }
    // Chunk the trace through the batched demux path in the 512-packet
    // batches Engine::consume() reads.
    bench::push_packets(eng, packets, 512);
    eng.finish();
    const double pps =
        static_cast<double>(packets.size()) / seconds_since(t1);
    const double ratio = pipeline_pps > 0.0 ? pps / pipeline_pps : 0.0;
    if (shape.links == 0) ratio_1link = ratio;

    std::printf("%-24s %10zu %14.0f %9.2fx\n", shape.label, reports, pps,
                ratio);
    char metric[48];
    std::snprintf(metric, sizeof metric, "packets_per_s_%zulink",
                  shape.links == 0 ? std::size_t{1} : shape.links);
    ctx.report().set_metric(metric, pps);
    ctx.count_packets(packets.size());
    ctx.count_intervals(reports);
  }

  ctx.report().set_metric("demux_ratio_1link", ratio_1link);
  std::printf("\nengine 1 match-all link vs pipeline: %.2fx (acceptance: "
              ">= 0.90)\n",
              ratio_1link);
  return 0;
}
