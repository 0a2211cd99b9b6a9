// Distributed aggregation cost: emit → fold → fit (fbm::agg).
//
// The deferred-fit pipeline trades one local fit for serialize + merge +
// one global fit. This bench measures both halves over a Table-I-class
// trace split into K flow-key shards: how fast K producers can flush their
// windows to PartialReport files, and how fast fbm_aggregate's Merger can
// fold the K files and fit every window once. The merged document is
// checked byte-identical to a single-machine run each repetition — a bench
// that drifts from the differential guarantee fails loudly rather than
// timing the wrong computation.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "agg/agg.hpp"
#include "api/api.hpp"
#include "api/shard.hpp"
#include "common.hpp"

namespace {

std::filesystem::path partial_path(std::size_t shard) {
  return std::filesystem::temp_directory_path() /
         ("fbm_bench_aggregate_" + std::to_string(shard) + ".fbmp");
}

}  // namespace

FBM_BENCH(aggregate_merge) {
  using namespace fbm;
  bench::print_header("Distributed aggregation: emit + merge vs local fit");

  const auto scale = bench::default_scale();
  const auto cfg = trace::make_config(3, scale);
  const auto packets = trace::generate_packets(cfg);

  api::AnalysisConfig analysis;
  analysis.timeout_s(60.0 * scale.time_scale)
      .interval_s(cfg.duration_s / 4.0);

  // Single-machine reference (also the correctness pin below).
  std::string reference;
  {
    api::AnalysisPipeline pipeline(analysis);
    std::vector<api::AnalysisReport> reports;
    pipeline.set_report_sink(
        [&](api::AnalysisReport&& r) { reports.push_back(std::move(r)); });
    bench::push_packets(pipeline, packets);
    pipeline.finish();
    reference = api::to_json(pipeline.summary(), reports);
  }

  const std::size_t kShards = 4;
  const std::size_t reps = 3;
  std::uint64_t partial_bytes = 0;
  std::uint64_t windows = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // Emit: K producers, each classifying its flow-key shard and flushing
    // raw windows (this is the per-POP half of the pipeline).
    for (std::size_t i = 0; i < kShards; ++i) {
      api::AnalysisPipeline pipeline(analysis);
      agg::PartialWriter writer(partial_path(i),
                                agg::PartialMeta::from_batch(analysis));
      pipeline.set_partial_sink(
          [&](api::WindowPartial&& iv) { writer.add(0, iv); });
      std::vector<net::PacketRecord> shard;
      for (const auto& p : packets) {
        if (api::flow_shard_of(p.tuple, analysis.flow_definition(),
                               kShards) == i) {
          shard.push_back(p);
        }
      }
      bench::push_packets(pipeline, shard);
      pipeline.finish();
      writer.finish({pipeline.summary(), {}});
    }

    // Merge: fold the K files, fit once, render (the aggregator half).
    agg::Merger merger;
    for (std::size_t i = 0; i < kShards; ++i) {
      partial_bytes += std::filesystem::file_size(partial_path(i));
      merger.add_file(partial_path(i));
    }
    agg::MergeResult merged = merger.finish();
    windows += merged.windows;
    if (merged.document != reference) {
      throw std::runtime_error(
          "aggregate_merge: merged document drifted from the "
          "single-machine reference");
    }
    ctx.count_packets(packets.size());  // one full logical pass per rep
  }
  for (std::size_t i = 0; i < kShards; ++i) {
    std::filesystem::remove(partial_path(i));
  }

  std::printf("trace: %zu packets over %.0f s, %zu shards, %zu reps\n",
              packets.size(), cfg.duration_s, kShards, reps);
  std::printf("partials: %.1f KiB per rep across %zu files\n",
              static_cast<double>(partial_bytes) / reps / 1024.0, kShards);
  std::printf("windows fitted post-merge: %llu per rep\n",
              static_cast<unsigned long long>(windows / reps));
  std::printf("merged document: %zu bytes, byte-identical to the "
              "single-machine run on every rep\n",
              reference.size());
  return 0;
}
