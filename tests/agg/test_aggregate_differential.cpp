// The keystone proof behind fbm::agg (ISSUE 6 acceptance): split a trace by
// flow key into K shards, run each shard through a producer with a partial
// sink, merge the K partial files with agg::Merger — and the rendered
// output is byte-for-byte identical to a single-machine run over the whole
// trace. Pinned across split counts K ∈ {1, 2, 3, 5}, both flow
// definitions, serial and sharded (multi-threaded) producers, batch and
// live modes, and the multi-link engine; plus deferred min_flows filtering
// and rejection of corrupt inputs at the merge layer.
//
// The one documented exception: a *streaming* multi-link live run
// interleaves its JSONL lines by packet arrival, so engine-live merges pin
// byte-identical per-link subsequences and the same line multiset, emitted
// in the canonical (window index, attach order) interleave.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "../support/push.hpp"
#include "agg/agg.hpp"
#include "api/api.hpp"
#include "api/shard.hpp"
#include "live/live.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

using testsupport::push_all;

std::vector<net::PacketRecord> seeded_trace(std::uint64_t seed = 616) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 30.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(6e6);
  cfg.seed = seed;
  return trace::generate_packets(cfg);
}

trace::TraceSummary summarize(const std::vector<net::PacketRecord>& packets) {
  trace::TraceSummary s;
  for (const auto& p : packets) {
    if (s.packets == 0) s.first_ts = p.timestamp;
    s.last_ts = p.timestamp;
    ++s.packets;
    s.total_bytes += p.size_bytes;
  }
  return s;
}

/// The shard-I-of-K packet subset, split by flow key exactly as the CLI
/// tools' --shard flag splits.
std::vector<net::PacketRecord> shard_of(
    const std::vector<net::PacketRecord>& packets, api::FlowDefinition def,
    std::size_t index, std::size_t count) {
  std::vector<net::PacketRecord> out;
  for (const auto& p : packets) {
    if (api::flow_shard_of(p.tuple, def, count) == index) out.push_back(p);
  }
  return out;
}

// Per-test-case filenames: ctest -j runs several cases of this suite as
// concurrent processes sharing one TempDir, so a fixed name races.
std::filesystem::path temp_partial(std::size_t i) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::filesystem::path(::testing::TempDir()) /
         ("diff_partial_" + std::string(info->name()) + "_" +
          std::to_string(i) + ".fbmp");
}

api::AnalysisConfig batch_config(api::FlowDefinition def,
                                 std::size_t min_flows = 0) {
  api::AnalysisConfig cfg;
  cfg.flow_definition(def).timeout_s(2.0).interval_s(10.0).min_flows(
      min_flows);
  return cfg;
}

/// Single-machine reference: the ordinary serial pipeline over the whole
/// trace, rendered exactly as `fbm_analyze --json` renders it.
std::string batch_reference(const api::AnalysisConfig& config,
                            const std::vector<net::PacketRecord>& packets) {
  api::AnalysisPipeline pipeline(config);
  std::vector<api::AnalysisReport> reports;
  pipeline.set_report_sink(
      [&](api::AnalysisReport&& r) { reports.push_back(std::move(r)); });
  push_all(pipeline, packets);
  pipeline.finish();
  return api::to_json(pipeline.summary(), reports);
}

/// One shard producer: pushes `packets` through a pipeline (serial or
/// sharded by `threads`) with a partial sink, writes one partial file.
void produce_batch_partial(const api::AnalysisConfig& config,
                           const std::vector<net::PacketRecord>& packets,
                           const std::filesystem::path& path) {
  api::AnalysisPipeline pipeline(config);
  agg::PartialWriter writer(path, agg::PartialMeta::from_batch(config));
  pipeline.set_partial_sink(
      [&](api::WindowPartial&& iv) { writer.add(0, iv); });
  push_all(pipeline, packets);
  pipeline.finish();
  writer.finish({pipeline.summary(), {}});
}

std::string merge_files(std::size_t count) {
  agg::Merger merger;
  for (std::size_t i = 0; i < count; ++i) merger.add_file(temp_partial(i));
  agg::MergeResult merged = merger.finish();
  EXPECT_EQ(merged.files, count);
  return merged.document;
}

TEST(AggregateDifferential, BatchSplitsMergeByteIdentical) {
  const auto packets = seeded_trace();
  for (const auto def :
       {api::FlowDefinition::five_tuple, api::FlowDefinition::prefix24}) {
    const api::AnalysisConfig config = batch_config(def);
    const std::string reference = batch_reference(config, packets);
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{5}}) {
      for (std::size_t i = 0; i < k; ++i) {
        produce_batch_partial(config, shard_of(packets, def, i, k),
                              temp_partial(i));
      }
      EXPECT_EQ(merge_files(k), reference)
          << "K=" << k << " def=" << static_cast<int>(def);
    }
  }
}

TEST(AggregateDifferential, ShardedProducersMergeByteIdentical) {
  // Each producer itself runs the multi-threaded pipeline — partials are
  // identical to serial producers' (threads is a throughput knob, not
  // identity), so a mixed fleet folds too.
  const auto packets = seeded_trace(77);
  const auto def = api::FlowDefinition::five_tuple;
  api::AnalysisConfig config = batch_config(def);
  const std::string reference = batch_reference(config, packets);

  config.threads(3);
  produce_batch_partial(config, shard_of(packets, def, 0, 2),
                        temp_partial(0));
  config.threads(1);
  produce_batch_partial(config, shard_of(packets, def, 1, 2),
                        temp_partial(1));
  EXPECT_EQ(merge_files(2), reference);
}

TEST(AggregateDifferential, MinFlowsFilterDefersToTheMerge) {
  // A threshold that passes in the union but fails per shard: applying it
  // per producer would drop intervals the single-machine run keeps.
  const auto packets = seeded_trace(101);
  const auto def = api::FlowDefinition::five_tuple;
  const api::AnalysisConfig config = batch_config(def, 50);
  const std::string reference = batch_reference(config, packets);
  for (std::size_t i = 0; i < 5; ++i) {
    produce_batch_partial(config, shard_of(packets, def, i, 5),
                          temp_partial(i));
  }
  EXPECT_EQ(merge_files(5), reference);
}

live::LiveConfig live_config(api::FlowDefinition def) {
  live::LiveConfig cfg;
  cfg.window_s = 8.0;
  cfg.stride_s = 4.0;
  cfg.analysis.flow_definition(def).timeout_s(2.0);
  return cfg;
}

std::vector<std::string> live_reference(
    const live::LiveConfig& config,
    const std::vector<net::PacketRecord>& packets) {
  live::WindowedEstimator estimator(config);
  std::vector<std::string> lines;
  estimator.set_window_sink(
      [&](live::WindowReport&& r) { lines.push_back(live::to_jsonl(r)); });
  push_all(estimator, packets);
  estimator.finish();
  return lines;
}

void produce_live_partial(const live::LiveConfig& config,
                          const std::vector<net::PacketRecord>& packets,
                          const std::filesystem::path& path) {
  live::WindowedEstimator estimator(config);
  agg::PartialWriter writer(path, agg::PartialMeta::from_live(config));
  estimator.set_partial_sink(
      [&](live::WindowPartial&& w) { writer.add(0, w); });
  push_all(estimator, packets);
  estimator.finish();
  writer.finish({summarize(packets), {}});
}

TEST(AggregateDifferential, LiveSplitsMergeByteIdentical) {
  const auto packets = seeded_trace(202);
  for (const auto def :
       {api::FlowDefinition::five_tuple, api::FlowDefinition::prefix24}) {
    const live::LiveConfig config = live_config(def);
    const std::vector<std::string> reference =
        live_reference(config, packets);
    ASSERT_FALSE(reference.empty());
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
      for (std::size_t i = 0; i < k; ++i) {
        produce_live_partial(config, shard_of(packets, def, i, k),
                             temp_partial(i));
      }
      agg::Merger merger;
      for (std::size_t i = 0; i < k; ++i) merger.add_file(temp_partial(i));
      const agg::MergeResult merged = merger.finish();
      EXPECT_EQ(merged.kind, agg::PartialKind::live);
      EXPECT_EQ(merged.lines, reference)
          << "K=" << k << " def=" << static_cast<int>(def);
    }
  }
}

/// One producer's partial file, in memory: the shard's windows (batch
/// intervals or live windows) as its pipeline emitted them.
agg::PartialFile produce_in_memory(
    bool live_mode, api::FlowDefinition def,
    const std::vector<net::PacketRecord>& shard) {
  agg::PartialFile file;
  file.totals.summary = summarize(shard);
  const auto collect = [&](api::WindowPartial&& w) {
    file.windows.push_back({0, std::move(w)});
  };
  if (live_mode) {
    file.meta = agg::PartialMeta::from_live(live_config(def));
    live::WindowedEstimator estimator(live_config(def));
    estimator.set_partial_sink(collect);
    push_all(estimator, shard);
    estimator.finish();
  } else {
    file.meta = agg::PartialMeta::from_batch(batch_config(def));
    api::AnalysisPipeline pipeline(batch_config(def));
    pipeline.set_partial_sink(collect);
    push_all(pipeline, shard);
    pipeline.finish();
  }
  return file;
}

TEST(AggregateDifferential, RandomShardCountsAndFoldOrdersAgreeBitwise) {
  // Merging is addition of exact sums, so neither the number of producers
  // nor the order their files and window frames fold in may move a bit.
  const auto packets = seeded_trace(404);
  std::mt19937_64 rng(2024);
  for (const bool live_mode : {false, true}) {
    for (const auto def :
         {api::FlowDefinition::five_tuple, api::FlowDefinition::prefix24}) {
      const std::string batch_ref =
          live_mode ? "" : batch_reference(batch_config(def), packets);
      const std::vector<std::string> live_ref =
          live_mode ? live_reference(live_config(def), packets)
                    : std::vector<std::string>{};
      for (int trial = 0; trial < 3; ++trial) {
        const std::size_t k =
            std::uniform_int_distribution<std::size_t>(1, 8)(rng);
        std::vector<agg::PartialFile> files;
        for (std::size_t i = 0; i < k; ++i) {
          files.push_back(
              produce_in_memory(live_mode, def, shard_of(packets, def, i, k)));
          std::shuffle(files.back().windows.begin(),
                       files.back().windows.end(), rng);
        }
        std::shuffle(files.begin(), files.end(), rng);
        agg::Merger merger;
        for (auto& f : files) merger.add(std::move(f));
        const agg::MergeResult merged = merger.finish();
        SCOPED_TRACE("live=" + std::to_string(live_mode) +
                     " def=" + std::to_string(static_cast<int>(def)) +
                     " K=" + std::to_string(k));
        if (live_mode) {
          EXPECT_EQ(merged.lines, live_ref);
        } else {
          EXPECT_EQ(merged.document, batch_ref);
        }
      }
    }
  }
}

net::Prefix pfx(const char* addr, int len) {
  return net::Prefix(*net::Ipv4Address::parse(addr), len);
}

std::vector<engine::LinkSpec> engine_links() {
  std::vector<engine::LinkSpec> specs;
  engine::LinkSpec low;
  low.name = "low";
  low.rule = engine::MatchPrefixes{{pfx("10.0.0.0", 14)}};
  specs.push_back(low);
  engine::LinkSpec tap;
  tap.name = "tap";
  tap.rule = engine::MatchAll{};
  specs.push_back(tap);
  return specs;
}

TEST(AggregateDifferential, EngineBatchSplitsMergeByteIdentical) {
  const auto packets = seeded_trace(303);
  const auto def = api::FlowDefinition::five_tuple;
  const api::AnalysisConfig analysis = batch_config(def);

  engine::EngineConfig config;
  config.mode = engine::EngineMode::batch;
  config.analysis = analysis;

  // Reference: one engine over the whole trace, fitted locally.
  std::string reference;
  {
    engine::Engine eng(config);
    std::map<engine::LinkId, std::vector<api::AnalysisReport>> by_link;
    eng.set_report_sink([&](engine::LinkReport&& r) {
      by_link[r.link].push_back(std::move(*r.interval));
    });
    for (auto spec : engine_links()) (void)eng.attach(std::move(spec));
    push_all(eng, packets);
    eng.finish();
    std::vector<engine::LinkBatchResult> results;
    for (auto& link : eng.links()) {
      results.push_back({std::move(link.name), link.counters,
                         std::move(by_link[link.id])});
    }
    reference = engine::to_json(eng.summary(), results);
  }

  // K producers, each an engine over one flow-key shard.
  const std::size_t k = 3;
  for (std::size_t i = 0; i < k; ++i) {
    engine::Engine eng(config);
    agg::PartialMeta meta = agg::PartialMeta::from_batch(analysis);
    meta.engine = true;
    const auto specs = engine_links();
    for (std::size_t j = 0; j < specs.size(); ++j) {
      meta.links.push_back({static_cast<std::uint32_t>(j), specs[j].name});
    }
    agg::PartialWriter writer(temp_partial(i), std::move(meta));
    eng.set_partial_sink([&](engine::LinkId link, const std::string&,
                             live::WindowPartial&& w) {
      writer.add(static_cast<std::uint32_t>(link), w);
    });
    for (auto spec : engine_links()) (void)eng.attach(std::move(spec));
    push_all(eng, shard_of(packets, def, i, k));
    eng.finish();
    agg::PartialTotals totals;
    totals.summary = eng.summary();
    for (const auto& link : eng.links()) {
      totals.links.push_back({static_cast<std::uint32_t>(link.id),
                              link.counters.packets, link.counters.bytes});
    }
    writer.finish(totals);
  }

  agg::Merger merger;
  for (std::size_t i = 0; i < k; ++i) merger.add_file(temp_partial(i));
  agg::MergeResult merged = merger.finish();
  EXPECT_TRUE(merged.engine);
  EXPECT_EQ(merged.document, reference);
}

TEST(AggregateDifferential, EngineLiveMergePinsPerLinkSubsequences) {
  const auto packets = seeded_trace(404);
  const auto def = api::FlowDefinition::five_tuple;

  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live = live_config(def);

  // Reference: streaming engine, lines interleaved by packet arrival.
  std::vector<std::string> reference;
  {
    engine::Engine eng(config);
    eng.set_report_sink([&](engine::LinkReport&& r) {
      reference.push_back(engine::to_jsonl(r));
    });
    for (auto spec : engine_links()) (void)eng.attach(std::move(spec));
    push_all(eng, packets);
    eng.finish();
  }
  ASSERT_FALSE(reference.empty());

  const std::size_t k = 2;
  for (std::size_t i = 0; i < k; ++i) {
    engine::Engine eng(config);
    agg::PartialMeta meta = agg::PartialMeta::from_live(config.live);
    meta.engine = true;
    const auto specs = engine_links();
    for (std::size_t j = 0; j < specs.size(); ++j) {
      meta.links.push_back({static_cast<std::uint32_t>(j), specs[j].name});
    }
    agg::PartialWriter writer(temp_partial(i), std::move(meta));
    eng.set_partial_sink([&](engine::LinkId link, const std::string&,
                             live::WindowPartial&& w) {
      writer.add(static_cast<std::uint32_t>(link), w);
    });
    for (auto spec : engine_links()) (void)eng.attach(std::move(spec));
    push_all(eng, shard_of(packets, def, i, k));
    eng.finish();
    agg::PartialTotals totals;
    totals.summary = eng.summary();
    for (const auto& link : eng.links()) {
      totals.links.push_back({static_cast<std::uint32_t>(link.id),
                              link.counters.packets, link.counters.bytes});
    }
    writer.finish(totals);
  }

  agg::Merger merger;
  for (std::size_t i = 0; i < k; ++i) merger.add_file(temp_partial(i));
  const agg::MergeResult merged = merger.finish();

  // Same line multiset...
  std::vector<std::string> a = reference;
  std::vector<std::string> b = merged.lines;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);

  // ...and byte-identical per-link subsequences (the interleave across
  // links is the only thing streaming order may change).
  for (const char* name : {"\"link\": \"low\"", "\"link\": \"tap\""}) {
    const auto filter = [&](const std::vector<std::string>& lines) {
      std::vector<std::string> out;
      for (const auto& line : lines) {
        if (line.find(name) != std::string::npos) out.push_back(line);
      }
      return out;
    };
    EXPECT_EQ(filter(reference), filter(merged.lines)) << name;
  }
}

TEST(AggregateDifferential, MergerRejectsCorruptAndIncompatibleInputs) {
  const auto packets = seeded_trace(505);
  const auto def = api::FlowDefinition::five_tuple;
  produce_batch_partial(batch_config(def), packets, temp_partial(0));

  // Bit-flip one payload byte: add_file must throw, not fold garbage.
  {
    std::ifstream in(temp_partial(0), std::ios::binary);
    std::vector<char> bytes(std::istreambuf_iterator<char>(in), {});
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream out(temp_partial(1), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  {
    agg::Merger merger;
    EXPECT_THROW(merger.add_file(temp_partial(1)), std::runtime_error);
  }

  // A partial produced under different knobs refuses to fold.
  produce_batch_partial(batch_config(api::FlowDefinition::prefix24), packets,
                        temp_partial(2));
  {
    agg::Merger merger;
    merger.add_file(temp_partial(0));
    EXPECT_THROW(merger.add_file(temp_partial(2)), std::runtime_error);
  }

  // No files, and all-empty merges, are errors too.
  EXPECT_THROW((void)agg::Merger().finish(), std::runtime_error);
}

}  // namespace
}  // namespace fbm
