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
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "../support/collect.hpp"
#include "../support/push.hpp"
#include "../support/sharded.hpp"
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

/// Single-machine reference: one serial estimator over the whole trace,
/// rendered exactly as `fbm_analyze --json` renders it.
std::string batch_reference(const api::AnalysisConfig& config,
                            const std::vector<net::PacketRecord>& packets) {
  return api::to_json(summarize(packets), api::analyze(packets, config));
}

/// One shard producer: pushes `packets` through an estimator of tiling
/// batch windows with a partial sink, writes one partial file.
void produce_batch_partial(const api::AnalysisConfig& config,
                           const std::vector<net::PacketRecord>& packets,
                           const std::filesystem::path& path) {
  live::WindowedEstimator estimator(live::batch_windows(config));
  agg::PartialWriter writer(path, agg::PartialMeta::from_batch(config));
  estimator.set_partial_sink(
      [&](api::WindowPartial&& iv) { writer.add(0, iv); });
  push_all(estimator, packets);
  estimator.finish();
  writer.finish({summarize(packets), {}});
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
  // A producer that is itself a link of 3 flow-hash shards on 3 workers
  // emits the partials a serial producer would (shards are a throughput
  // knob, not identity), so a mixed fleet folds too.
  const auto packets = seeded_trace(77);
  const auto def = api::FlowDefinition::five_tuple;
  const api::AnalysisConfig config = batch_config(def);
  const std::string reference = batch_reference(config, packets);

  {
    engine::EngineConfig ec;
    ec.live.analysis = config;
    ec.shards = 3;
    ec.threads = 3;
    agg::PartialWriter writer(temp_partial(0),
                              agg::PartialMeta::from_batch(config));
    engine::Engine eng(ec);
    eng.set_partial_sink([&](engine::LinkId, const std::string&,
                             api::WindowPartial&& iv) { writer.add(0, iv); });
    (void)eng.attach(engine::parse_link_spec("all=*"));
    push_all(eng, shard_of(packets, def, 0, 2));
    eng.finish();
    writer.finish({eng.summary(), {}});
  }
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

TEST(AggregateDifferential, MinFlowsBoundaryAgreesOnEveryPath) {
  // Interval 0 holds exactly min_flows two-packet flows and interval 1 one
  // fewer: the first is reported and the second is not, by api::analyze, by
  // a two-shard engine link and by a two-producer emit-and-merge alike.
  constexpr std::size_t kMinFlows = 6;
  std::vector<net::PacketRecord> packets;
  for (std::size_t iv = 0; iv < 2; ++iv) {
    for (std::size_t f = 0; f < kMinFlows - iv; ++f) {
      net::PacketRecord p;
      p.timestamp = 10.0 * static_cast<double>(iv) + 1.0 +
                    0.1 * static_cast<double>(f);
      p.tuple.src = net::Ipv4Address(10, 0, 0, 1);
      p.tuple.dst = net::Ipv4Address(10, 1, 0, 1);
      p.tuple.src_port = static_cast<std::uint16_t>(1000 + 100 * iv + f);
      p.tuple.dst_port = 80;
      p.tuple.protocol = 6;
      p.size_bytes = 1000;
      packets.push_back(p);
      p.timestamp += 0.05;
      packets.push_back(p);
    }
  }
  const auto def = api::FlowDefinition::five_tuple;
  const api::AnalysisConfig config = batch_config(def, kMinFlows);

  const auto expect_interval_0_only =
      [&](const std::vector<api::AnalysisReport>& reports) {
        ASSERT_EQ(reports.size(), 1u);
        EXPECT_EQ(reports[0].interval_index, 0u);
        EXPECT_EQ(reports[0].inputs.flows, kMinFlows);
      };
  expect_interval_0_only(api::analyze(packets, config));
  expect_interval_0_only(testsupport::sharded_analyze(packets, config, 2));

  for (std::size_t i = 0; i < 2; ++i) {
    const auto shard = shard_of(packets, def, i, 2);
    ASSERT_FALSE(shard.empty());
    produce_batch_partial(config, shard, temp_partial(i));
  }
  const std::string merged = merge_files(2);
  EXPECT_NE(merged.find("\"interval_index\": 0"), std::string::npos);
  EXPECT_EQ(merged.find("\"interval_index\": 1"), std::string::npos);
  EXPECT_EQ(merged, batch_reference(config, packets));
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
/// intervals or live windows) as its estimator emitted them.
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
    live::WindowedEstimator estimator(live::batch_windows(batch_config(def)));
    estimator.set_partial_sink(collect);
    push_all(estimator, shard);
    estimator.finish();
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
  config.live.analysis = analysis;

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

TEST(AggregateDifferential, MergerRefusesInvalidConfigsAndForeignGrids) {
  // A well-formed file (fresh checksums) whose meta no producer could have
  // run with, or whose window grids are not the meta's, must be refused
  // before anything folds, by file and field name — never fitted.
  const auto packets = seeded_trace(606);
  produce_batch_partial(batch_config(api::FlowDefinition::five_tuple),
                        packets, temp_partial(0));
  produce_live_partial(live_config(api::FlowDefinition::five_tuple), packets,
                       temp_partial(1));
  const auto expect_refused = [&](std::size_t source, const char* field,
                                  const auto& edit) {
    SCOPED_TRACE(field);
    agg::PartialFile bad = agg::read_partial_file(temp_partial(source));
    edit(bad);
    {
      agg::PartialWriter writer(temp_partial(2), bad.meta);
      for (const auto& w : bad.windows) writer.add(w.link_id, w.window);
      writer.finish(bad.totals);
    }
    agg::Merger merger;
    try {
      merger.add_file(temp_partial(2));
      ADD_FAILURE() << "merged a file with a bad " << field;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(temp_partial(2).string()), std::string::npos)
          << what;
      EXPECT_NE(what.find(field), std::string::npos) << what;
    }
    EXPECT_EQ(merger.files(), 0u);
  };
  const double inf = std::numeric_limits<double>::infinity();
  // Batch: 10 s frames under a 1 ms interval, a Delta the frames were not
  // binned at, an epsilon and shot powers the fit cannot use...
  using File = agg::PartialFile;
  expect_refused(0, "grid_end",
                 [](File& f) { f.meta.interval_s = 0.001; });
  expect_refused(0, "grid_delta", [](File& f) { f.meta.delta_s = 0.1; });
  expect_refused(0, "eps", [](File& f) { f.meta.eps = 2.0; });
  expect_refused(0, "fixed_b", [&](File& f) { f.meta.fixed_b = inf; });
  expect_refused(0, "fallback_b", [](File& f) { f.meta.fallback_b = -1.0; });
  // ...and a link whose frames skip an index.
  expect_refused(0, "window index",
                 [](File& f) { f.windows.erase(f.windows.begin()); });
  // Live: a window the frames were not cut at, a stride that moves every
  // window but the first, a forecaster no producer validates.
  expect_refused(1, "grid_end", [](File& f) { f.meta.window_s = 7.0; });
  expect_refused(1, "grid_start", [](File& f) { f.meta.stride_s = 2.0; });
  expect_refused(1, "forecast_history",
                 [](File& f) { f.meta.forecast_history = 2; });

  // The untouched files still merge.
  agg::Merger merger;
  merger.add_file(temp_partial(0));
  EXPECT_EQ(merger.files(), 1u);
}

}  // namespace
}  // namespace fbm
