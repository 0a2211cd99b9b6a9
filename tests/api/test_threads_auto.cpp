// threads == 0 means "use every core": resolve_threads() turns it into
// std::thread::hardware_concurrency() (floor 1), and the engine accepts it
// for both its workers and its shards per link — with output bit-identical
// to any other count, since both are throughput knobs, never identity.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "../support/collect.hpp"
#include "../support/push.hpp"
#include "../support/sharded.hpp"
#include "api/api.hpp"
#include "api/shard.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

using testsupport::push_all;

std::vector<net::PacketRecord> small_trace() {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 10.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(4e6);
  cfg.seed = 828;
  return trace::generate_packets(cfg);
}

api::AnalysisConfig base_config() {
  api::AnalysisConfig cfg;
  cfg.timeout_s(2.0).interval_s(5.0);
  return cfg;
}

TEST(ThreadsAuto, ResolveThreadsMapsZeroToHardwareConcurrency) {
  const std::size_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(api::resolve_threads(0), hw == 0 ? 1u : hw);
  EXPECT_GE(api::resolve_threads(0), 1u);  // floor even on unknown hardware
  EXPECT_EQ(api::resolve_threads(1), 1u);
  EXPECT_EQ(api::resolve_threads(7), 7u);  // explicit values pass through
}

TEST(ThreadsAuto, ResolveThreadsBoundsExplicitCounts) {
  // One bound for EngineConfig's threads and shards and every tool's
  // --threads. Only the checks run here: no pool is built with a rejected
  // count, and no link is attached to the engine of kMaxThreads shards.
  EXPECT_EQ(api::resolve_threads(api::kMaxThreads), api::kMaxThreads);
  EXPECT_THROW((void)api::resolve_threads(api::kMaxThreads + 1),
               std::invalid_argument);
  EXPECT_THROW((void)api::resolve_threads(static_cast<std::size_t>(-1)),
               std::invalid_argument);

  engine::EngineConfig config;
  config.live.analysis = base_config();
  config.shards = api::kMaxThreads;
  EXPECT_NO_THROW(engine::Engine{config});
  config.shards = api::kMaxThreads + 1;
  EXPECT_THROW(engine::Engine{config}, std::invalid_argument);
  config.shards = 1;
  config.threads = api::kMaxThreads + 1;
  EXPECT_THROW(engine::Engine{config}, std::invalid_argument);
}

TEST(ThreadsAuto, AutoDetectedPipelineMatchesSerialBitForBit) {
  const auto packets = small_trace();

  // One shard inline, then auto shards on auto workers: one per core,
  // each.
  const auto render = [&](std::size_t n) {
    auto eng = testsupport::sharded_engine(base_config(), n, n);
    const auto eng_reports = testsupport::collect(*eng);
    push_all(*eng, packets);
    eng->finish();
    std::vector<api::AnalysisReport> reports;
    for (auto& r : eng_reports->take()) {
      reports.push_back(std::move(*r.interval));
    }
    return api::to_json(eng->summary(), reports);
  };
  const std::string expected = render(1);
  auto autodetect = testsupport::sharded_engine(base_config(), 0, 0);
  EXPECT_EQ(autodetect->config().shards, api::resolve_threads(0));
  EXPECT_EQ(autodetect->config().threads, api::resolve_threads(0));
  EXPECT_EQ(render(0), expected);
}

TEST(ThreadsAuto, EngineAcceptsThreadsZero) {
  engine::EngineConfig config;
  config.mode = engine::EngineMode::batch;
  config.live.analysis = base_config();
  config.threads = 0;  // auto — previously rejected with invalid_argument

  engine::Engine eng(config);
  std::vector<api::AnalysisReport> reports;
  eng.set_report_sink([&](engine::LinkReport&& r) {
    reports.push_back(std::move(*r.interval));
  });
  engine::LinkSpec tap;
  tap.name = "tap";
  tap.rule = engine::MatchAll{};
  (void)eng.attach(std::move(tap));
  push_all(eng, small_trace());
  eng.finish();
  EXPECT_GT(reports.size(), 0u);
  EXPECT_EQ(eng.summary().packets > 0, true);
}

}  // namespace
}  // namespace fbm
