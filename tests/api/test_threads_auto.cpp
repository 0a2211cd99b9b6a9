// threads == 0 means "use every core": resolve_threads() turns it into
// std::thread::hardware_concurrency() (floor 1), and both the sharded
// pipeline and the engine accept it — with output bit-identical to any
// other thread count, since threads is a throughput knob, never identity.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "../support/push.hpp"
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
  // One bound for AnalysisConfig, EngineConfig and every tool's --threads.
  // Only the checks run here: no pool is built with a rejected count.
  EXPECT_EQ(api::resolve_threads(api::kMaxThreads), api::kMaxThreads);
  EXPECT_THROW((void)api::resolve_threads(api::kMaxThreads + 1),
               std::invalid_argument);
  EXPECT_THROW((void)api::resolve_threads(static_cast<std::size_t>(-1)),
               std::invalid_argument);

  api::AnalysisConfig config = base_config();
  EXPECT_NO_THROW(api::validate_config(config.threads(api::kMaxThreads)));
  EXPECT_THROW(api::validate_config(config.threads(api::kMaxThreads + 1)),
               std::invalid_argument);
}

TEST(ThreadsAuto, AutoDetectedPipelineMatchesSerialBitForBit) {
  const auto packets = small_trace();

  const auto run = [&](auto&& pipeline) {
    std::vector<api::AnalysisReport> reports;
    pipeline.set_report_sink(
        [&](api::AnalysisReport&& r) { reports.push_back(std::move(r)); });
    push_all(pipeline, packets);
    pipeline.finish();
    return api::to_json(pipeline.summary(), reports);
  };

  api::AnalysisConfig serial = base_config();
  api::AnalysisConfig autodetect = base_config();
  autodetect.threads(0);
  EXPECT_EQ(run(api::AnalysisPipeline(autodetect)),
            run(api::AnalysisPipeline(serial)));
}

TEST(ThreadsAuto, EngineAcceptsThreadsZero) {
  engine::EngineConfig config;
  config.mode = engine::EngineMode::batch;
  config.analysis = base_config();
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
