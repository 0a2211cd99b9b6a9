// The ingest check every analysis stage runs once per batch: a NaN or
// infinite timestamp is rejected with std::invalid_argument before the
// stage changes any state, wherever it sits in the batch. A NaN passes
// every `<` ordering comparison, and a +inf clock would keep the live
// window-close loop closing empty windows forever.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "../support/push.hpp"
#include "api/api.hpp"
#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "live/live.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"

namespace fbm {
namespace {

using testsupport::push_all;

enum class Stage { pipeline, parallel, live, engine };

std::vector<net::PacketRecord> seeded_trace() {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 12.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(4e6);
  cfg.seed = 404;
  return trace::generate_packets(cfg);
}

api::AnalysisConfig analysis_config() {
  api::AnalysisConfig config;
  config.interval_s(4.0).timeout_s(1.0).min_flows(0);
  return config;
}

live::LiveConfig live_config() {
  live::LiveConfig config;
  config.window_s = 4.0;
  config.stride_s = 2.0;
  config.analysis.timeout_s(1.0);
  return config;
}

/// Runs `packets` through a fresh stage. When `bad` is set it is pushed
/// right before packet `at` and must throw std::invalid_argument. Returns
/// everything the stage reported plus its packet count, rendered as text,
/// so a rejected batch that left any trace shows up as a difference.
std::string run(Stage stage, const std::vector<net::PacketRecord>& packets,
                const net::PacketBatch* bad = nullptr, std::size_t at = 0) {
  const std::span<const net::PacketRecord> all(packets);
  std::string out;
  const auto drive = [&](auto& s) {
    push_all(s, all.first(at), 64);
    if (bad != nullptr) {
      EXPECT_THROW(s.push_batch(*bad), std::invalid_argument)
          << "the stage must reject a batch holding a non-finite timestamp "
             "before it changes any of its state";
    }
    push_all(s, all.subspan(at), 64);
    s.finish();
  };
  switch (stage) {
    case Stage::pipeline: {
      api::AnalysisPipeline p(analysis_config());
      p.set_report_sink(
          [&](api::AnalysisReport&& r) { out += api::to_json(r) + "\n"; });
      drive(p);
      out += std::to_string(p.summary().packets);
      break;
    }
    case Stage::parallel: {
      api::AnalysisPipeline p(analysis_config().threads(2));
      p.set_report_sink(
          [&](api::AnalysisReport&& r) { out += api::to_json(r) + "\n"; });
      drive(p);
      out += std::to_string(p.summary().packets);
      break;
    }
    case Stage::live: {
      live::WindowedEstimator e(live_config());
      e.set_window_sink(
          [&](live::WindowReport&& r) { out += live::to_jsonl(r) + "\n"; });
      drive(e);
      out += std::to_string(e.counters().packets);
      break;
    }
    case Stage::engine: {
      engine::EngineConfig config;
      config.mode = engine::EngineMode::live;
      config.live = live_config();
      engine::Engine eng(config);
      eng.set_report_sink([&](engine::LinkReport&& r) {
        out += engine::to_jsonl(r) + "\n";
      });
      (void)eng.attach(engine::parse_link_spec("left=10.0.0.0/16"));
      (void)eng.attach(engine::parse_link_spec("tap=*"));
      drive(eng);
      out += std::to_string(eng.summary().packets);
      break;
    }
  }
  return out;
}

class IngestCheck
    : public ::testing::TestWithParam<std::tuple<Stage, double>> {};

TEST_P(IngestCheck, RejectsNonFiniteBeforeAnyStateChange) {
  const auto [stage, value] = GetParam();
  const auto packets = seeded_trace();
  ASSERT_GT(packets.size(), 8u);
  const std::string clean = run(stage, packets);

  // The valid packets around the bad timestamp are the next ones of the
  // stream, so a stage that absorbed any of them before throwing would
  // count them twice. First in a fresh stage, -inf is in order: only the
  // finiteness check stops it.
  const std::size_t mid = packets.size() / 2;
  const auto poisoned = [&](std::size_t i) {
    net::PacketRecord p = packets[i];
    p.timestamp = value;
    return p;
  };
  net::PacketBatch first;
  first.push_back(poisoned(0));
  first.push_back(packets[0]);
  net::PacketBatch middle;
  middle.push_back(packets[mid]);
  middle.push_back(poisoned(mid + 1));
  middle.push_back(packets[mid + 1]);
  net::PacketBatch last;
  last.push_back(packets[mid]);
  last.push_back(poisoned(mid + 1));

  EXPECT_EQ(clean, run(stage, packets, &first, 0)) << "stream start";
  EXPECT_EQ(clean, run(stage, packets, &middle, mid)) << "mid-batch";
  EXPECT_EQ(clean, run(stage, packets, &last, mid)) << "last in batch";
}

std::string param_name(
    const ::testing::TestParamInfo<IngestCheck::ParamType>& info) {
  static const char* const kStages[] = {"pipeline", "parallel", "live",
                                        "engine"};
  const double v = std::get<1>(info.param);
  const char* value =
      std::isnan(v) ? "nan" : (v > 0.0 ? "pos_inf" : "neg_inf");
  return std::string(kStages[static_cast<int>(std::get<0>(info.param))]) +
         "_" + value;
}

INSTANTIATE_TEST_SUITE_P(
    AllStages, IngestCheck,
    ::testing::Combine(
        ::testing::Values(Stage::pipeline, Stage::parallel, Stage::live,
                          Stage::engine),
        ::testing::Values(std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity())),
    param_name);

// End to end through a file: a trace whose last record is +inf must make
// consume() throw instead of closing windows forever.
TEST(IngestCheckFile, ConsumeThrowsOnTrailingInfinity) {
  auto packets = seeded_trace();
  net::PacketRecord last = packets.back();
  last.timestamp = std::numeric_limits<double>::infinity();
  packets.push_back(last);
  const auto path =
      std::filesystem::temp_directory_path() / "fbm_ingest_check_inf.fbmt";
  trace::write_trace(path, packets);

  {
    api::FileTraceSource source(path);
    api::AnalysisPipeline p(analysis_config());
    EXPECT_THROW(p.consume(source), std::invalid_argument)
        << "sequential pipeline";
  }
  {
    api::FileTraceSource source(path);
    api::AnalysisPipeline p(analysis_config().threads(2));
    EXPECT_THROW(p.consume(source), std::invalid_argument)
        << "parallel pipeline";
  }
  {
    api::FileTraceSource source(path);
    live::WindowedEstimator e(live_config());
    EXPECT_THROW((void)e.consume(source), std::invalid_argument)
        << "windowed estimator";
  }
  {
    api::FileTraceSource source(path);
    engine::EngineConfig config;
    config.mode = engine::EngineMode::live;
    config.live = live_config();
    engine::Engine eng(config);
    (void)eng.attach(engine::parse_link_spec("tap=*"));
    EXPECT_THROW((void)eng.consume(source), std::invalid_argument)
        << "engine";
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fbm
