// Schema stability of the multi-link fbm_live --link JSONL output: the live
// schema (live/window_report.hpp) with "link" prepended. Pinned with the
// shared tests/support/json_fields.hpp reader, as the single-link schema is
// in tests/live/test_live_jsonl_schema.cpp.
//
// The EngineJsonl* tests double as the CI validator: the engine-smoke job
// runs fbm_live with three --link specs over the golden trace and re-runs
// this test with FBM_ENGINE_JSONL pointing at the captured output.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "../support/collect.hpp"
#include "../support/push.hpp"
#include "api/api.hpp"
#include "../support/json_fields.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

using testsupport::push_all;

const std::vector<std::string>& expected_keys() {
  static const std::vector<std::string> keys{
      "link",
      "window", "start_s", "width_s", "stride_s", "packets", "bytes",
      "discards",
      "flows", "count", "lambda_per_s", "mean_size_bits",
      "mean_s2_over_d_bits2_per_s", "mean_duration_s", "stddev_size_bits",
      "stddev_duration_s", "mean_rate_bps",
      "measured", "samples", "mean_bps", "variance_bps2", "cov",
      "model", "shot_b_fitted", "shot_b_used", "mean_bps", "stddev_bps",
      "cov",
      "provisioning", "eps", "capacity_bps", "headroom",
      "forecast", "predicted_mean_bps", "band_low_bps", "band_high_bps",
      "sigma_bps", "order",
      "anomaly", "alert", "kind", "deviation_sigma", "consecutive",
      "bin_events", "bin_peak_sigma"};
  return keys;
}

void expect_schema(const std::string& line) {
  const auto fields = testsupport::parse_fields(line);
  const auto& keys = expected_keys();
  ASSERT_EQ(fields.size(), keys.size()) << line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(fields[i].key, keys[i]) << "field " << i;
    EXPECT_FALSE(fields[i].value.empty()) << fields[i].key;
  }
}

TEST(EngineJsonl, LinkFieldLeadsAndEscapes) {
  live::WindowReport report;
  const std::string line = live::to_jsonl(report, "core east");
  EXPECT_EQ(line.find('\n'), std::string::npos);
  expect_schema(line);
  const auto fields = testsupport::parse_fields(line);
  EXPECT_EQ(fields[0].key, "link");
  EXPECT_EQ(fields[0].value, "\"core east\"");
  // The remainder is byte-identical to the single-link line.
  const std::string plain = live::to_jsonl(report);
  EXPECT_EQ(line.substr(line.find(", \"window\"") + 2), plain.substr(1));
  // A hostile link name is escaped (json_fields can't parse escapes, so
  // compare the rendered prefix directly).
  const std::string hostile = live::to_jsonl(report, "od\"d\\name");
  EXPECT_EQ(hostile.rfind("{\"link\": \"od\\\"d\\\\name\", \"window\"", 0),
            0u)
      << hostile;
}

TEST(EngineJsonl, EngineOutputMatchesSchema) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 20.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(4e6);
  cfg.seed = 99;
  const auto packets = trace::generate_packets(cfg);

  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live.window_s = 5.0;
  config.live.analysis.timeout_s(2.0);
  engine::Engine eng(config);
  const auto eng_reports = testsupport::collect(eng);
  (void)eng.attach(engine::parse_link_spec("low=10.0.0.0/15"));
  (void)eng.attach(engine::parse_link_spec("tap=all"));
  push_all(eng, packets);
  eng.finish();
  const auto reports = eng_reports->take();
  ASSERT_GE(reports.size(), 6u);
  for (const auto& r : reports) {
    SCOPED_TRACE(r.name);
    expect_schema(engine::to_jsonl(r));
  }
}

/// CI hook: validate a captured multi-link fbm_live --json run, line by
/// line (engine-smoke sets FBM_ENGINE_JSONL). Windows must be contiguous
/// per link.
TEST(EngineJsonl, ValidatesCapturedFile) {
  const char* path = std::getenv("FBM_ENGINE_JSONL");
  if (path == nullptr) GTEST_SKIP() << "FBM_ENGINE_JSONL not set";
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::string line;
  std::size_t lines = 0;
  std::map<std::string, std::size_t> next_window;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    SCOPED_TRACE(lines);
    expect_schema(line);
    const auto fields = testsupport::parse_fields(line);
    const std::string& link = fields[0].value;
    const auto window =
        static_cast<std::size_t>(std::stoul(fields[1].value));
    EXPECT_EQ(window, next_window[link]) << link;  // contiguous per link
    next_window[link] = window + 1;
    ++lines;
  }
  EXPECT_GT(lines, 0u);
  EXPECT_GE(next_window.size(), 3u) << "expected 3 links in the smoke run";
}

}  // namespace
}  // namespace fbm
