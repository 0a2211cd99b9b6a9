// Schema stability of the fbm_live JSONL output, pinned with the shared
// tests/support/json_fields.hpp reader: key order is part of the contract
// (external dashboards and the live-smoke CI job parse these lines).
//
// The LiveJsonl* tests double as the CI validator: the live-smoke job runs
// fbm_live --json on a synthetic trace and re-runs this test with
// FBM_LIVE_JSONL pointing at the captured output, which validates every
// emitted line against the same schema.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "../support/collect.hpp"
#include "../support/push.hpp"
#include "live/live.hpp"
#include "../support/json_fields.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

using testsupport::push_all;

const std::vector<std::string>& expected_keys() {
  static const std::vector<std::string> keys{
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

TEST(LiveJsonl, DefaultReportMatchesSchema) {
  // A default-constructed report (cold start: no forecast, no anomaly)
  // renders every key with null placeholders where no value exists yet.
  live::WindowReport report;
  const std::string line = live::to_jsonl(report);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  expect_schema(line);

  const auto fields = testsupport::parse_fields(line);
  for (const auto& f : fields) {
    if (f.key == "predicted_mean_bps" || f.key == "band_low_bps" ||
        f.key == "band_high_bps" || f.key == "sigma_bps" ||
        f.key == "kind") {
      EXPECT_EQ(f.value, "null") << f.key;
    }
    if (f.key == "alert") {
      EXPECT_EQ(f.value, "false");
    }
  }
}

TEST(LiveJsonl, PopulatedReportMatchesSchema) {
  live::WindowReport report;
  report.window_index = 3;
  report.start_s = 30.0;
  report.width_s = 10.0;
  report.stride_s = 10.0;
  report.packets = 1234;
  report.shot_b = 1.25;
  report.forecast.available = true;
  report.forecast.predicted_mean_bps = 5e6;
  report.forecast.band_low_bps = 4e6;
  report.forecast.band_high_bps = 6e6;
  report.forecast.sigma_bps = 1e6 / 3.0;
  report.forecast.order = 2;
  report.anomaly.alert = true;
  report.anomaly.kind = live::AlertKind::spike;
  const std::string line = live::to_jsonl(report);
  expect_schema(line);

  const auto fields = testsupport::parse_fields(line);
  for (const auto& f : fields) {
    if (f.key == "shot_b_fitted") {
      EXPECT_EQ(f.value, "1.25");
    }
    if (f.key == "kind") {
      EXPECT_EQ(f.value, "\"spike\"");
    }
    if (f.key == "alert") {
      EXPECT_EQ(f.value, "true");
    }
    if (f.key == "predicted_mean_bps") {
      EXPECT_EQ(f.value, "5e+06");  // shortest round-trip form
    }
  }
}

TEST(LiveJsonl, EstimatorOutputMatchesSchema) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 20.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(4e6);
  cfg.seed = 99;
  const auto packets = trace::generate_packets(cfg);

  live::LiveConfig config;
  config.window_s = 5.0;
  config.analysis.timeout_s(2.0);
  live::WindowedEstimator estimator(config);
  const auto estimator_reports = testsupport::collect(estimator);
  push_all(estimator, packets);
  estimator.finish();
  const auto reports = estimator_reports->take();
  ASSERT_GE(reports.size(), 3u);
  for (const auto& r : reports) {
    SCOPED_TRACE(r.window_index);
    expect_schema(live::to_jsonl(r));
  }
}

/// CI hook: validate a captured fbm_live --json run, line by line, with the
/// same reader (live-smoke sets FBM_LIVE_JSONL).
TEST(LiveJsonl, ValidatesCapturedFile) {
  const char* path = std::getenv("FBM_LIVE_JSONL");
  if (path == nullptr) GTEST_SKIP() << "FBM_LIVE_JSONL not set";
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::string line;
  std::size_t lines = 0;
  std::size_t last_window = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    SCOPED_TRACE(lines);
    expect_schema(line);
    const auto fields = testsupport::parse_fields(line);
    const std::size_t window =
        static_cast<std::size_t>(std::stoul(fields[0].value));
    if (lines > 0) {
      EXPECT_EQ(window, last_window + 1);  // contiguous
    }
    last_window = window;
    ++lines;
  }
  EXPECT_GT(lines, 0u);
}

}  // namespace
}  // namespace fbm
