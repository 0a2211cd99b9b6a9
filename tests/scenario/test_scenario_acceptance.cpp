// Acceptance: the bundled scenarios must be detected by the live monitor
// with precision >= 0.9 AND recall >= 0.9, with detection latency
// reported. This mirrors the scenario run the scenario-smoke CI job gates
// (`fbm_trace_gen OUT --scenario SPEC`, then `fbm_live OUT --truth
// OUT.truth --window 5 --stride 0 --timeout 1 --delta 0.1 --warmup 8`), so
// the job and this test gate the same pipeline from two angles.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "live/live.hpp"
#include "net/packet_batch.hpp"
#include "scenario/score.hpp"
#include "scenario/source.hpp"
#include "scenario/spec.hpp"
#include "scenario/truth.hpp"

namespace fbm::scenario {
namespace {

std::filesystem::path data_dir() { return FBM_TEST_DATA_DIR; }

/// The live configuration of the CI scenario run: the spec's window and
/// stride, a 1 s flow timeout, Delta 0.1 s and 8 warm-up windows.
live::LiveConfig tool_config(const ScenarioSpec& spec) {
  live::LiveConfig config;
  config.window_s = spec.window_s;
  config.stride_s = spec.stride_s;
  config.band_k_sigma = 3.0;
  config.forecast_max_order = 8;
  config.alert_min_consecutive = 1;
  config.alert_warmup_windows = 8;
  config.analysis.timeout_s(1.0).delta_s(0.1).epsilon(0.01);
  config.validate();
  return config;
}

ScoreReport run_scenario(const std::filesystem::path& spec_path) {
  const ScenarioSpec spec = load_scenario(spec_path);
  const TruthLog truth = derive_truth(spec);

  live::WindowedEstimator estimator(tool_config(spec));
  std::vector<ObservedWindow> observed;
  estimator.set_window_sink(
      [&](live::WindowReport&& r) { observed.push_back(observe(r)); });

  ScenarioTraceSource source(spec);
  net::PacketBatch batch;
  while (source.next_batch(batch, 1024) > 0) estimator.push_batch(batch);
  estimator.finish();
  return score(truth, observed);
}

void expect_accepted(const ScoreReport& r) {
  EXPECT_GE(r.precision, 0.9) << "TP " << r.true_positives << " FP "
                              << r.false_positives;
  EXPECT_GE(r.recall, 0.9) << "detected " << r.detected_events << "/"
                           << r.events.size();
  EXPECT_GT(r.alerts, 0u);
  ASSERT_TRUE(r.mean_detection_latency_s.has_value());
  ASSERT_TRUE(r.max_detection_latency_s.has_value());
  EXPECT_GE(*r.mean_detection_latency_s, 0.0);
  for (const auto& es : r.events) {
    EXPECT_TRUE(es.detected) << live::to_string(es.event.kind) << " at "
                             << es.event.start_s;
  }
}

TEST(ScenarioAcceptance, BundledDdosFlood) {
  const ScoreReport r = run_scenario(data_dir() / "scenario_ddos.scn");
  EXPECT_EQ(r.scenario, "ddos-flood");
  ASSERT_EQ(r.events.size(), 1u);
  expect_accepted(r);
}

TEST(ScenarioAcceptance, BundledFlashCrowd) {
  const ScoreReport r =
      run_scenario(data_dir() / "scenario_flash_crowd.scn");
  EXPECT_EQ(r.scenario, "flash-crowd");
  ASSERT_EQ(r.events.size(), 1u);
  expect_accepted(r);
}

TEST(ScenarioAcceptance, ScoreJsonMatchesSchema) {
  const ScoreReport r = run_scenario(data_dir() / "scenario_ddos.scn");
  const std::string json = to_json(r);
  for (const char* key :
       {"\"fbm_scenario_score\": 1", "\"scenario\": \"ddos-flood\"",
        "\"seed\": ", "\"duration_s\": ", "\"windows\": ", "\"alerts\": ",
        "\"true_positives\": ", "\"false_positives\": ",
        "\"ignored_alerts\": ", "\"false_negatives\": ",
        "\"precision\": ", "\"recall\": ", "\"detected_events\": ",
        "\"mean_detection_latency_s\": ", "\"max_detection_latency_s\": ",
        "\"events\": [", "\"kind\": \"spike\"", "\"link\": ",
        "\"start_s\": ", "\"end_s\": ", "\"detected\": true,",
        "\"matched_alerts\": ", "\"detection_latency_s\": "}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace fbm::scenario
