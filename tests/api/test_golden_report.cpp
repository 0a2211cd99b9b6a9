// Golden-report regression: a checked-in seeded trace plus the fbm_analyze
// --json output it produced when this test was written. The pipeline is
// re-run here with the same configuration and compared field by field, so a
// refactor that silently drifts any number — an input estimate, a rate
// moment, the fitted shot, the capacity plan — fails loudly. The sharded
// pipeline must additionally reproduce the serial JSON byte for byte.
//
// Regenerate (only when an intentional change alters the numbers):
//   fbm_trace_gen tests/data/golden_small.fbmt --duration 10 --mbps 2
//       --seed 777
//   fbm_analyze tests/data/golden_small.fbmt --interval 4 --timeout 1
//       --min-flows 0 --json > tests/data/golden_small.json
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../support/json_fields.hpp"
#include "api/api.hpp"

#ifndef FBM_TEST_DATA_DIR
#error "FBM_TEST_DATA_DIR must point at tests/data"
#endif

namespace fbm {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

using testsupport::parse_fields;

/// The exact analysis fbm_analyze ran to produce the golden file.
std::string analyze_golden_trace(std::size_t threads) {
  auto source =
      api::open_trace(std::string(FBM_TEST_DATA_DIR) + "/golden_small.fbmt");
  api::AnalysisConfig config;
  config.interval_s(4.0).timeout_s(1.0).min_flows(0).threads(threads);
  api::AnalysisPipeline pipeline(config);
  pipeline.consume(*source);
  const auto reports = pipeline.take_reports();
  return api::to_json(pipeline.summary(), reports) + "\n";
}

TEST(GoldenReport, FieldByFieldAgainstCheckedInJson) {
  const std::string golden =
      read_file(std::string(FBM_TEST_DATA_DIR) + "/golden_small.json");
  ASSERT_FALSE(golden.empty());
  const std::string fresh = analyze_golden_trace(1);

  const auto want = parse_fields(golden);
  const auto got = parse_fields(fresh);
  ASSERT_GT(want.size(), 20u);  // sanity: the parser found the document
  ASSERT_EQ(want.size(), got.size()) << fresh;
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("field " + std::to_string(i) + " '" + want[i].key + "'");
    EXPECT_EQ(want[i].key, got[i].key);
    if (want[i].value == got[i].value) continue;  // bitwise match (or null)
    // Numbers may legitimately differ in the last ulp across libm versions;
    // anything beyond that is drift.
    char* end_w = nullptr;
    char* end_g = nullptr;
    const double w = std::strtod(want[i].value.c_str(), &end_w);
    const double g = std::strtod(got[i].value.c_str(), &end_g);
    ASSERT_TRUE(end_w != want[i].value.c_str() &&
                end_g != got[i].value.c_str())
        << "non-numeric mismatch: '" << want[i].value << "' vs '"
        << got[i].value << "'";
    EXPECT_NEAR(g, w, std::abs(w) * 1e-12)
        << "'" << want[i].value << "' vs '" << got[i].value << "'";
  }
}

TEST(GoldenReport, ShardedJsonIsByteIdenticalToSerial) {
  EXPECT_EQ(analyze_golden_trace(1), analyze_golden_trace(4));
  EXPECT_EQ(analyze_golden_trace(1), analyze_golden_trace(7));
}

}  // namespace
}  // namespace fbm
