// perf::BenchReport schema: the BENCH_*.json files are uploaded by CI and
// consumed by external dashboards, so the key set and nesting are
// contractual. The emitted JSON must parse with the same field scanner the
// golden-report regression uses.
#include "perf/bench_report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "../support/json_fields.hpp"
#include "perf/stopwatch.hpp"

#ifdef FBM_HAVE_BENCH_COMMON
#include "common.hpp"
#endif

namespace fbm {
namespace {

using testsupport::Field;
using testsupport::parse_fields;

perf::BenchReport sample_report() {
  perf::BenchReport report;
  report.bench = "schema_probe";
  report.set_config("threads", std::uint64_t{4});
  report.set_config("quick", true);
  report.set_config("label", std::string("scaled sprint corpus"));
  report.set_config("time_scale", 1.0 / 60.0);
  report.wall_s = 1.5;
  report.packets_per_s = 250000.0;
  report.peak_rss_kb = 10240;
  report.packets = 375000;
  report.set_metric("classify_5tuple_pps", 1.4e7);
  report.git_sha = "deadbeef";
  return report;
}

std::vector<std::string> keys_of(const std::vector<Field>& fields) {
  std::vector<std::string> keys;
  keys.reserve(fields.size());
  for (const auto& f : fields) keys.push_back(f.key);
  return keys;
}

const Field& field_named(const std::vector<Field>& fields,
                         const std::string& key) {
  static const Field missing{"<missing>", "<missing>"};
  const auto it =
      std::find_if(fields.begin(), fields.end(),
                   [&](const Field& f) { return f.key == key; });
  EXPECT_NE(it, fields.end()) << "missing key " << key;
  return it == fields.end() ? missing : *it;
}

TEST(BenchReport, JsonParsesWithTheGoldenReportReader) {
  const auto fields = parse_fields(sample_report().to_json());
  const auto keys = keys_of(fields);

  // The stable schema: these keys exist, in this document order.
  const char* required[] = {"bench",       "config",        "metrics",
                            "wall_s",      "packets_per_s", "peak_rss_kb",
                            "git_sha"};
  std::size_t cursor = 0;
  for (const char* key : required) {
    const auto it = std::find(keys.begin() + static_cast<std::ptrdiff_t>(cursor),
                              keys.end(), key);
    ASSERT_NE(it, keys.end()) << "missing or out of order: " << key;
    cursor = static_cast<std::size_t>(it - keys.begin()) + 1;
  }

  EXPECT_EQ(field_named(fields, "bench").value, "\"schema_probe\"");
  EXPECT_EQ(field_named(fields, "git_sha").value, "\"deadbeef\"");
  EXPECT_EQ(field_named(fields, "config").value, "{");
  EXPECT_EQ(field_named(fields, "metrics").value, "{");
}

TEST(BenchReport, NumericFieldsRoundTrip) {
  const auto fields = parse_fields(sample_report().to_json());
  const auto numeric = [&](const std::string& key) {
    return std::strtod(field_named(fields, key).value.c_str(), nullptr);
  };
  EXPECT_DOUBLE_EQ(numeric("wall_s"), 1.5);
  EXPECT_DOUBLE_EQ(numeric("packets_per_s"), 250000.0);
  EXPECT_DOUBLE_EQ(numeric("peak_rss_kb"), 10240.0);
  EXPECT_DOUBLE_EQ(numeric("packets"), 375000.0);
  EXPECT_DOUBLE_EQ(numeric("classify_5tuple_pps"), 1.4e7);
  EXPECT_DOUBLE_EQ(numeric("threads"), 4.0);
  EXPECT_DOUBLE_EQ(numeric("time_scale"), 1.0 / 60.0);
}

TEST(BenchReport, QuotesAreEscapedInStrings) {
  perf::BenchReport report = sample_report();
  report.set_config("note", std::string("a \"quoted\" token"));
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"a \\\"quoted\\\" token\""), std::string::npos);
}

TEST(BenchReport, SummaryWrapsEveryReport) {
  const perf::BenchReport a = sample_report();
  perf::BenchReport b = sample_report();
  b.bench = "second_probe";
  const std::vector<perf::BenchReport> reports = {a, b};
  const auto fields = parse_fields(perf::summary_json(reports));
  const auto keys = keys_of(fields);
  EXPECT_EQ(std::count(keys.begin(), keys.end(), "bench"), 2);
  EXPECT_EQ(field_named(fields, "schema").value, "1");
  EXPECT_EQ(field_named(fields, "benches").value, "[");
}

TEST(BenchReport, PeakRssIsReported) {
  // getrusage must yield something plausible for a running test binary.
  EXPECT_GT(perf::peak_rss_kb(), 1000u);
}

TEST(Stopwatch, MeasuresForwardTime) {
  perf::Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(watch.elapsed_s(), 0.0);
  watch.reset();
  EXPECT_LT(watch.elapsed_s(), 1.0);
}

#ifdef FBM_HAVE_BENCH_COMMON

int schema_probe_bench(bench::Context& ctx) {
  ctx.count_packets(1000);
  ctx.report().set_metric("probe_metric", 3.25);
  // Burn a hair of wall time so packets_per_s is finite and positive.
  perf::Stopwatch watch;
  while (watch.elapsed_s() <= 0.0) {
  }
  return 0;
}

TEST(BenchRegistry, RunRegisteredEmitsParseableTelemetry) {
  // Registered here (not via FBM_BENCH: the test binary must not grow a
  // main), then run through the exact path fbm_bench --quick uses.
  const bench::BenchInfo info{"schema_probe", &schema_probe_bench};
  perf::BenchReport report;
  const int rc = bench::run_registered(info, /*quick=*/true, report);
  EXPECT_EQ(rc, 0);

  EXPECT_EQ(report.bench, "schema_probe");
  EXPECT_GT(report.wall_s, 0.0);
  EXPECT_GT(report.packets_per_s, 0.0);
  EXPECT_EQ(report.packets, 1000u);

  const auto fields = parse_fields(report.to_json());
  // The resolved quick flag lands in every report.
  EXPECT_EQ(field_named(fields, "quick").value, "true");
  EXPECT_DOUBLE_EQ(
      std::strtod(field_named(fields, "probe_metric").value.c_str(),
                  nullptr),
      3.25);
  EXPECT_DOUBLE_EQ(
      std::strtod(field_named(fields, "packets").value.c_str(), nullptr),
      1000.0);
}

/// The line of `out` that contains `needle`; empty when none does.
std::string line_with(const std::string& out, const std::string& needle) {
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (line.find(needle) != std::string::npos) return line;
  }
  return {};
}

int one_failing_check_bench(bench::Context& ctx) {
  ctx.check("inside its band", 1.0, 0.5, 2.0, "probe band A");
  ctx.check("outside its band", 3.5, 0.5, 2.0, "probe band B");
  return 0;
}

int passing_checks_bench(bench::Context& ctx) {
  ctx.check("lower edge", 0.5, 0.5, 2.0, "probe band A");
  ctx.check("upper edge", 2.0, 0.5, 2.0, "probe band A");
  return 0;
}

TEST(BenchRegistry, FailedCheckFailsTheBenchAndPrintsItsBand) {
  const bench::BenchInfo info{"check_probe", &one_failing_check_bench};
  perf::BenchReport report;
  testing::internal::CaptureStdout();
  const int rc = bench::run_registered(info, /*quick=*/true, report);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(rc, 0);

  const std::string failed = line_with(out, "outside its band");
  ASSERT_FALSE(failed.empty()) << out;
  EXPECT_NE(failed.find("3.5"), std::string::npos) << failed;
  EXPECT_NE(failed.find("[0.5, 2]"), std::string::npos) << failed;
  EXPECT_NE(failed.find("FAIL"), std::string::npos) << failed;
  EXPECT_NE(failed.find("probe band B"), std::string::npos) << failed;
  const std::string held = line_with(out, "inside its band");
  EXPECT_NE(held.find("ok"), std::string::npos) << held;
  EXPECT_EQ(held.find("FAIL"), std::string::npos) << held;
}

TEST(BenchRegistry, PassingChecksReturnZero) {
  const bench::BenchInfo info{"check_probe", &passing_checks_bench};
  perf::BenchReport report;
  testing::internal::CaptureStdout();
  const int rc = bench::run_registered(info, /*quick=*/true, report);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << out;
  EXPECT_EQ(out.find("FAIL"), std::string::npos) << out;
}

TEST(BenchRegistry, NanNeverPassesACheck) {
  const bench::BenchInfo info{"check_probe", [](bench::Context& ctx) {
                                ctx.check("nan", std::nan(""), -1e300, 1e300,
                                          "probe band C");
                                return 0;
                              }};
  perf::BenchReport report;
  testing::internal::CaptureStdout();
  const int rc = bench::run_registered(info, /*quick=*/true, report);
  testing::internal::GetCapturedStdout();
  EXPECT_NE(rc, 0);
}

#endif  // FBM_HAVE_BENCH_COMMON

}  // namespace
}  // namespace fbm
