// Scenario spec parser: text round trip, per-kind defaults, validation
// errors (with line numbers), and ground-truth derivation.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "scenario/truth.hpp"

namespace fbm::scenario {
namespace {

constexpr const char* kFullSpec = R"(# exercise every key once
scenario everything
seed 99
lambda 150
size-mean-bits 30000
size-cv 1.1
duration-mean-s 0.4
duration-cv 0.9
shot-b 2
packet-bytes 1200
attack-packet-bytes 80
prefix-pool 32
window 4
stride 2
grace 12
cooldown 45
segment baseline 30
segment diurnal 60 amplitude=0.4 period=20
segment flash-crowd 25 lambda-x=5 size-x=3 prefixes=0-7
segment ddos 20 lambda-x=40 size-x=0.02 duration-x=0.2 prefixes=8-15
segment reroute 15 prefixes=0-15 to-prefixes=16-31 expect=none expect-drop=west expect-spike=east
segment baseline 40 expect=drop
)";

TEST(ScenarioSpec, ParsesEveryKey) {
  const ScenarioSpec spec = parse_scenario_text(kFullSpec);
  EXPECT_EQ(spec.name, "everything");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_DOUBLE_EQ(spec.lambda, 150.0);
  EXPECT_DOUBLE_EQ(spec.size_mean_bits, 30000.0);
  EXPECT_DOUBLE_EQ(spec.size_cv, 1.1);
  EXPECT_DOUBLE_EQ(spec.duration_mean_s, 0.4);
  EXPECT_DOUBLE_EQ(spec.duration_cv, 0.9);
  EXPECT_DOUBLE_EQ(spec.shot_b, 2.0);
  EXPECT_EQ(spec.packet_bytes, 1200u);
  EXPECT_EQ(spec.attack_packet_bytes, 80u);
  EXPECT_EQ(spec.prefix_pool, 32u);
  EXPECT_DOUBLE_EQ(spec.window_s, 4.0);
  EXPECT_DOUBLE_EQ(spec.stride_s, 2.0);
  EXPECT_DOUBLE_EQ(spec.grace_s, 12.0);
  EXPECT_DOUBLE_EQ(spec.cooldown_s, 45.0);

  ASSERT_EQ(spec.segments.size(), 6u);
  EXPECT_EQ(spec.segments[0].kind, SegmentKind::baseline);
  EXPECT_DOUBLE_EQ(spec.segments[0].duration_s, 30.0);

  EXPECT_EQ(spec.segments[1].kind, SegmentKind::diurnal);
  EXPECT_DOUBLE_EQ(spec.segments[1].amplitude, 0.4);
  EXPECT_DOUBLE_EQ(spec.segments[1].period_s, 20.0);

  EXPECT_EQ(spec.segments[2].kind, SegmentKind::flash_crowd);
  EXPECT_DOUBLE_EQ(spec.segments[2].lambda_x, 5.0);
  EXPECT_DOUBLE_EQ(spec.segments[2].size_x, 3.0);
  EXPECT_TRUE(spec.segments[2].prefixes.set);
  EXPECT_EQ(spec.segments[2].prefixes.lo, 0u);
  EXPECT_EQ(spec.segments[2].prefixes.hi, 7u);

  EXPECT_EQ(spec.segments[3].kind, SegmentKind::ddos);
  EXPECT_DOUBLE_EQ(spec.segments[3].duration_x, 0.2);

  const Segment& rr = spec.segments[4];
  EXPECT_EQ(rr.kind, SegmentKind::reroute);
  EXPECT_EQ(rr.to_prefixes.lo, 16u);
  EXPECT_EQ(rr.to_prefixes.hi, 31u);
  EXPECT_EQ(rr.expect, Expectation::none);
  EXPECT_EQ(rr.expect_drop_link, "west");
  EXPECT_EQ(rr.expect_spike_link, "east");

  EXPECT_EQ(spec.segments[5].expect, Expectation::drop);

  EXPECT_DOUBLE_EQ(spec.total_duration_s(), 30 + 60 + 25 + 20 + 15 + 40);
  EXPECT_DOUBLE_EQ(spec.segment_start_s(2), 90.0);
}

TEST(ScenarioSpec, EventKindsHaveDetectableDefaults) {
  const ScenarioSpec spec = parse_scenario_text(
      "scenario defaults\n"
      "segment ddos 30\n"
      "segment flash-crowd 30\n"
      "segment diurnal 30\n");
  ASSERT_EQ(spec.segments.size(), 3u);
  // ddos: flood of tiny short flows.
  EXPECT_DOUBLE_EQ(spec.segments[0].lambda_x, 30.0);
  EXPECT_DOUBLE_EQ(spec.segments[0].size_x, 0.05);
  EXPECT_DOUBLE_EQ(spec.segments[0].duration_x, 0.3);
  // flash crowd: more and larger flows.
  EXPECT_DOUBLE_EQ(spec.segments[1].lambda_x, 3.0);
  EXPECT_DOUBLE_EQ(spec.segments[1].size_x, 2.5);
  // diurnal: visible but not alerting.
  EXPECT_DOUBLE_EQ(spec.segments[2].amplitude, 0.3);
}

TEST(ScenarioSpec, RenderRoundTripsEveryField) {
  const ScenarioSpec spec = parse_scenario_text(kFullSpec);
  const std::string rendered = render_scenario(spec);
  const ScenarioSpec again = parse_scenario_text(rendered);
  // Byte-stable after one round trip — the determinism tests rely on it.
  EXPECT_EQ(render_scenario(again), rendered);
  EXPECT_EQ(again.name, spec.name);
  EXPECT_EQ(again.seed, spec.seed);
  ASSERT_EQ(again.segments.size(), spec.segments.size());
  for (std::size_t i = 0; i < spec.segments.size(); ++i) {
    SCOPED_TRACE("segment " + std::to_string(i));
    EXPECT_EQ(again.segments[i].kind, spec.segments[i].kind);
    EXPECT_DOUBLE_EQ(again.segments[i].duration_s,
                     spec.segments[i].duration_s);
    EXPECT_DOUBLE_EQ(again.segments[i].lambda_x, spec.segments[i].lambda_x);
    EXPECT_DOUBLE_EQ(again.segments[i].size_x, spec.segments[i].size_x);
    EXPECT_EQ(again.segments[i].expect, spec.segments[i].expect);
    EXPECT_EQ(again.segments[i].expect_spike_link,
              spec.segments[i].expect_spike_link);
  }
}

TEST(ScenarioSpec, ErrorsNameTheLine) {
  try {
    (void)parse_scenario_text("scenario x\nsegment ddos 30\nbogus-key 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(":3"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpec, ValidateRejectsInconsistencies) {
  // No segments at all.
  EXPECT_THROW((void)parse_scenario_text("scenario empty\n"),
               std::invalid_argument);
  // Reroute without a to-prefixes target.
  EXPECT_THROW(
      (void)parse_scenario_text("scenario r\nsegment reroute 10 "
                                "prefixes=0-3\n"),
      std::invalid_argument);
  // Prefix range outside the pool.
  EXPECT_THROW(
      (void)parse_scenario_text("scenario p\nprefix-pool 8\n"
                                "segment ddos 10 prefixes=4-9\n"),
      std::invalid_argument);
  // Diurnal amplitude outside [0, 1].
  EXPECT_THROW(
      (void)parse_scenario_text("scenario d\n"
                                "segment diurnal 10 amplitude=1.5\n"),
      std::invalid_argument);
  // Non-positive duration.
  EXPECT_THROW((void)parse_scenario_text("scenario z\nsegment baseline 0\n"),
               std::invalid_argument);
  // Non-finite values and overflowing totals. Parsed only: a generator on
  // an infinite segment would never end.
  for (const char* text :
       {"scenario s\nsegment baseline inf\n",
        "scenario s\nlambda inf\nsegment baseline 10\n",
        "scenario s\nsize-cv nan\nsegment baseline 10\n",
        "scenario s\ngrace inf\nsegment baseline 10\n",
        "scenario s\nsegment ddos 10 lambda-x=inf\n",
        "scenario s\nsegment diurnal 10 period=nan\n",
        "scenario s\nlambda 1e300\nsegment ddos 10 lambda-x=1e300\n",
        "scenario s\nsegment baseline 1e308\nsegment baseline 1e308\n"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)parse_scenario_text(text), std::invalid_argument);
  }
  ScenarioSpec spec = parse_scenario_text("scenario s\nsegment baseline 10\n");
  spec.duration_cv = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, IntegersAreUnsignedAndExact) {
  EXPECT_EQ(parse_scenario_text("scenario s\nseed 18446744073709551615\n"
                                "segment baseline 10\n")
                .seed,
            18446744073709551615ull);
  for (const char* line : {"seed -1", "seed +1", "seed 18446744073709551616",
                           "seed 1.5", "prefix-pool -4", "seed 0x10",
                           "packet-bytes 4294967297",
                           "attack-packet-bytes 4294967296"}) {
    SCOPED_TRACE(line);
    EXPECT_THROW((void)parse_scenario_text(std::string("scenario s\n") +
                                           line + "\nsegment baseline 10\n"),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------- truth ---

TEST(ScenarioTruth, DerivesEventsFromExpectations) {
  const ScenarioSpec spec = parse_scenario_text(kFullSpec);
  const TruthLog truth = derive_truth(spec);
  EXPECT_EQ(truth.scenario, "everything");
  EXPECT_EQ(truth.seed, 99u);
  EXPECT_DOUBLE_EQ(truth.duration_s, spec.total_duration_s());
  EXPECT_DOUBLE_EQ(truth.grace_s, 12.0);
  EXPECT_DOUBLE_EQ(truth.cooldown_s, 45.0);
  ASSERT_EQ(truth.segments.size(), 6u);
  EXPECT_DOUBLE_EQ(truth.segments[2].start_s, 90.0);
  EXPECT_DOUBLE_EQ(truth.segments[2].end_s, 115.0);

  // Aggregate events: flash-crowd spike, ddos spike, explicit drop on the
  // last baseline. The reroute segment carries expect=none on the
  // aggregate plus two per-link events.
  ASSERT_EQ(truth.events.size(), 5u);
  EXPECT_EQ(truth.events[0].kind, live::AlertKind::spike);
  EXPECT_EQ(truth.events[0].link, "");
  EXPECT_DOUBLE_EQ(truth.events[0].start_s, 90.0);
  EXPECT_EQ(truth.events[1].kind, live::AlertKind::spike);
  EXPECT_DOUBLE_EQ(truth.events[1].start_s, 115.0);
  EXPECT_EQ(truth.events[2].kind, live::AlertKind::spike);
  EXPECT_EQ(truth.events[2].link, "east");
  EXPECT_EQ(truth.events[3].kind, live::AlertKind::drop);
  EXPECT_EQ(truth.events[3].link, "west");
  EXPECT_EQ(truth.events[4].kind, live::AlertKind::drop);
  EXPECT_EQ(truth.events[4].link, "");
  EXPECT_DOUBLE_EQ(truth.events[4].start_s, 150.0);
}

TEST(ScenarioTruth, TextRoundTripIsByteStable) {
  const std::filesystem::path data = FBM_TEST_DATA_DIR;
  std::vector<ScenarioSpec> specs = {parse_scenario_text(kFullSpec)};
  for (const char* name : {"scenario_ddos.scn", "scenario_flash_crowd.scn",
                           "scenario_reroute.scn"}) {
    specs.push_back(load_scenario(data / name));
  }
  for (const ScenarioSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    const TruthLog truth = derive_truth(spec);
    const std::string text = write_truth(truth);
    const TruthLog again = parse_truth_text(text);
    EXPECT_EQ(write_truth(again), text);
    EXPECT_EQ(again.scenario, truth.scenario);
    EXPECT_EQ(again.seed, truth.seed);
    EXPECT_EQ(again.duration_s, truth.duration_s);
    EXPECT_EQ(again.grace_s, truth.grace_s);
    EXPECT_EQ(again.cooldown_s, truth.cooldown_s);
    ASSERT_EQ(again.segments.size(), truth.segments.size());
    for (std::size_t i = 0; i < truth.segments.size(); ++i) {
      SCOPED_TRACE("segment " + std::to_string(i));
      EXPECT_EQ(again.segments[i].kind, truth.segments[i].kind);
      EXPECT_EQ(again.segments[i].start_s, truth.segments[i].start_s);
      EXPECT_EQ(again.segments[i].end_s, truth.segments[i].end_s);
    }
    ASSERT_EQ(again.events.size(), truth.events.size());
    for (std::size_t i = 0; i < truth.events.size(); ++i) {
      SCOPED_TRACE("event " + std::to_string(i));
      EXPECT_EQ(again.events[i].kind, truth.events[i].kind);
      EXPECT_EQ(again.events[i].link, truth.events[i].link);
      EXPECT_EQ(again.events[i].start_s, truth.events[i].start_s);
      EXPECT_EQ(again.events[i].end_s, truth.events[i].end_s);
    }
  }
}

/// A valid truth log with `line` appended; the base alone parses.
std::string truth_with(const std::string& line) {
  return "# fbm-scenario-truth v1\nscenario t\nseed 7\nduration 180\n"
         "grace 10\ncooldown 60\nsegment 0 baseline 0 60\n"
         "segment 1 ddos 60 90\nevent spike 60 90 link -\n" +
         line + "\n";
}

TEST(ScenarioTruth, ParseRejectsGarbage) {
  EXPECT_THROW((void)parse_truth_text("not a truth file\n"),
               std::invalid_argument);
  ASSERT_NO_THROW((void)parse_truth_text(truth_with("")));
  EXPECT_EQ(parse_truth_text(truth_with("seed 18446744073709551615")).seed,
            18446744073709551615ull);
  EXPECT_NO_THROW((void)parse_truth_text(truth_with("event drop 5 5 link a")));
  for (const char* line :
       {"event bogus 0 1 link -",
        // Negative or inexact integers, which would wrap.
        "seed -1", "seed +1", "seed 18446744073709551616", "seed 2.5",
        "segment -1 baseline 90 180",
        // Negative spans.
        "grace -5", "cooldown -1", "duration -180",
        // Intervals that end before they start.
        "event spike 90 60 link -", "event spike 1e308 -1e308 link -",
        "segment 2 baseline 180 90"}) {
    SCOPED_TRACE(line);
    EXPECT_THROW((void)parse_truth_text(truth_with(line)),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace fbm::scenario
