// Unit tests for the obs instruments (src/obs/metrics.hpp) and registry
// (src/obs/registry.hpp): histogram bucket edges (zero, exact boundary,
// max bound, overflow, negative clamp), the log-scale bound helper,
// registry idempotence and type checking, and snapshot deltas.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/registry.hpp"

namespace fbm {
namespace {

/// MetricMeta builder (field assignment, not designated init, so omitted
/// descriptor fields don't trip -Wmissing-field-initializers).
obs::MetricMeta meta(
    std::string name,
    std::vector<std::pair<std::string, std::string>> labels = {}) {
  obs::MetricMeta m;
  m.name = std::move(name);
  m.labels = std::move(labels);
  return m;
}

TEST(ObsHistogram, BucketEdgesAreUpperInclusive) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.0);      // below the first bound
  h.observe(1.0);      // exactly on a bound stays in that bucket ("le")
  h.observe(1.5);
  h.observe(10.0);     // boundary again, second bucket
  h.observe(100.0);    // exactly the max bound: still in range
  h.observe(100.001);  // past the max bound: overflow bucket
  h.observe(-5.0);     // negative clamps into the first bucket

  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 3u);      // 0.0, 1.0, -5.0
  EXPECT_EQ(counts[1], 2u);      // 1.5, 10.0
  EXPECT_EQ(counts[2], 1u);      // 100.0
  EXPECT_EQ(counts[3], 1u);      // 100.001
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0 + 1.0 + 1.5 + 10.0 + 100.0 + 100.001 - 5.0);
}

TEST(ObsHistogram, RejectsBadBounds) {
  EXPECT_THROW(obs::Histogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(ObsHistogram, LogScaleBounds) {
  const auto bounds = obs::log_scale_bounds(1e-6, 4.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 4.0);
  }
  EXPECT_THROW(obs::log_scale_bounds(0.0, 4.0, 5), std::invalid_argument);
  EXPECT_THROW(obs::log_scale_bounds(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(obs::log_scale_bounds(1.0, 4.0, 0), std::invalid_argument);
}

TEST(ObsRegistry, LookupsAreIdempotent) {
  obs::Registry reg;
  obs::Counter& c1 = reg.counter(meta("t_total", {{"s", "0"}}));
  obs::Counter& c2 = reg.counter(meta("t_total", {{"s", "0"}}));
  EXPECT_EQ(&c1, &c2);
  // A different label set is a different instrument.
  obs::Counter& c3 = reg.counter(meta("t_total", {{"s", "1"}}));
  EXPECT_NE(&c1, &c3);
  // Histogram bounds are fixed at first registration; later bounds ignored.
  obs::Histogram& h1 = reg.histogram(meta("t_seconds"), {1.0, 2.0});
  obs::Histogram& h2 = reg.histogram(meta("t_seconds"), {9.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(ObsRegistry, TypeMismatchThrows) {
  obs::Registry reg;
  (void)reg.counter(meta("t_total"));
  EXPECT_THROW((void)reg.gauge(meta("t_total")), std::logic_error);
  EXPECT_THROW((void)reg.histogram(meta("t_total"), {1.0}),
               std::logic_error);
}

TEST(ObsRegistry, MetricKeyRendersLabelsInOrder) {
  obs::MetricMeta meta;
  meta.name = "fbm_x_total";
  EXPECT_EQ(meta.key(), "fbm_x_total");
  meta.labels = {{"link", "eth0"}, {"shard", "3"}};
  EXPECT_EQ(meta.key(), "fbm_x_total{link=\"eth0\",shard=\"3\"}");
}

TEST(ObsRegistry, SnapshotIsSortedByKey) {
  obs::Registry reg;
  reg.counter(meta("z_total")).add(1);
  reg.counter(meta("a_total")).add(2);
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 2u);
  EXPECT_EQ(snap.metrics[0].meta.name, "a_total");
  EXPECT_EQ(snap.metrics[1].meta.name, "z_total");
  ASSERT_NE(snap.find("z_total"), nullptr);
  EXPECT_EQ(snap.find("z_total")->counter, 1u);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(ObsDelta, CountersAndHistogramsSubtractGaugesKeepAfter) {
  obs::Registry reg;
  obs::Counter& c = reg.counter(meta("t_total"));
  obs::Gauge& g = reg.gauge(meta("t_depth"));
  obs::Histogram& h = reg.histogram(meta("t_seconds"), {1.0, 10.0});
  c.add(5);
  g.set(7.0);
  h.observe(0.5);
  const obs::Snapshot before = reg.snapshot();
  c.add(3);
  g.set(2.0);
  h.observe(0.5);
  h.observe(4.0);
  const obs::Snapshot after = reg.snapshot();

  const obs::Snapshot d = obs::delta(before, after);
  // All metrics survive the delta, including would-be zeros.
  ASSERT_EQ(d.metrics.size(), 3u);
  EXPECT_EQ(d.find("t_total")->counter, 3u);
  EXPECT_DOUBLE_EQ(d.find("t_depth")->gauge, 2.0);  // point-in-time
  const obs::MetricValue* dh = d.find("t_seconds");
  ASSERT_NE(dh, nullptr);
  EXPECT_EQ(dh->hist.count, 2u);
  EXPECT_EQ(dh->hist.counts, (std::vector<std::uint64_t>{1, 1, 0}));
  EXPECT_DOUBLE_EQ(dh->hist.sum, 4.5);
}

TEST(ObsDelta, SubtractionSaturatesOnRewind) {
  // A checkpoint restore can rewind counters below the "before" snapshot;
  // the delta must clamp at zero instead of wrapping.
  obs::Registry reg;
  obs::Counter& c = reg.counter(meta("t_total"));
  c.add(10);
  const obs::Snapshot high = reg.snapshot();
  // delta(high, low): after < before.
  obs::Registry reg2;
  reg2.counter(meta("t_total")).add(4);
  const obs::Snapshot low = reg2.snapshot();
  const obs::Snapshot d = obs::delta(high, low);
  EXPECT_EQ(d.find("t_total")->counter, 0u);
}

TEST(ObsDelta, MetricsMissingFromBeforePassThrough) {
  obs::Registry reg;
  reg.counter(meta("t_total")).add(2);
  const obs::Snapshot before = reg.snapshot();
  reg.counter(meta("u_total")).add(9);
  const obs::Snapshot after = reg.snapshot();
  const obs::Snapshot d = obs::delta(before, after);
  EXPECT_EQ(d.find("u_total")->counter, 9u);
  EXPECT_EQ(d.find("t_total")->counter, 0u);
}

TEST(ObsEnabled, KillSwitchTogglesProcessWide) {
  const bool prev = obs::enabled();
  obs::set_enabled(false);
  EXPECT_FALSE(obs::enabled());
  obs::set_enabled(true);
  EXPECT_TRUE(obs::enabled());
  obs::set_enabled(prev);
}

}  // namespace
}  // namespace fbm
