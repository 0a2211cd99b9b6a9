// Concurrency tests for the obs instruments — written to be meaningful
// under ThreadSanitizer (FBM_SANITIZE=thread): writers hammer shared
// instruments while a scraper reads, and the totals must come out exact
// once the writers quiesce. No test here sleeps; contention comes from raw
// loops.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/registry.hpp"

namespace fbm {
namespace {

/// MetricMeta builder (field assignment, not designated init, so omitted
/// descriptor fields don't trip -Wmissing-field-initializers).
obs::MetricMeta meta(
    std::string name, std::string unit = {},
    std::vector<std::pair<std::string, std::string>> labels = {}) {
  obs::MetricMeta m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.labels = std::move(labels);
  return m;
}

TEST(ObsConcurrent, ShardedCounterExactUnderContention) {
  // One shared counter, as every pipeline shard's classify counts use it:
  // writers on several threads add in bulk while a scraper reads.
  obs::Counter counter;
  constexpr int kWriters = 8;
  constexpr std::uint64_t kAdds = 20000;

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    // Scrape continuously while writers run; every read must be torn-free
    // (TSan checks the synchronization, the final assert checks the math).
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t v = counter.value();
      EXPECT_GE(v, last);  // monotonic: adds only
      last = v;
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kAdds / 2; ++i) counter.add(1);
      counter.add(kAdds / 2);  // a batch-cadence bulk add
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ(counter.value(), kWriters * kAdds);
}

TEST(ObsConcurrent, SnapshotWhileObserving) {
  obs::Registry reg;
  obs::Counter& packets = reg.counter(meta("t_packets_total", "packets"));
  obs::Histogram& seconds =
      reg.histogram(meta("t_stage_seconds", "seconds"),
                    obs::log_scale_bounds(1e-6, 4.0, 10));

  constexpr int kWriters = 4;
  constexpr int kObservations = 10000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::Snapshot snap = reg.snapshot();
      ASSERT_EQ(snap.metrics.size(), 2u);
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kObservations; ++i) {
        packets.add(1);
        seconds.observe(1e-6 * (i % 7 + 1));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  const obs::Snapshot final_snap = reg.snapshot();
  const obs::MetricValue* p = final_snap.find("t_packets_total");
  const obs::MetricValue* s = final_snap.find("t_stage_seconds");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(p->counter, static_cast<std::uint64_t>(kWriters) * kObservations);
  EXPECT_EQ(s->hist.count,
            static_cast<std::uint64_t>(kWriters) * kObservations);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : s->hist.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, s->hist.count);
}

TEST(ObsConcurrent, RegistryResolveFromManyThreads) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  std::vector<obs::Counter*> resolved(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &resolved, t] {
      obs::Counter& c =
          reg.counter(meta("t_shared_total", "", {{"k", "same"}}));
      c.add(1);
      resolved[static_cast<std::size_t>(t)] = &c;
    });
  }
  for (auto& t : threads) t.join();
  // Every thread must have resolved the same instrument exactly once.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(resolved[static_cast<std::size_t>(t)], resolved[0]);
  }
  EXPECT_EQ(resolved[0]->value(), static_cast<std::uint64_t>(kThreads));

  // Two quiesced snapshots are byte-for-byte deterministic.
  const obs::Snapshot a = reg.snapshot();
  const obs::Snapshot b = reg.snapshot();
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].meta.key(), b.metrics[i].meta.key());
    EXPECT_EQ(a.metrics[i].counter, b.metrics[i].counter);
  }
}

}  // namespace
}  // namespace fbm
