// Metric registry (fbm::obs): named, labeled, self-describing instruments.
//
// A Registry owns its instruments for its whole lifetime, so call sites
// resolve a metric once (mutex-guarded map lookup) and keep the returned
// reference — the hot path never touches the registry again. Lookups are
// idempotent: the same (name, labels) returns the same instrument; asking
// for it as a different type throws std::logic_error.
//
// snapshot() produces a point-in-time copy of every instrument — the one
// carrier both export formats (JSONL snapshots and Prometheus text
// exposition, see export.hpp) and perf::BenchReport's embedded telemetry
// render from, so there is exactly one metrics schema in the tree.
//
// Registry::global() is the process-wide instance the library's
// instrumentation uses; tests build their own registries so goldens never
// see unrelated metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace fbm::obs {

enum class MetricType { counter, gauge, histogram };

/// Everything that describes a metric besides its value — the
/// "self-describing" part of every snapshot.
struct MetricMeta {
  std::string name;   ///< Prometheus-style base name (fbm_..._total)
  std::string help;   ///< one-line description
  std::string unit;   ///< "packets", "seconds", "flows", "ratio", ...
  std::string stage;  ///< pipeline stage it observes ("classify", ...)
  /// Label set, rendered in this order. Part of the metric's identity.
  std::vector<std::pair<std::string, std::string>> labels = {};

  /// Canonical identity: name{k="v",...} (no escaping — identity only).
  [[nodiscard]] std::string key() const;
};

struct HistogramValue {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< per-bucket, overflow last
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// One metric's snapshot: meta + the value slot its type uses.
struct MetricValue {
  MetricMeta meta;
  MetricType type = MetricType::counter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  HistogramValue hist;
};

/// Point-in-time copy of a registry, metrics sorted by key (deterministic
/// render order regardless of registration order).
struct Snapshot {
  std::vector<MetricValue> metrics;

  /// Lookup by exact key; nullptr when absent.
  [[nodiscard]] const MetricValue* find(const std::string& key) const;
};

/// after - before: counters and histograms subtract (entries missing from
/// `before` pass through), gauges keep their `after` value. The bench
/// harness uses this so per-bench telemetry is the bench's own work, not
/// the process's life story.
[[nodiscard]] Snapshot delta(const Snapshot& before, const Snapshot& after);

class Registry {
 public:
  Counter& counter(MetricMeta meta);
  Gauge& gauge(MetricMeta meta);
  /// `bounds` are the fixed upper bounds (log_scale_bounds for the standard
  /// grid); ignored when the histogram already exists.
  Histogram& histogram(MetricMeta meta, std::vector<double> bounds);

  [[nodiscard]] Snapshot snapshot() const;

  /// The process-wide registry all library instrumentation registers in.
  [[nodiscard]] static Registry& global();

 private:
  struct Entry {
    MetricMeta meta;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& resolve(MetricMeta&& meta, MetricType type);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< registration order
};

}  // namespace fbm::obs
