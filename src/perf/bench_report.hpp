// BenchReport: the machine-readable output of one bench run.
//
// Stable JSON schema (CI uploads these files as artifacts and external
// dashboards parse them, so additions are fine but the keys below never
// change or move):
//
//   {
//     "bench": "<name>",
//     "config": { ... resolved knobs: quick, scale, ... },
//     "metrics": {
//       "wall_s": <double>,
//       "packets_per_s": <double>,      // 0 when the bench counts none
//       "peak_rss_kb": <uint64>,
//       "packets": <uint64>,            // packets the bench processed
//       ... bench-specific extras ...
//     },
//     "obs": [ ... ],   // registry delta of the run (obs::to_json_metrics
//                       // objects); omitted when no metrics moved
//     "git_sha": "<sha or \"unknown\">"
//   }
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace fbm::perf {

struct BenchReport {
  std::string bench;

  /// Resolved configuration, in insertion order. Values are raw JSON tokens
  /// (set_config quotes strings, renders numbers).
  std::vector<std::pair<std::string, std::string>> config;

  double wall_s = 0.0;
  double packets_per_s = 0.0;  ///< packets / wall_s
  std::uint64_t peak_rss_kb = 0;
  /// Packets the bench processed (generation excluded, analysis counted).
  std::uint64_t packets = 0;
  /// Bench-specific metrics emitted inside "metrics", in insertion order.
  std::vector<std::pair<std::string, double>> extra_metrics;
  /// Raw JSON array of the run's obs registry delta (obs::to_json_metrics);
  /// empty = the "obs" key is omitted. A raw token, so perf stays free of
  /// obs types while reusing its single emitter.
  std::string obs_json;

  std::string git_sha = "unknown";

  void set_config(const std::string& key, const std::string& value);
  void set_config(const std::string& key, double value);
  void set_config(const std::string& key, std::uint64_t value);
  void set_config(const std::string& key, bool value);

  void set_metric(const std::string& key, double value);

  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// Aggregate document for BENCH_summary.json: every report in run order.
[[nodiscard]] std::string summary_json(std::span<const BenchReport> reports);

/// Peak resident set size of this process in kB (getrusage; 0 if
/// unavailable on the platform).
[[nodiscard]] std::uint64_t peak_rss_kb();

/// Git commit recorded at configure time (FBM_GIT_SHA compile definition),
/// overridable at runtime via the FBM_GIT_SHA environment variable;
/// "unknown" when neither is set.
[[nodiscard]] std::string current_git_sha();

}  // namespace fbm::perf
