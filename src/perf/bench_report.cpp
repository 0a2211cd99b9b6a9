#include "perf/bench_report.hpp"

#include <cstdlib>
#include <utility>

#include "core/json_writer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fbm::perf {

void BenchReport::set_config(const std::string& key,
                             const std::string& value) {
  config.emplace_back(key, core::json_quote(value));
}

void BenchReport::set_config(const std::string& key, double value) {
  config.emplace_back(key, core::json_number(value));
}

void BenchReport::set_config(const std::string& key, std::uint64_t value) {
  config.emplace_back(key, std::to_string(value));
}

void BenchReport::set_config(const std::string& key, bool value) {
  config.emplace_back(key, value ? "true" : "false");
}

void BenchReport::set_metric(const std::string& key, double value) {
  extra_metrics.emplace_back(key, value);
}

std::string BenchReport::to_json(int indent) const {
  core::JsonWriter w(core::JsonWriter::Style::pretty, indent);
  w.begin_object();
  w.field("bench", bench);
  w.begin_object("config");
  for (const auto& [key, token] : config) w.raw_field(key, token);
  w.end_object();
  w.begin_object("metrics");
  w.field("wall_s", wall_s);
  w.field("packets_per_s", packets_per_s);
  w.field("peak_rss_kb", peak_rss_kb);
  w.field("packets", packets);
  for (const auto& [key, value] : extra_metrics) w.field(key, value);
  w.end_object();
  if (!obs_json.empty()) w.raw_field("obs", obs_json);
  w.field("git_sha", git_sha);
  w.end_object();
  return std::move(w).str();
}

std::string summary_json(std::span<const BenchReport> reports) {
  std::string out = "{\n  \"schema\": 1,\n  \"benches\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += reports[i].to_json(4);
  }
  out += reports.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;  // bytes there
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // already kB
#endif
#else
  return 0;
#endif
}

std::string current_git_sha() {
  if (const char* env = std::getenv("FBM_GIT_SHA"); env != nullptr &&
                                                    env[0] != '\0') {
    return env;
  }
#ifdef FBM_GIT_SHA
  return FBM_GIT_SHA;
#else
  return "unknown";
#endif
}

}  // namespace fbm::perf
