// Shared flag plumbing for the fbm_* tools: count values and --metrics.
//
// to_count() and to_threads() check a numeric flag's value before it is
// cast to an unsigned type, so a negative or NaN value exits through the
// tool's usage() instead of wrapping around.
//
// Every tool accepts the same three metrics flags:
//   --metrics FILE        append self-describing JSONL snapshots to FILE
//   --metrics-every N     seconds between snapshots (default 1)
//   --metrics-prom FILE   atomically rewrite a Prometheus exposition file
//                         each snapshot (also dumped on SIGUSR1)
//
// parse_metrics_flag() drops into each tool's existing argv loop;
// make_metrics_exporter() builds the obs::MetricsExporter the tool ticks at
// its natural cadence points and finishes before exit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "api/shard.hpp"
#include "obs/exporter.hpp"

namespace fbm::tools {

/// A count flag's value: finite, >= 0 and below 2^64, fractional part
/// dropped. Anything else prints a diagnostic and calls `usage` (the
/// tool's [[noreturn]] usage printer, exit status 2).
inline std::uint64_t to_count(double v, const char* flag, void (*usage)()) {
  if (!(v >= 0.0 && v < 0x1p64)) {
    std::fprintf(stderr, "%s wants a count >= 0\n", flag);
    usage();
  }
  return static_cast<std::uint64_t>(v);
}

/// --threads: a count api::resolve_threads accepts (0 = every core).
inline std::size_t to_threads(double v, void (*usage)()) {
  const std::uint64_t n = to_count(v, "--threads", usage);
  try {
    (void)api::resolve_threads(n);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "--%s\n", e.what());
    usage();
  }
  return n;
}

struct MetricsOptions {
  std::string jsonl;     ///< --metrics FILE
  double every_s = 1.0;  ///< --metrics-every N
  std::string prom;      ///< --metrics-prom FILE
};

/// Consumes one of the --metrics flags at argv[i] if that is what it is,
/// advancing i past the value. Returns false for any other flag. `usage`
/// is the tool's [[noreturn]] usage printer, invoked on a missing value.
inline bool parse_metrics_flag(int argc, char** argv, int& i,
                               MetricsOptions& opt, void (*usage)()) {
  const std::string arg = argv[i];
  if (arg != "--metrics" && arg != "--metrics-every" &&
      arg != "--metrics-prom") {
    return false;
  }
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", arg.c_str());
    usage();
  }
  const char* value = argv[++i];
  if (arg == "--metrics") {
    opt.jsonl = value;
  } else if (arg == "--metrics-prom") {
    opt.prom = value;
  } else {
    const double v = std::atof(value);
    if (!(v > 0.0)) {
      std::fprintf(stderr, "--metrics-every wants seconds > 0, got \"%s\"\n",
                   value);
      usage();
    }
    opt.every_s = v;
  }
  return true;
}

[[nodiscard]] inline obs::MetricsExporter make_metrics_exporter(
    const MetricsOptions& opt) {
  return obs::MetricsExporter({.jsonl_path = opt.jsonl,
                               .every_s = opt.every_s,
                               .prom_path = opt.prom});
}

/// Forces the final snapshot on scope exit, so tools with many return
/// paths (and exception unwinds) still emit end-of-run totals. Declare it
/// immediately after the exporter, before the pipeline/engine it observes:
/// the pipeline then destructs (and folds its counters) first.
class MetricsFinishGuard {
 public:
  explicit MetricsFinishGuard(obs::MetricsExporter& m) : m_(m) {}
  MetricsFinishGuard(const MetricsFinishGuard&) = delete;
  MetricsFinishGuard& operator=(const MetricsFinishGuard&) = delete;
  ~MetricsFinishGuard() { m_.finish(); }

 private:
  obs::MetricsExporter& m_;
};

}  // namespace fbm::tools
