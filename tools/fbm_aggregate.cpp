// fbm_aggregate — merge partial reports and fit the model once.
//
// Usage:
//   fbm_aggregate <partial.fbmp> [<partial.fbmp> ...] [--json]
//
// Each input is a PartialReport file written by `fbm_analyze --emit-partial`
// or `fbm_live --emit-partial` (one per shard process, or one per remote
// collector). The tool folds them — exact flow sums, byte bins and trace
// totals add, in any file order — and fits every window exactly once,
// printing the same document the producing tool would have: the
// fbm_analyze --json shape for batch partials (engine shape when the
// producers ran multi-link), one JSONL line per window for live partials.
// The output is bit-for-bit identical to a single-machine run over the
// union of the producers' packets (tests/agg/ pins this).
//
// Corrupt, truncated or incompatible partials are rejected with a one-line
// diagnostic and a nonzero exit — never silently merged. --json is accepted
// for symmetry with the producing tools; JSON is the only output format.
//
// --metrics FILE / --metrics-every S / --metrics-prom FILE emit the obs
// registry (partials read, windows merged, fit stage timings) like every
// other fbm tool.
#include <cstdio>
#include <string>
#include <vector>

#include "agg/agg.hpp"
#include "cli.hpp"

int main(int argc, char** argv) {
  using fbm::tools::Kind;
  std::vector<std::string> paths;
  bool json = false;  // JSON is the only output format
  fbm::tools::MetricsOptions metrics_opt;
  fbm::tools::Cli("fbm_aggregate", "<partial.fbmp> [<partial.fbmp> ...]",
                  &paths, {{"--json", &json, Kind::flag, ""}})
      .add(fbm::tools::metrics_flags(metrics_opt))
      .parse(argc, argv);

  fbm::obs::MetricsExporter metrics =
      fbm::tools::make_metrics_exporter(metrics_opt);
  fbm::tools::MetricsFinishGuard metrics_guard(metrics);
  try {
    fbm::agg::Merger merger;
    for (const auto& path : paths) {
      merger.add_file(path);
      metrics.tick();
    }
    fbm::agg::MergeResult merged = merger.finish();
    if (merged.kind == fbm::agg::PartialKind::batch) {
      std::printf("%s\n", merged.document.c_str());
    } else {
      for (const auto& line : merged.lines) {
        std::printf("%s\n", line.c_str());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
