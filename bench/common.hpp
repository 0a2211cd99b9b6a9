// Shared machinery for the paper-reproduction benches.
//
// Each bench regenerates one table or figure. They share the scaled Sprint
// profiles (trace/sprint_profiles) and the paper's offline analysis, built
// from the flow and measure primitives: synthetic trace -> 5-tuple and /24
// classification (60 s timeout, flows split at interval boundaries, a
// boundary piece kept even when it holds one packet) -> per-interval flows,
// model inputs and measured rate moments at Delta = 200 ms. The tools and
// api::analyze run the causal estimator instead, which drops such a piece
// as a single-packet flow; the figures need each interval's flows, which
// only the offline path keeps.
//
// Scaling relative to the paper (default_scale below): the 30-min analysis
// interval becomes 30 s (time_scale = 1/60), trace lengths are capped at
// 240 s (90 s in quick mode), and utilizations are divided by 10 (26-262
// Mbps -> 2.6-26.2 Mbps) so every bench finishes in seconds on a laptop.
//
// Registry: every bench defines its body with FBM_BENCH(name) instead of a
// bare main(). That registers the body so the fbm_bench runner can execute
// any subset with JSON telemetry (--filter, --quick, --json DIR), while the
// same source compiled with FBM_BENCH_STANDALONE keeps producing the
// standalone binary (which accepts --quick / --json DIR too). Every run is
// wrapped in a perf::BenchReport: wall time, packets/s, peak RSS, resolved
// config, git sha.
//
// Checks: a reproduction bench asserts each number it reproduces with
// Context::check against a band taken from the paper or from the model,
// and exits non-zero when any value leaves its band. CMake registers those
// benches as ctest `repro_<name>` tests (label `repro`, --quick).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "flow/classifier.hpp"
#include "flow/interval.hpp"
#include "measure/rate_meter.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "perf/bench_report.hpp"
#include "perf/stopwatch.hpp"
#include "trace/sprint_profiles.hpp"

namespace fbm::bench {

/// Default scaling for all benches; quick mode (fbm_bench --quick) shortens
/// the trace cap so the whole suite smoke-runs in CI.
[[nodiscard]] trace::ScaleOptions default_scale();

/// Feeds `packets` to `stage.push_batch` in chunks of `batch_packets`
/// (AoS -> SoA per chunk) — the one way every analysis stage ingests. The
/// caller still calls finish().
template <typename Stage>
void push_packets(Stage& stage, std::span<const net::PacketRecord> packets,
                  std::size_t batch_packets = 1024) {
  net::PacketBatch batch;
  for (std::size_t i = 0; i < packets.size(); i += batch_packets) {
    batch.assign(
        packets.subspan(i, std::min(batch_packets, packets.size() - i)));
    stage.push_batch(batch);
  }
}

/// One analysis interval, fully measured, for one flow definition.
struct IntervalResult {
  flow::ModelInputs inputs;
  measure::RateMoments measured;       ///< Delta = 200 ms moments
  flow::IntervalData interval;         ///< the flows themselves
};

/// One generated + analysed trace.
struct ProfileRun {
  std::size_t profile_index = 0;
  trace::SprintProfile profile;        ///< paper-scale metadata
  std::vector<net::PacketRecord> packets;
  double horizon = 0.0;
  double interval_s = 0.0;
  std::vector<IntervalResult> five_tuple;
  std::vector<IntervalResult> prefix24;
};

/// Generates and analyses one Table-I profile. Work done here is counted
/// into the active bench's telemetry automatically.
[[nodiscard]] ProfileRun run_profile(std::size_t index,
                                     const trace::ScaleOptions& scale);

/// All seven profiles (the full evaluation corpus).
[[nodiscard]] std::vector<ProfileRun> run_all_profiles(
    const trace::ScaleOptions& scale);

/// Pretty header for bench output.
void print_header(const std::string& title);

// --------------------------------------------------------------- registry ---

/// Handed to each bench body: quick-mode flag, the report the bench may
/// enrich with bench-specific config and metrics, and the check tally.
class Context {
 public:
  Context(perf::BenchReport& report, bool quick)
      : report_(report), quick_(quick) {}

  [[nodiscard]] bool quick() const { return quick_; }
  [[nodiscard]] perf::BenchReport& report() { return report_; }

  void count_packets(std::uint64_t n) { report_.packets += n; }

  /// Asserts one reproduced number: prints the label, the value, the band
  /// [lo, hi] and `source` (the paper's statement or model result the band
  /// comes from), and fails the bench when the value lies outside the band
  /// or is NaN.
  void check(const std::string& label, double value, double lo, double hi,
             const std::string& source);

  [[nodiscard]] std::size_t failed_checks() const { return failed_; }

 private:
  perf::BenchReport& report_;
  bool quick_;
  std::size_t failed_ = 0;
};

using BenchFn = int (*)(Context&);

struct BenchInfo {
  const char* name;
  BenchFn fn;
};

/// Called by the FBM_BENCH macro at static-initialization time.
int register_bench(const char* name, BenchFn fn);

/// Every bench linked into this binary, in registration order.
[[nodiscard]] const std::vector<BenchInfo>& registered_benches();

/// Runs one bench with telemetry: wall time, packets/s, peak RSS, resolved
/// config (quick, scaling), git sha. Returns the bench's exit code, or 1
/// when it returned 0 but a check failed; the report is valid either way.
int run_registered(const BenchInfo& info, bool quick,
                   perf::BenchReport& report);

/// Writes `<dir>/BENCH_<name>.json` (creating dir); returns false on I/O
/// failure.
bool write_report_json(const std::string& dir,
                       const perf::BenchReport& report);

/// CLI shared by the standalone bench binaries: [--quick] [--json DIR].
int standalone_main(const char* name, int argc, char** argv);

}  // namespace fbm::bench

#ifdef FBM_BENCH_STANDALONE
#define FBM_BENCH_STANDALONE_MAIN(name)                      \
  int main(int argc, char** argv) {                          \
    return ::fbm::bench::standalone_main(#name, argc, argv); \
  }
#else
#define FBM_BENCH_STANDALONE_MAIN(name)
#endif

/// Defines a bench body and registers it under `name` (also the standalone
/// binary's main when FBM_BENCH_STANDALONE is defined):
///
///   FBM_BENCH(fig01_arrivals) {
///     ...                       // `ctx` is the bench::Context
///     return 0;
///   }
#define FBM_BENCH(name)                                            \
  static int fbm_bench_body_##name(::fbm::bench::Context&);        \
  [[maybe_unused]] static const int fbm_bench_reg_##name =         \
      ::fbm::bench::register_bench(#name, &fbm_bench_body_##name); \
  FBM_BENCH_STANDALONE_MAIN(name)                                  \
  static int fbm_bench_body_##name(                                \
      [[maybe_unused]] ::fbm::bench::Context& ctx)
