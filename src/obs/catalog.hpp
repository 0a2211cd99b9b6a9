// Canonical metric catalog (fbm::obs): every metric the tree emits is
// declared here, so names, units, and stages stay consistent between the
// instrumentation sites, the README table, and the schema tests.
//
// Each accessor resolves its instrument in Registry::global() on first call
// and caches the reference in a function-local static — instrumentation
// sites pay the registry mutex once per process, never per event.
//
// Labeled families (per-stage histograms, per-link counters, per-worker
// gauges) take the label value; callers that fire per batch resolve the
// instrument once at setup and keep the reference.
//
// StageSpan is the sampling primitive for the per-stage wall-time
// breakdown: a scoped perf::Stopwatch that observes its elapsed seconds
// into fbm_stage_seconds{stage=...} on destruction. Spans wrap *batch*
// work (read a batch, classify a batch, fit a window, write a checkpoint),
// never per-packet work, so the timing cost amortises to nothing.
#pragma once

#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "obs/registry.hpp"

namespace fbm::obs {

// Stage names, also the `stage=` label of fbm_stage_seconds. Keep in sync
// with the README metric catalog.
inline constexpr const char* kStageSourceRead = "source_read";
inline constexpr const char* kStageDemux = "demux";
inline constexpr const char* kStageClassify = "classify";
inline constexpr const char* kStageFit = "fit";
inline constexpr const char* kStageForecast = "forecast";
inline constexpr const char* kStageStoreAppend = "store_append";
inline constexpr const char* kStageCheckpoint = "checkpoint_write";
inline constexpr const char* kStageScenarioScore = "scenario_score";

/// fbm_stage_seconds{stage=...} — per-stage wall time, log-scale buckets
/// 1 us .. ~17 s (factor 4). One histogram per distinct stage string.
[[nodiscard]] Histogram& stage_seconds(const std::string& stage);

/// Scoped span: observes elapsed seconds into `h` at scope exit. The
/// obs::enabled() check happens at construction; a disabled span is two
/// branches total — it never reads the clock, so a metrics-off run pays
/// nothing measurable.
class StageSpan {
 public:
  explicit StageSpan(Histogram& h) {
    if (enabled()) {
      h_ = &h;
      start_ = std::chrono::steady_clock::now();
    }
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;
  ~StageSpan() {
    if (h_ != nullptr) {
      h_->observe(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
    }
  }

 private:
  Histogram* h_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

// --- classify -------------------------------------------------------------
/// Flow-table occupancy / geometry, refreshed at expiry cadence.
[[nodiscard]] Gauge& flow_table_active(const std::string& pipeline);
[[nodiscard]] Gauge& flow_table_load_factor(const std::string& pipeline);
[[nodiscard]] Gauge& flow_table_avg_probe(const std::string& pipeline);

// --- source / demux -------------------------------------------------------
/// Packets read from the trace source (before any demux/classify).
[[nodiscard]] Counter& source_packets();
/// Batches read from the trace source.
[[nodiscard]] Counter& source_batches();
/// Packets seen by the engine demux (before link matching).
[[nodiscard]] Counter& demux_packets();
/// Per-link routed packets/reports, refreshed by the engine at flush.
[[nodiscard]] Gauge& link_packets(const std::string& link);
[[nodiscard]] Gauge& link_reports(const std::string& link);

// --- workers / backpressure ----------------------------------------------
/// Queue depth of one worker ("engine"/"pipeline" pool, worker index).
[[nodiscard]] Gauge& worker_queue_depth(const std::string& pool,
                                        std::size_t worker);
/// Producer blocked on a full worker queue (one count per wait).
[[nodiscard]] Counter& backpressure_waits(const std::string& pool);

// --- fit / window / live --------------------------------------------------
/// Windows fitted through api::fit_window (all paths). A plain counter:
/// windows close at interval cadence, so one shared add per window is free.
[[nodiscard]] Counter& windows_fitted();
/// Live estimator: currently open windows.
[[nodiscard]] Gauge& live_open_windows();
/// Live estimator: windows closed and emitted.
[[nodiscard]] Counter& live_windows_closed();
/// Newest packet timestamp vs wall clock in --follow mode (seconds).
[[nodiscard]] Gauge& live_window_lag_s();
/// Anomaly alerts by kind ("spike" / "drop").
[[nodiscard]] Counter& live_alerts(const std::string& kind);

// --- sinks / durability ---------------------------------------------------
/// Reports appended to an FBMS store.
[[nodiscard]] Counter& store_appends();
/// Records scanned from an FBMS store (fbm_query).
[[nodiscard]] Counter& store_scanned();
/// Windows folded by the distributed merger (fbm_aggregate).
[[nodiscard]] Counter& agg_windows_merged();
/// Partial-report files read by the merger.
[[nodiscard]] Counter& agg_partials_read();
/// Checkpoints written; size of the most recent one.
[[nodiscard]] Counter& checkpoint_writes();
[[nodiscard]] Gauge& checkpoint_last_bytes();

// --- scenario scoring (fbm_live --truth) -----------------------------------
/// Ground-truth events in the truth log, by kind ("spike" / "drop").
[[nodiscard]] Counter& scenario_events(const std::string& kind);
/// Alert-scoring verdicts ("tp" / "fp" / "ignored").
[[nodiscard]] Counter& scenario_alerts(const std::string& result);

}  // namespace fbm::obs
