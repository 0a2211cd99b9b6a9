#include "obs/catalog.hpp"

#include <map>
#include <mutex>

namespace fbm::obs {

namespace {

Registry& reg() { return Registry::global(); }

/// Cache for labeled families: one registry resolve per distinct label
/// value, then a plain map lookup under a local mutex. Labeled accessors
/// are called at setup/flush cadence, not per packet.
template <typename T, typename Make>
T& labeled(std::map<std::string, T*>& cache, std::mutex& mu,
           const std::string& label_value, Make make) {
  std::lock_guard lock(mu);
  auto it = cache.find(label_value);
  if (it == cache.end()) {
    it = cache.emplace(label_value, &make()).first;
  }
  return *it->second;
}

}  // namespace

Histogram& stage_seconds(const std::string& stage) {
  static std::mutex mu;
  static std::map<std::string, Histogram*> cache;
  return labeled(cache, mu, stage, [&]() -> Histogram& {
    return reg().histogram({.name = "fbm_stage_seconds",
                            .help = "Wall time per pipeline stage span",
                            .unit = "seconds",
                            .stage = stage,
                            .labels = {{"stage", stage}}},
                           log_scale_bounds(1e-6, 4.0, 13));
  });
}

Gauge& flow_table_active(const std::string& pipeline) {
  static std::mutex mu;
  static std::map<std::string, Gauge*> cache;
  return labeled(cache, mu, pipeline, [&]() -> Gauge& {
    return reg().gauge({.name = "fbm_flow_table_active",
                        .help = "Open flows in the flow table",
                        .unit = "flows",
                        .stage = kStageClassify,
                        .labels = {{"pipeline", pipeline}}});
  });
}

Gauge& flow_table_load_factor(const std::string& pipeline) {
  static std::mutex mu;
  static std::map<std::string, Gauge*> cache;
  return labeled(cache, mu, pipeline, [&]() -> Gauge& {
    return reg().gauge({.name = "fbm_flow_table_load_factor",
                        .help = "Flow table occupancy / capacity",
                        .unit = "ratio",
                        .stage = kStageClassify,
                        .labels = {{"pipeline", pipeline}}});
  });
}

Gauge& flow_table_avg_probe(const std::string& pipeline) {
  static std::mutex mu;
  static std::map<std::string, Gauge*> cache;
  return labeled(cache, mu, pipeline, [&]() -> Gauge& {
    return reg().gauge({.name = "fbm_flow_table_avg_probe",
                        .help = "Mean robin-hood probe distance",
                        .unit = "slots",
                        .stage = kStageClassify,
                        .labels = {{"pipeline", pipeline}}});
  });
}

Counter& source_packets() {
  static Counter& c = reg().counter(
      {.name = "fbm_source_packets_total",
       .help = "Packets read from the trace source",
       .unit = "packets",
       .stage = kStageSourceRead});
  return c;
}

Counter& source_batches() {
  static Counter& c = reg().counter(
      {.name = "fbm_source_batches_total",
       .help = "Batches read from the trace source",
       .unit = "batches",
       .stage = kStageSourceRead});
  return c;
}

Counter& demux_packets() {
  static Counter& c = reg().counter(
      {.name = "fbm_demux_packets_total",
       .help = "Packets seen by the engine link demux",
       .unit = "packets",
       .stage = kStageDemux});
  return c;
}

Gauge& link_packets(const std::string& link) {
  static std::mutex mu;
  static std::map<std::string, Gauge*> cache;
  return labeled(cache, mu, link, [&]() -> Gauge& {
    return reg().gauge({.name = "fbm_link_packets",
                        .help = "Packets routed to this link so far",
                        .unit = "packets",
                        .stage = kStageDemux,
                        .labels = {{"link", link}}});
  });
}

Gauge& link_reports(const std::string& link) {
  static std::mutex mu;
  static std::map<std::string, Gauge*> cache;
  return labeled(cache, mu, link, [&]() -> Gauge& {
    return reg().gauge({.name = "fbm_link_reports",
                        .help = "Reports emitted for this link so far",
                        .unit = "reports",
                        .stage = kStageDemux,
                        .labels = {{"link", link}}});
  });
}

Gauge& worker_queue_depth(const std::string& pool, std::size_t worker) {
  static std::mutex mu;
  static std::map<std::string, Gauge*> cache;
  const std::string key = pool + '/' + std::to_string(worker);
  return labeled(cache, mu, key, [&]() -> Gauge& {
    return reg().gauge({.name = "fbm_worker_queue_depth",
                        .help = "Commands queued for this worker",
                        .unit = "commands",
                        .stage = kStageDemux,
                        .labels = {{"pool", pool},
                                   {"worker", std::to_string(worker)}}});
  });
}

Counter& backpressure_waits(const std::string& pool) {
  static std::mutex mu;
  static std::map<std::string, Counter*> cache;
  return labeled(cache, mu, pool, [&]() -> Counter& {
    return reg().counter({.name = "fbm_backpressure_waits_total",
                          .help = "Producer blocked on a full worker queue",
                          .unit = "waits",
                          .stage = kStageDemux,
                          .labels = {{"pool", pool}}});
  });
}

Counter& windows_fitted() {
  static Counter& c = reg().counter(
      {.name = "fbm_windows_fitted_total",
       .help = "Windows fitted through api::fit_window",
       .unit = "windows",
       .stage = kStageFit});
  return c;
}

Gauge& live_open_windows() {
  static Gauge& g = reg().gauge(
      {.name = "fbm_live_open_windows",
       .help = "Currently open sliding windows",
       .unit = "windows",
       .stage = kStageFit});
  return g;
}

Counter& live_windows_closed() {
  static Counter& c = reg().counter(
      {.name = "fbm_live_windows_closed_total",
       .help = "Sliding windows closed and emitted",
       .unit = "windows",
       .stage = kStageFit});
  return c;
}

Gauge& live_window_lag_s() {
  static Gauge& g = reg().gauge(
      {.name = "fbm_live_window_lag_seconds",
       .help = "Wall clock minus newest packet time (--follow)",
       .unit = "seconds",
       .stage = kStageFit});
  return g;
}

Counter& live_alerts(const std::string& kind) {
  static std::mutex mu;
  static std::map<std::string, Counter*> cache;
  return labeled(cache, mu, kind, [&]() -> Counter& {
    return reg().counter({.name = "fbm_live_alerts_total",
                          .help = "Anomaly alerts emitted",
                          .unit = "alerts",
                          .stage = kStageForecast,
                          .labels = {{"kind", kind}}});
  });
}

Counter& store_appends() {
  static Counter& c = reg().counter(
      {.name = "fbm_store_appends_total",
       .help = "Reports appended to the FBMS store",
       .unit = "records",
       .stage = kStageStoreAppend});
  return c;
}

Counter& store_scanned() {
  static Counter& c = reg().counter(
      {.name = "fbm_store_scanned_total",
       .help = "Records scanned from the FBMS store",
       .unit = "records",
       .stage = kStageStoreAppend});
  return c;
}

Counter& agg_windows_merged() {
  static Counter& c = reg().counter(
      {.name = "fbm_agg_windows_merged_total",
       .help = "Windows folded by the distributed merger",
       .unit = "windows",
       .stage = kStageFit});
  return c;
}

Counter& agg_partials_read() {
  static Counter& c = reg().counter(
      {.name = "fbm_agg_partials_read_total",
       .help = "Partial-report files read by the merger",
       .unit = "files",
       .stage = kStageFit});
  return c;
}

Counter& checkpoint_writes() {
  static Counter& c = reg().counter(
      {.name = "fbm_checkpoint_writes_total",
       .help = "Checkpoints written",
       .unit = "checkpoints",
       .stage = kStageCheckpoint});
  return c;
}

Gauge& checkpoint_last_bytes() {
  static Gauge& g = reg().gauge(
      {.name = "fbm_checkpoint_last_bytes",
       .help = "Size of the most recent checkpoint",
       .unit = "bytes",
       .stage = kStageCheckpoint});
  return g;
}

Counter& scenario_events(const std::string& kind) {
  static std::mutex mu;
  static std::map<std::string, Counter*> cache;
  return labeled(cache, mu, kind, [&]() -> Counter& {
    return reg().counter({.name = "fbm_scenario_events_total",
                          .help = "Ground-truth events in the truth log",
                          .unit = "events",
                          .stage = kStageScenarioScore,
                          .labels = {{"kind", kind}}});
  });
}

Counter& scenario_alerts(const std::string& result) {
  static std::mutex mu;
  static std::map<std::string, Counter*> cache;
  return labeled(cache, mu, result, [&]() -> Counter& {
    return reg().counter({.name = "fbm_scenario_alerts_total",
                          .help = "Scored alert verdicts",
                          .unit = "alerts",
                          .stage = kStageScenarioScore,
                          .labels = {{"result", result}}});
  });
}

}  // namespace fbm::obs
