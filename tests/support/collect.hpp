// Sink-collecting helpers for the stage tests. Every analysis stage
// (WindowedEstimator, Engine) hands what it closes to a sink; collect()
// sets one that keeps every report, in emission order, for the test to
// take. collect_intervals() fits an estimator's partials as api::analyze
// fits them (api::finalize_interval, min_flows included).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "api/pipeline.hpp"
#include "api/shard.hpp"
#include "engine/engine.hpp"
#include "live/windowed_estimator.hpp"

namespace fbm::testsupport {

/// Reports a stage's sink delivered and no test has taken yet. Locked: an
/// engine's sink runs on its pool workers.
template <typename Report>
class Collected {
 public:
  void add(Report&& report) {
    std::lock_guard lock(mu_);
    reports_.push_back(std::move(report));
  }
  /// Every report delivered since the last take(), oldest first.
  [[nodiscard]] std::vector<Report> take() {
    std::lock_guard lock(mu_);
    return std::exchange(reports_, {});
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return reports_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Report> reports_;
};

/// Sets `estimator`'s partial sink to fit each interval it closes under
/// the batch `config` (the estimator's windows must be
/// live::batch_windows(config)). The sink shares ownership of the result,
/// so either may outlive the other.
[[nodiscard]] inline std::shared_ptr<Collected<api::AnalysisReport>>
collect_intervals(live::WindowedEstimator& estimator,
                  const api::AnalysisConfig& config) {
  auto out = std::make_shared<Collected<api::AnalysisReport>>();
  estimator.set_partial_sink([out, config](api::WindowPartial&& raw) {
    if (auto report = api::finalize_interval(config, raw)) {
      out->add(std::move(*report));
    }
  });
  return out;
}

/// Sets `estimator`'s window sink.
[[nodiscard]] inline std::shared_ptr<Collected<live::WindowReport>> collect(
    live::WindowedEstimator& estimator) {
  auto out = std::make_shared<Collected<live::WindowReport>>();
  estimator.set_window_sink(
      [out](live::WindowReport&& report) { out->add(std::move(report)); });
  return out;
}

/// Sets `eng`'s report sink.
[[nodiscard]] inline std::shared_ptr<Collected<engine::LinkReport>> collect(
    engine::Engine& eng) {
  auto out = std::make_shared<Collected<engine::LinkReport>>();
  eng.set_report_sink(
      [out](engine::LinkReport&& report) { out->add(std::move(report)); });
  return out;
}

}  // namespace fbm::testsupport
