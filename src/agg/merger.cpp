#include "agg/merger.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "api/shard.hpp"
#include "engine/report.hpp"
#include "live/window_report.hpp"
#include "obs/catalog.hpp"

namespace fbm::agg {

void Merger::add_file(const std::filesystem::path& path) {
  add(read_partial_file(path));
}

void Merger::add(PartialFile&& file) {
  if (files_ == 0) {
    meta_ = std::move(file.meta);
  } else {
    check_compatible(meta_, file.meta);
  }
  ++files_;
  if (obs::enabled()) obs::agg_partials_read().add(1);

  // Trace totals: u64 sums are exact; first/last only count producers that
  // actually saw packets (an idle shard's zeroed timestamps must not win
  // the min).
  const auto& s = file.totals.summary;
  if (s.packets > 0) {
    if (summary_.packets == 0 || s.first_ts < summary_.first_ts) {
      summary_.first_ts = s.first_ts;
    }
    if (summary_.packets == 0 || s.last_ts > summary_.last_ts) {
      summary_.last_ts = s.last_ts;
    }
  }
  summary_.packets += s.packets;
  summary_.total_bytes += s.total_bytes;

  for (const auto& lt : file.totals.links) {
    auto& total = link_totals_[lt.id];
    total.id = lt.id;
    total.packets += lt.packets;
    total.bytes += lt.bytes;
  }

  for (auto& w : file.windows) fold_window(std::move(w));
}

void Merger::fold_window(PartialWindow&& w) {
  if (obs::enabled()) obs::agg_windows_merged().add(1);
  auto& cell = by_link_[w.link_id];
  auto it = cell.find(w.window.index);
  if (it == cell.end()) {
    cell.emplace(w.window.index, std::move(w.window));
    return;
  }
  // Fold order is irrelevant: every field is an exact sum — the same
  // argument api::AnalysisPipeline's shard merge relies on.
  try {
    it->second.merge(std::move(w.window));
  } catch (const std::invalid_argument&) {
    throw std::runtime_error(
        "partial files disagree on the bin grid of window " +
        std::to_string(w.window.index) + " and cannot be merged");
  }
}

MergeResult Merger::finish() {
  if (files_ == 0) {
    throw std::runtime_error("no partial files to merge");
  }
  if (summary_.packets == 0) {
    throw std::runtime_error("merged partials contain no packets");
  }

  MergeResult result;
  result.kind = meta_.kind;
  result.engine = meta_.engine;
  result.files = files_;
  result.summary = summary_;

  // Per-link window coverage: every producer emits contiguous indices from
  // 0, so the merged span is 0..max-seen; indices some producers never
  // touched fold with empty material on the configuration's grid.
  const auto max_index = [&](std::uint32_t link) {
    const auto it = by_link_.find(link);
    if (it == by_link_.end() || it->second.empty()) return std::int64_t{-1};
    return it->second.rbegin()->first;
  };
  const auto take = [&](std::uint32_t link, std::int64_t index, double start,
                        double end, double delta) {
    auto& cell = by_link_[link];
    if (const auto it = cell.find(index); it != cell.end()) {
      return std::move(it->second);
    }
    return api::WindowPartial{.index = index,
                              .bins = stats::RateBinner(start, end, delta)};
  };

  if (meta_.kind == PartialKind::batch) {
    const api::AnalysisConfig config = meta_.analysis_config();
    const auto fit_link = [&](std::uint32_t link) {
      std::vector<api::AnalysisReport> reports;
      for (std::int64_t k = 0; k <= max_index(link); ++k) {
        const double start = static_cast<double>(k) * config.interval_s();
        ++result.windows;
        api::AnalysisReport report = api::finalize_interval(
            config, take(link, k, start, start + config.interval_s(),
                         config.delta_s()));
        // min_flows deferred with the fit: applied here, exactly once.
        if (report.inputs.flows >= config.min_flows()) {
          reports.push_back(std::move(report));
        }
      }
      return reports;
    };

    if (!meta_.engine) {
      const std::vector<api::AnalysisReport> reports = fit_link(0);
      result.document = api::to_json(summary_, reports);
      return result;
    }
    std::vector<engine::LinkBatchResult> links;
    links.reserve(meta_.links.size());
    for (const auto& decl : meta_.links) {
      engine::LinkCounters counters;
      if (const auto it = link_totals_.find(decl.id);
          it != link_totals_.end()) {
        counters.packets = it->second.packets;
        counters.bytes = it->second.bytes;
      }
      std::vector<api::AnalysisReport> reports = fit_link(decl.id);
      counters.reports = reports.size();
      links.push_back({decl.name, counters, std::move(reports)});
    }
    result.document = engine::to_json(summary_, links);
    return result;
  }

  // Live: replay the per-link forecaster/monitor state in window order —
  // the forecast for window k is a function of windows < k, so the merge
  // must fit them in exactly the order the producer's estimator would have.
  const live::LiveConfig config = meta_.live_config();
  struct LinkState {
    std::uint32_t id;
    std::string name;
    std::int64_t max;
    live::RollingForecaster forecaster;
    live::AnomalyMonitor monitor;
  };
  std::vector<LinkState> states;
  const auto make_state = [&](std::uint32_t id, std::string name) {
    return LinkState{id, std::move(name), max_index(id),
                     live::RollingForecaster(
                         config.forecast_max_order, config.forecast_history,
                         config.band_k_sigma),
                     live::AnomalyMonitor(config)};
  };
  if (!meta_.engine) {
    states.push_back(make_state(0, ""));
  } else {
    for (const auto& decl : meta_.links) {
      states.push_back(make_state(decl.id, decl.name));
    }
  }
  std::int64_t global_max = -1;
  for (const auto& st : states) global_max = std::max(global_max, st.max);

  for (std::int64_t k = 0; k <= global_max; ++k) {
    for (auto& st : states) {
      if (k > st.max) continue;
      const double start = static_cast<double>(k) * config.stride();
      ++result.windows;
      live::WindowReport report = live::fit_window_report(
          config,
          take(st.id, k, start, start + config.window_s,
               config.analysis.delta_s()),
          st.forecaster, st.monitor);
      result.lines.push_back(meta_.engine
                                 ? live::to_jsonl(report, st.name)
                                 : live::to_jsonl(report));
    }
  }
  return result;
}

}  // namespace fbm::agg
