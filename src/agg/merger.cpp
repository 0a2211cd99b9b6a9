#include "agg/merger.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/shard.hpp"
#include "engine/report.hpp"
#include "live/window_report.hpp"
#include "obs/catalog.hpp"

namespace fbm::agg {

namespace {

/// Refuses a file no producing tool could have written: a config its own
/// validation rejects (api::validate_config or LiveConfig::validate, a
/// shot power that is not finite and >= 0), a window whose bin grid is not
/// the one the config gives its index, or a link whose window indices do
/// not run 0..n-1 once each (which also bounds what finish() fits).
void check_file(const PartialFile& f) {
  const PartialMeta& m = f.meta;
  try {
    if (m.kind == PartialKind::batch) {
      api::validate_config(m.analysis_config());
    } else {
      m.live_config().validate();
    }
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("invalid producer config: ") +
                             e.what());
  }
  // fixed_b < 0 is the "fit per window" sentinel.
  if (!std::isfinite(m.fixed_b) ||
      !(std::isfinite(m.fallback_b) && m.fallback_b >= 0.0)) {
    throw std::runtime_error(
        "invalid producer config: fixed_b " + std::to_string(m.fixed_b) +
        ", fallback_b " + std::to_string(m.fallback_b) +
        " (a shot power must be finite and >= 0)");
  }
  const bool batch = m.kind == PartialKind::batch;
  const double step = batch ? m.interval_s : m.live_config().stride();
  const double width = batch ? m.interval_s : m.window_s;
  std::map<std::uint32_t, std::vector<std::int64_t>> indices;
  for (const auto& w : f.windows) {
    const std::int64_t k = w.window.index;
    indices[w.link_id].push_back(k);
    const double start = static_cast<double>(k) * step;
    const auto check = [&](const char* field, double got, double want) {
      if (got == want) return;
      throw std::runtime_error(
          "window " + std::to_string(k) + " of link " +
          std::to_string(w.link_id) + ": " + field + " " +
          std::to_string(got) + " is not the config's " +
          std::to_string(want));
    };
    check("grid_start", w.window.bins.grid_start(), start);
    check("grid_end", w.window.bins.grid_end(), start + width);
    check("grid_delta", w.window.bins.grid_delta(), m.delta_s);
  }
  for (auto& [link, ks] : indices) {
    std::sort(ks.begin(), ks.end());
    for (std::size_t i = 0; i < ks.size(); ++i) {
      if (ks[i] == static_cast<std::int64_t>(i)) continue;
      throw std::runtime_error("link " + std::to_string(link) +
                               ": window index " + std::to_string(ks[i]) +
                               " where " + std::to_string(i) + " belongs");
    }
  }
}

}  // namespace

void Merger::add_file(const std::filesystem::path& path) {
  PartialFile file = read_partial_file(path);
  try {
    add(std::move(file));
  } catch (const std::exception& e) {
    throw std::runtime_error("partial file " + path.string() + ": " +
                             e.what());
  }
}

void Merger::add(PartialFile&& file) {
  // Everything is checked before anything folds: a refused file leaves the
  // merger as it was.
  check_file(file);
  if (files_ > 0) check_compatible(meta_, file.meta);
  if (files_ == 0) meta_ = std::move(file.meta);
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

  // Fold order is irrelevant: every field is an exact sum — the same
  // argument the engine's per-link shard fold relies on. The grids agree:
  // check_file pinned each window's to the (compatible) config.
  for (auto& w : file.windows) {
    if (obs::enabled()) obs::agg_windows_merged().add(1);
    auto& cell = by_link_[w.link_id];
    const auto it = cell.find(w.window.index);
    if (it == cell.end()) {
      cell.emplace(w.window.index, std::move(w.window));
    } else {
      it->second.merge(std::move(w.window));
    }
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
        if (auto report = api::finalize_interval(
                config, take(link, k, start, start + config.interval_s(),
                             config.delta_s()))) {
          reports.push_back(std::move(*report));
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
