#include "live/windowed_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/catalog.hpp"

namespace fbm::live {

WindowReport fit_window_report(const LiveConfig& config,
                               const WindowPartial& raw,
                               RollingForecaster& forecaster,
                               AnomalyMonitor& monitor) {
  WindowReport report;
  report.window_index = static_cast<std::size_t>(raw.index);
  report.start_s = static_cast<double>(raw.index) * config.stride();
  report.width_s = config.window_s;
  report.stride_s = config.stride();
  report.packets = raw.packets;
  report.bytes = raw.bytes;
  report.discards = raw.discards;

  // The exact same fit the serial pipeline and the sharded merge run when
  // they close an analysis interval.
  api::WindowFit fit =
      api::fit_window(config.analysis, config.window_s, raw.sums, raw.bins);
  report.inputs = fit.inputs;
  report.measured = fit.measured;
  report.shot_b = fit.shot_b;
  report.shot_b_used = fit.shot_b_used;
  report.model_cov = fit.model_cov;
  report.plan = fit.plan;

  // Flow-population moments, from the same exact sums.
  report.flow_moments.mean_duration_s = raw.sums.mean_duration_s();
  report.flow_moments.stddev_size_bits = raw.sums.stddev_size_bits();
  report.flow_moments.stddev_duration_s = raw.sums.stddev_duration_s();
  report.flow_moments.mean_rate_bps = raw.sums.mean_rate_bps();

  // Forecast made from windows < k, then judge this window against it, then
  // fold this window's rate into the history for the next one.
  if (auto f = forecaster.forecast()) report.forecast = *f;
  monitor.evaluate(report, fit.series);
  forecaster.observe(report.measured.mean_bps);
  return report;
}

WindowedEstimator::WindowedEstimator(LiveConfig config)
    : config_(std::move(config)),
      forecaster_(config_.forecast_max_order, config_.forecast_history,
                  config_.band_k_sigma),
      monitor_(config_) {
  config_.validate();
  stride_ = config_.stride();

  classifier_options_.timeout = config_.analysis.timeout_s();
  // No boundary splitting inside a window: the window is the interval. A
  // flow straddling a window edge simply appears in every window that saw
  // its packets, re-derived from that window's packets alone.
  classifier_options_.interval = std::numeric_limits<double>::infinity();
  classifier_options_.record_discards = true;
  classifier_options_.reserve_flows =
      std::max<std::size_t>(64, api::kReserveFlows / config_.overlap());

  kmax_boundary_ = 0.0;  // first packet advances cur_kmax_ from -1
  next_close_end_ = window_end(0);
}

std::size_t WindowedEstimator::active_flows() const {
  std::size_t n = 0;
  for (const auto& s : open_) {
    if (s) n += s->classifier->active_flows();
  }
  return n;
}

WindowedEstimator::WindowState& WindowedEstimator::state_at(std::int64_t k) {
  auto& slot = open_[static_cast<std::size_t>(k - next_close_)];
  if (!slot) {
    slot = std::make_unique<WindowState>(WindowState{
        api::make_flow_classifier(config_.analysis.flow_definition(),
                                  classifier_options_),
        empty_window(k)});
  }
  return *slot;
}

WindowPartial WindowedEstimator::empty_window(std::int64_t k) const {
  return WindowPartial{
      .index = k,
      .bins = stats::RateBinner(window_start(k), window_end(k),
                                config_.analysis.delta_s())};
}

void WindowedEstimator::drain(WindowState& state) {
  for (const auto& f : state.classifier->take_flows()) state.raw.sums.add(f);
  for (const auto& d : state.classifier->take_discards()) {
    // The paper excludes discarded single-packet flows from the variance
    // measurement; subtract them from their bin, as the batch path does.
    state.raw.bins.add(d.timestamp, -static_cast<double>(d.size_bytes));
    ++state.raw.discards;
  }
}

void WindowedEstimator::expire_all(double now) {
  // Result-neutral early completion of idle flows (NetFlow's inactive
  // timer): emitting now or at the window flush yields the same records,
  // but the active tables stay O(active flows). Every flow of window k saw
  // its last packet at or after window_start(k), so while that start is
  // within the timeout of `now` the full-table scan would find nothing.
  const double timeout = config_.analysis.timeout_s();
  for (std::size_t i = 0; i < open_.size(); ++i) {
    auto& s = open_[i];
    if (!s) continue;
    const std::int64_t k = next_close_ + static_cast<std::int64_t>(i);
    if (now - window_start(k) > timeout) s->classifier->expire_idle(now);
    drain(*s);
  }
  if (obs::enabled()) {
    obs::live_open_windows().set(static_cast<double>(open_.size()));
    obs::flow_table_active("live")
        .set(static_cast<double>(active_flows()));
    for (const auto& s : open_) {  // sample the oldest touched window
      if (!s) continue;
      obs::flow_table_load_factor("live")
          .set(s->classifier->table_load_factor());
      obs::flow_table_avg_probe("live")
          .set(s->classifier->table_mean_probe());
      break;
    }
  }
  while (next_expire_ <= now) next_expire_ += api::kExpireEveryS;
}

void WindowedEstimator::push_batch(const net::PacketBatch& batch) {
  if (batch.empty()) return;
  if (finished_) {
    throw std::logic_error("WindowedEstimator: push after finish");
  }
  const double* ts = batch.timestamps.data();
  const std::uint32_t* sizes = batch.sizes.data();
  const std::size_t n = batch.size();
  net::check_order(batch.timestamps, last_ts_, "WindowedEstimator");
  if (ts[0] < 0.0) {
    throw std::invalid_argument("WindowedEstimator: negative timestamp");
  }

  if (counters_.packets == 0) {
    next_expire_ = ts[0] + api::kExpireEveryS;
  }
  last_ts_ = ts[n - 1];
  counters_.packets += n;

  static obs::Histogram& classify_seconds =
      obs::stage_seconds(obs::kStageClassify);
  std::size_t i = 0;
  while (i < n) {
    const double t = ts[i];
    // Close (and report) every window the stream clock has passed, empty
    // windows included, so the emitted index sequence stays contiguous.
    if (t >= next_close_end_) close_through(t);
    // Newest window whose start is <= t, tracked by boundary comparison (a
    // loop iteration per stride crossed, no per-packet division).
    while (t >= kmax_boundary_) {
      ++cur_kmax_;
      kmax_boundary_ = window_start(cur_kmax_ + 1);
    }
    max_window_ = std::max(max_window_, cur_kmax_);
    while (next_close_ + static_cast<std::int64_t>(open_.size()) <=
           cur_kmax_) {
      open_.emplace_back(nullptr);
    }
    // Expiring before the run is result-neutral: a flow idle past the
    // timeout at t emits the same record whether the sweep or the
    // classifier's own timeout step completes it.
    if (t >= next_expire_) expire_all(t);

    // Maximal run [i, j) with no window boundary, close watermark or expiry
    // deadline inside: every packet in it has ts < limit, found by
    // bisection (timestamps are non-decreasing).
    const double limit =
        std::min(kmax_boundary_, std::min(next_close_end_, next_expire_));
    std::size_t j = n;
    if (!(ts[n - 1] < limit)) {
      std::size_t lo = i + 1;
      std::size_t hi = n - 1;  // known: ts[hi] >= limit
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (ts[mid] < limit) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      j = lo;
    }

    std::uint64_t run_bytes = 0;
    for (std::size_t k = i; k < j; ++k) run_bytes += sizes[k];
    counters_.bytes += run_bytes;
    // The run's windows are exactly [next_close_, cur_kmax_]: each starts at
    // or before t (cur_kmax_ is the newest that does) and ends at or after
    // window_end(next_close_) > every ts in the run. With gapped windows
    // (stride > width) the range is empty while the run sits in a gap.
    obs::StageSpan span(classify_seconds);  // run (sub-batch) granularity
    for (std::int64_t k = next_close_; k <= cur_kmax_; ++k) {
      WindowState& state = state_at(k);
      state.classifier->add_batch(batch, i, j);
      for (std::size_t m = i; m < j; ++m) {
        state.raw.bins.add(ts[m], static_cast<double>(sizes[m]));
      }
      state.raw.packets += j - i;
      state.raw.bytes += run_bytes;
    }
    i = j;
  }
}

void WindowedEstimator::close_through(double now) {
  while (now >= next_close_end_) {
    std::unique_ptr<WindowState> state;
    if (!open_.empty()) {
      state = std::move(open_.front());
      open_.pop_front();
    }
    finalize_window(next_close_, state.get());
    ++next_close_;
    next_close_end_ = window_end(next_close_);
  }
}

void WindowedEstimator::finalize_window(std::int64_t k, WindowState* state) {
  // Flush/drain the window into its raw material. Untouched windows build
  // their (zero) bins here; touched windows hand over what they accumulated.
  if (state != nullptr) {
    state->classifier->flush();
    drain(*state);
  }
  WindowPartial raw =
      state != nullptr ? std::move(state->raw) : empty_window(k);

  ++counters_.windows;
  counters_.flows += raw.sums.n;
  if (obs::enabled()) {
    obs::live_windows_closed().add(1);
    obs::live_open_windows().set(static_cast<double>(open_.size()));
  }

  if (partial_sink_) {
    // Distributed mode: the raw material leaves for agg::Merger, which
    // fits/forecasts/judges once after the final fold. The local forecaster
    // and monitor never advance (they only ever saw this producer's key
    // slice, which would poison the merged history).
    partial_sink_(std::move(raw));
    return;
  }

  emit(fit_window_report(config_, raw, forecaster_, monitor_));
}

void WindowedEstimator::emit(WindowReport&& report) {
  if (obs::enabled() && report.anomaly.alert) {
    obs::live_alerts(report.anomaly.kind == AlertKind::spike ? "spike"
                                                             : "drop")
        .add(1);
  }
  if (sink_) {
    sink_(std::move(report));
  } else {
    ready_.push_back(std::move(report));
  }
}

void WindowedEstimator::finish() {
  if (finished_) return;
  finished_ = true;
  while (next_close_ <= max_window_) {
    std::unique_ptr<WindowState> state;
    if (!open_.empty()) {
      state = std::move(open_.front());
      open_.pop_front();
    }
    finalize_window(next_close_, state.get());
    ++next_close_;
  }
  open_.clear();
}

std::uint64_t WindowedEstimator::consume(api::TraceSource& source) {
  const std::uint64_t n = api::read_batches(
      source, std::max<std::size_t>(1, config_.analysis.batch_packets()),
      [this](const net::PacketBatch& b) { push_batch(b); });
  finish();
  return n;
}

WindowReport WindowedEstimator::pop_report() {
  if (ready_.empty()) {
    throw std::logic_error("WindowedEstimator: no report ready");
  }
  WindowReport r = std::move(ready_.front());
  ready_.pop_front();
  return r;
}

std::vector<WindowReport> WindowedEstimator::take_reports() {
  std::vector<WindowReport> out(std::make_move_iterator(ready_.begin()),
                                std::make_move_iterator(ready_.end()));
  ready_.clear();
  return out;
}

// ------------------------------------------------------- snapshot/restore ---

EstimatorState WindowedEstimator::save_state() {
  if (finished_) {
    throw std::logic_error("WindowedEstimator: snapshot after finish");
  }
  if (!ready_.empty()) {
    throw std::logic_error(
        "WindowedEstimator: drain pending reports before snapshot");
  }
  EstimatorState st;
  st.counters = counters_;
  st.last_ts = last_ts_;
  st.next_expire = next_expire_;
  st.next_close = next_close_;
  st.max_window = max_window_;
  st.cur_kmax = cur_kmax_;
  st.forecast_history = forecaster_.history();
  st.monitor_consecutive =
      static_cast<std::uint64_t>(monitor_.consecutive_outside());
  st.monitor_last_kind = static_cast<std::uint32_t>(monitor_.last_kind());
  st.open.reserve(open_.size());
  for (const auto& slot : open_) {
    if (slot) {
      drain(*slot);
      st.open.push_back(EstimatorState::OpenWindow{
          slot->classifier->save_state(), slot->raw});
    } else {
      st.open.emplace_back(std::nullopt);
    }
  }
  return st;
}

void WindowedEstimator::restore_state(const EstimatorState& state) {
  if (finished_ || counters_.packets != 0 || counters_.windows != 0 ||
      next_close_ != 0 || !open_.empty() || !ready_.empty()) {
    throw std::logic_error(
        "WindowedEstimator: restore needs a fresh estimator");
  }
  if (state.monitor_last_kind >
      static_cast<std::uint32_t>(AlertKind::drop)) {
    throw std::invalid_argument("EstimatorState: unknown alert kind");
  }
  forecaster_.restore_history(state.forecast_history);
  monitor_.restore_hysteresis(
      static_cast<std::size_t>(state.monitor_consecutive),
      static_cast<AlertKind>(state.monitor_last_kind));

  counters_ = state.counters;
  last_ts_ = state.last_ts;
  next_expire_ = state.next_expire;
  next_close_ = state.next_close;
  max_window_ = state.max_window;
  cur_kmax_ = state.cur_kmax;
  kmax_boundary_ = window_start(cur_kmax_ + 1);
  next_close_end_ = window_end(next_close_);

  for (std::size_t i = 0; i < state.open.size(); ++i) {
    const auto& ow = state.open[i];
    if (!ow) {
      open_.emplace_back(nullptr);
      continue;
    }
    const std::int64_t k = state.next_close + static_cast<std::int64_t>(i);
    const stats::RateBinner& bins = ow->window.bins;
    if (ow->window.index != k || bins.grid_start() != window_start(k) ||
        bins.grid_end() != window_end(k) ||
        bins.grid_delta() != config_.analysis.delta_s()) {
      throw std::invalid_argument(
          "EstimatorState: window bins do not match the configured grid");
    }
    auto ws = std::make_unique<WindowState>(WindowState{
        api::make_flow_classifier(config_.analysis.flow_definition(),
                                  classifier_options_),
        ow->window});
    ws->classifier->restore_state(ow->classifier);
    open_.push_back(std::move(ws));
  }
}

}  // namespace fbm::live
