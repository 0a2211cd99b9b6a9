#include "api/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/fitting.hpp"
#include "core/moments.hpp"
#include "dimension/provisioning.hpp"
#include "flow/interval.hpp"
#include "measure/rate_meter.hpp"
#include "net/ip.hpp"

namespace fbm::api {

namespace {

// Canonical-key conversions for ClassifierState (see shard.hpp): a prefix
// key travels as a FiveTuple with the network address in dst and the prefix
// length in src_port.
[[nodiscard]] net::FiveTuple canonical_key(const net::FiveTuple& key) {
  return key;
}
[[nodiscard]] net::FiveTuple canonical_key(const net::Prefix& key) {
  net::FiveTuple t;
  t.dst = key.network();
  t.src_port = static_cast<std::uint16_t>(key.length());
  return t;
}
void key_from_canonical(const net::FiveTuple& t, net::FiveTuple& out) {
  out = t;
}
void key_from_canonical(const net::FiveTuple& t, net::Prefix& out) {
  if (t.src_port > 32) {
    throw std::invalid_argument("ClassifierState: invalid prefix length");
  }
  out = net::Prefix(t.dst, static_cast<int>(t.src_port));
}

template <typename Key>
class ClassifierImpl final : public FlowClassifierHandle {
 public:
  explicit ClassifierImpl(const flow::ClassifierOptions& options)
      : classifier_(options) {}

  void add_batch(const net::PacketBatch& batch, std::size_t begin,
                 std::size_t end) override {
    classifier_.add_batch(batch, begin, end);
  }
  void expire_idle(double now) override { classifier_.expire_idle(now); }
  void flush() override { classifier_.flush(); }
  [[nodiscard]] std::vector<flow::FlowRecord> take_flows() override {
    return classifier_.take_flows();
  }
  [[nodiscard]] std::vector<flow::DiscardedPacket> take_discards() override {
    return classifier_.take_discards();
  }
  [[nodiscard]] const flow::ClassifierCounters& counters() const override {
    return classifier_.counters();
  }
  [[nodiscard]] std::size_t active_flows() const override {
    return classifier_.active_flows();
  }
  [[nodiscard]] double table_load_factor() const override {
    return classifier_.table_load_factor();
  }
  [[nodiscard]] double table_mean_probe() const override {
    return classifier_.table_mean_probe();
  }

  [[nodiscard]] ClassifierState save_state() const override {
    if (!classifier_.flows().empty() || !classifier_.discards().empty()) {
      throw std::logic_error(
          "ClassifierState: take completed flows and discards first");
    }
    ClassifierState st;
    st.active.reserve(classifier_.active_flows());
    classifier_.visit_active([&](const auto& key,
                                 const flow::FlowRecord& record,
                                 std::int64_t start_index) {
      st.active.push_back({canonical_key(key), record, start_index});
    });
    st.counters = classifier_.counters();
    st.last_ts = classifier_.stream_clock();
    return st;
  }

  void restore_state(const ClassifierState& state) override {
    for (const auto& a : state.active) {
      typename Key::key_type key;
      key_from_canonical(a.key, key);
      classifier_.restore_active_flow(key, a.record, a.start_index);
    }
    classifier_.restore_counters(state.counters, state.last_ts);
  }

 private:
  flow::FlowClassifier<Key> classifier_;
};

}  // namespace

std::unique_ptr<FlowClassifierHandle> make_flow_classifier(
    const AnalysisConfig& config) {
  flow::ClassifierOptions options;
  options.timeout = config.timeout_s();
  options.interval = config.interval_s();
  options.record_discards = true;
  // Reserve ahead, split across shards: each worker only ever owns the flow
  // keys that hash to it, so the per-classifier share shrinks with the
  // thread count (floor of 64 keeps tiny configs from degenerate tables).
  // AnalysisPipeline resolves threads() first; the max guards a caller
  // handing in a still-unresolved "auto" (0) config.
  const std::size_t shards = std::max<std::size_t>(1, config.threads());
  options.reserve_flows = std::max<std::size_t>(64, kReserveFlows / shards);
  return make_flow_classifier(config.flow_definition(), options);
}

std::unique_ptr<FlowClassifierHandle> make_flow_classifier(
    FlowDefinition def, const flow::ClassifierOptions& options) {
  switch (def) {
    case FlowDefinition::prefix24:
      return std::make_unique<ClassifierImpl<flow::PrefixKey<24>>>(options);
    case FlowDefinition::five_tuple:
      break;
  }
  return std::make_unique<ClassifierImpl<flow::FiveTupleKey>>(options);
}

void validate_config(const AnalysisConfig& config) {
  if (!(config.timeout_s() > 0.0)) {
    throw std::invalid_argument("AnalysisPipeline: timeout <= 0");
  }
  if (!(config.interval_s() > 0.0) || !std::isfinite(config.interval_s())) {
    throw std::invalid_argument("AnalysisPipeline: interval must be finite");
  }
  if (!(config.delta_s() > 0.0) || !std::isfinite(config.delta_s())) {
    throw std::invalid_argument("AnalysisPipeline: delta must be finite > 0");
  }
  if (!(config.epsilon() > 0.0 && config.epsilon() < 1.0)) {
    throw std::invalid_argument("AnalysisPipeline: eps outside (0,1)");
  }
  (void)resolve_threads(config.threads());  // bounds check only
  if (config.batch_packets() == 0) {
    throw std::invalid_argument("AnalysisPipeline: batch_packets == 0");
  }
}

std::size_t resolve_threads(std::size_t configured) {
  if (configured > kMaxThreads) {
    throw std::invalid_argument("threads must be in [0, " +
                                std::to_string(kMaxThreads) +
                                "] (0 = auto)");
  }
  if (configured != 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t flow_shard_of(const net::FiveTuple& tuple, FlowDefinition def,
                          std::size_t nshards) {
  if (nshards <= 1) return 0;
  std::size_t h = 0;
  switch (def) {
    case FlowDefinition::five_tuple:
      h = net::FiveTupleHash{}(tuple);
      break;
    case FlowDefinition::prefix24:
      h = net::PrefixHash{}(net::Prefix(tuple.dst, 24));
      break;
  }
  return h % nshards;
}

// ----------------------------------------------------------- PipelineShard ---

PipelineShard::PipelineShard(const AnalysisConfig& config) : config_(config) {
  validate_config(config_);
  classifier_ = make_flow_classifier(config_);
  // Resolve the obs instruments once (mutex-guarded registry lookups);
  // after this the shard only ever does relaxed adds on its own cells.
  obs_packets_ = obs::classify_packets().local();
  obs_flows_ = obs::flows_emitted().local();
  obs_discards_ = obs::flows_discarded().local();
  obs_splits_ = obs::flow_boundary_splits().local();
  obs_classify_seconds_ = &obs::stage_seconds(obs::kStageClassify);
}

WindowPartial PipelineShard::make_interval(std::int64_t index) const {
  const double start = static_cast<double>(index) * config_.interval_s();
  return WindowPartial{.index = index,
                       .bins = stats::RateBinner(start,
                                                 start + config_.interval_s(),
                                                 config_.delta_s())};
}

WindowPartial& PipelineShard::open_at(std::int64_t index) {
  auto it = open_.find(index);
  if (it == open_.end()) it = open_.emplace(index, make_interval(index)).first;
  return it->second;
}

namespace {

/// First index in (i, end) of `ts` whose interval index differs from `idx`,
/// or `end` when the whole range shares it. Timestamps are non-decreasing,
/// so the crossing bisects — and only the canonical interval_index_of
/// expression is ever evaluated, so every packet lands in the interval
/// interval_index_of gives it.
std::size_t interval_run_end(const double* ts, std::size_t i, std::size_t end,
                             double interval_s, std::int64_t idx) {
  if (interval_index_of(ts[end - 1], interval_s) == idx) return end;
  std::size_t lo = i + 1;
  std::size_t hi = end - 1;  // known: interval_index_of(ts[hi]) != idx
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (interval_index_of(ts[mid], interval_s) == idx) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void PipelineShard::add_batch(const net::PacketBatch& batch) {
  if (batch.empty()) return;
  obs::StageSpan span(*obs_classify_seconds_);  // batch granularity
  classifier_->add_batch(batch);  // validates timestamp ordering
  const double interval_s = config_.interval_s();
  const double* ts = batch.timestamps.data();
  const std::uint32_t* sizes = batch.sizes.data();
  const std::size_t n = batch.size();
  std::size_t i = 0;
  while (i < n) {
    const std::int64_t idx = interval_index_of(ts[i], interval_s);
    const std::size_t run = interval_run_end(ts, i, n, interval_s, idx);
    stats::RateBinner& bins = open_at(idx).bins;
    for (std::size_t k = i; k < run; ++k) {
      bins.add(ts[k], static_cast<double>(sizes[k]));
    }
    i = run;
  }
  drain_classifier();
  sync_obs(/*sample_table=*/false);
}

void PipelineShard::sync_obs(bool sample_table) {
  if (!obs::enabled()) return;
  const flow::ClassifierCounters& c = classifier_->counters();
  // Deltas saturate at 0: a restored classifier can rewind the counters
  // below what was already folded in (checkpoint restore), and a huge
  // unsigned wrap must never reach the registry.
  const auto fold = [](obs::ShardedCounter::Local& local, std::uint64_t cur,
                       std::uint64_t prev) {
    if (cur > prev) local.add(cur - prev);
  };
  fold(obs_packets_, c.packets, obs_synced_.packets);
  fold(obs_flows_, c.flows_emitted, obs_synced_.flows_emitted);
  fold(obs_discards_, c.single_packet_discards,
       obs_synced_.single_packet_discards);
  fold(obs_splits_, c.boundary_splits, obs_synced_.boundary_splits);
  obs_synced_ = c;
  if (sample_table) {
    // Sampled, last-writer-wins across shards: keys hash uniformly, so any
    // shard's table geometry is representative of all of them.
    obs::flow_table_active("pipeline")
        .set(static_cast<double>(classifier_->active_flows()));
    obs::flow_table_load_factor("pipeline")
        .set(classifier_->table_load_factor());
    obs::flow_table_avg_probe("pipeline")
        .set(classifier_->table_mean_probe());
  }
}

void PipelineShard::drain_classifier() {
  for (const auto& f : classifier_->take_flows()) {
    const std::int64_t idx = interval_index_of(f.start, config_.interval_s());
    if (idx < next_close_) continue;  // unreachable by the close invariant
    WindowPartial& iv = open_at(idx);
    iv.sums.add(f);
    if (config_.keep_flows()) iv.flows.push_back(f);
  }
  for (const auto& d : classifier_->take_discards()) {
    const std::int64_t idx =
        interval_index_of(d.timestamp, config_.interval_s());
    if (idx < next_close_) continue;
    open_at(idx).bins.add(d.timestamp, -static_cast<double>(d.size_bytes));
  }
}

void PipelineShard::emit_through(std::int64_t last_index,
                                 std::vector<WindowPartial>& out) {
  for (; next_close_ <= last_index; ++next_close_) {
    if (const auto it = open_.find(next_close_); it != open_.end()) {
      out.push_back(std::move(it->second));
      open_.erase(it);
    } else {
      out.push_back(make_interval(next_close_));
    }
  }
}

void PipelineShard::close_through(double now, std::int64_t last_index,
                                  std::vector<WindowPartial>& out) {
  classifier_->expire_idle(now);
  drain_classifier();
  sync_obs(/*sample_table=*/true);  // sweep cadence: sample table geometry
  emit_through(last_index, out);
}

void PipelineShard::finish(std::int64_t last_index,
                           std::vector<WindowPartial>& out) {
  classifier_->flush();
  drain_classifier();
  sync_obs(/*sample_table=*/true);
  emit_through(last_index, out);
}

// ----------------------------------------------------------- WindowPartial ---

void WindowPartial::merge(WindowPartial&& other) {
  bins.merge(other.bins);  // first: the only step that can throw
  packets += other.packets;
  bytes += other.bytes;
  discards += other.discards;
  sums.merge(other.sums);
  flows.insert(flows.end(), other.flows.begin(), other.flows.end());
}

// -------------------------------------------------------------- fit_window ---

WindowFit fit_window(const AnalysisConfig& config, double length_s,
                     const flow::FlowSums& sums,
                     const stats::RateBinner& bins) {
  static obs::Histogram& fit_seconds = obs::stage_seconds(obs::kStageFit);
  obs::StageSpan span(fit_seconds);
  if (obs::enabled()) obs::windows_fitted().add(1);
  WindowFit fit;

  // The sums are exact, so every producer, shard count and fold order that
  // saw the same flows fits the same bits.
  fit.inputs = sums.inputs(length_s);
  fit.continued_flows = static_cast<std::size_t>(sums.continued);

  fit.series = bins.series();
  fit.measured = measure::rate_moments(fit.series);

  if (config.has_fixed_shot_b()) {
    fit.shot_b_used = config.fixed_shot_b();
  } else {
    fit.shot_b = core::fit_power_b(fit.measured.variance_bps2, fit.inputs);
    fit.shot_b_used = fit.shot_b.value_or(config.fallback_shot_b());
  }
  fit.model_cov = core::power_shot_cov(fit.inputs, fit.shot_b_used);
  fit.plan = dimension::plan_link(fit.inputs, fit.shot_b_used,
                                  config.epsilon());
  return fit;
}

// ------------------------------------------------------- finalize_interval ---

AnalysisReport finalize_interval(const AnalysisConfig& config,
                                 WindowPartial&& raw) {
  const double start_s = static_cast<double>(raw.index) * config.interval_s();
  WindowFit fit =
      fit_window(config, config.interval_s(), raw.sums, raw.bins);

  AnalysisReport report;
  report.interval_index = static_cast<std::size_t>(raw.index);
  report.start_s = start_s;
  report.length_s = config.interval_s();
  report.inputs = fit.inputs;
  report.measured = fit.measured;
  report.continued_flows = fit.continued_flows;
  report.shot_b = fit.shot_b;
  report.shot_b_used = fit.shot_b_used;
  report.model_cov = fit.model_cov;
  report.plan = fit.plan;
  if (config.keep_flows()) {
    // flow::ByStart compares every field, so the sorted list is unique no
    // matter which shard or batch emitted which flow first.
    std::sort(raw.flows.begin(), raw.flows.end(), flow::ByStart{});
    report.interval.start = start_s;
    report.interval.length = config.interval_s();
    report.interval.flows = std::move(raw.flows);
  }
  return report;
}

}  // namespace fbm::api
