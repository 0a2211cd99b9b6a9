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
#include "live/windowed_estimator.hpp"
#include "measure/rate_meter.hpp"
#include "net/ip.hpp"
#include "obs/catalog.hpp"

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
  void reset() override { classifier_.reset(); }
  void drain(const FlowVisitor& on_flow,
             const DiscardVisitor& on_discard) override {
    classifier_.drain(on_flow, on_discard);
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
          "ClassifierState: drain completed flows and discards first");
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
    throw std::invalid_argument("AnalysisConfig: timeout <= 0");
  }
  if (!(config.interval_s() > 0.0) || !std::isfinite(config.interval_s())) {
    throw std::invalid_argument("AnalysisConfig: interval must be finite");
  }
  if (!(config.delta_s() > 0.0) || !std::isfinite(config.delta_s())) {
    throw std::invalid_argument("AnalysisConfig: delta must be finite > 0");
  }
  if (!(config.epsilon() > 0.0 && config.epsilon() < 1.0)) {
    throw std::invalid_argument("AnalysisConfig: eps outside (0,1)");
  }
  if (config.batch_packets() == 0) {
    throw std::invalid_argument("AnalysisConfig: batch_packets == 0");
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

// ----------------------------------------------------------- WindowPartial ---

void WindowPartial::merge(WindowPartial&& other) {
  bins.merge(other.bins);  // first: the only step that can throw
  packets += other.packets;
  bytes += other.bytes;
  discards += other.discards;
  sums.merge(other.sums);
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

std::optional<AnalysisReport> finalize_interval(const AnalysisConfig& config,
                                                const WindowPartial& raw) {
  WindowFit fit =
      fit_window(config, config.interval_s(), raw.sums, raw.bins);
  if (fit.inputs.flows < config.min_flows()) return std::nullopt;

  AnalysisReport report;
  report.interval_index = static_cast<std::size_t>(raw.index);
  report.start_s = static_cast<double>(raw.index) * config.interval_s();
  report.length_s = config.interval_s();
  report.inputs = fit.inputs;
  report.measured = fit.measured;
  report.shot_b = fit.shot_b;
  report.shot_b_used = fit.shot_b_used;
  report.model_cov = fit.model_cov;
  report.plan = fit.plan;
  return report;
}

// ---------------------------------------------------------------- analyze ---

namespace {

/// Runs `feed` through one estimator of tiling windows and fits each closed
/// interval.
template <typename Feed>
std::vector<AnalysisReport> analyze_with(const AnalysisConfig& config,
                                         Feed&& feed) {
  validate_config(config);
  std::vector<AnalysisReport> out;
  live::WindowedEstimator estimator(live::batch_windows(config));
  estimator.set_partial_sink([&](WindowPartial&& raw) {
    if (auto report = finalize_interval(config, raw)) {
      out.push_back(std::move(*report));
    }
  });
  feed(estimator);
  estimator.finish();
  return out;
}

}  // namespace

std::vector<AnalysisReport> analyze(TraceSource& source,
                                    const AnalysisConfig& config) {
  return analyze_with(config, [&](live::WindowedEstimator& estimator) {
    (void)estimator.consume(source);
  });
}

std::vector<AnalysisReport> analyze(std::span<const net::PacketRecord> packets,
                                    const AnalysisConfig& config) {
  return analyze_with(config, [&](live::WindowedEstimator& estimator) {
    net::PacketBatch batch;
    const std::size_t cap = config.batch_packets();
    for (std::size_t i = 0; i < packets.size(); i += cap) {
      batch.assign(packets.subspan(i, std::min(cap, packets.size() - i)));
      estimator.push_batch(batch);
    }
  });
}

}  // namespace fbm::api
