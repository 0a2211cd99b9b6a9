#include "api/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "api/shard.hpp"
#include "obs/catalog.hpp"

namespace fbm::api {

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

/// A partial sink that fits each closed interval into `out`.
PartialSink fit_into(std::vector<AnalysisReport>& out,
                     const AnalysisConfig& config) {
  return [&out, &config](WindowPartial&& raw) {
    if (auto report = finalize_interval(config, std::move(raw))) {
      out.push_back(std::move(*report));
    }
  };
}

}  // namespace

AnalysisPipeline::AnalysisPipeline(AnalysisConfig config) : config_(config) {
  validate_config(config_);
  flow::ClassifierOptions options;
  options.timeout = config_.timeout_s();
  options.interval = config_.interval_s();
  options.record_discards = true;
  classifier_ = make_flow_classifier(config_.flow_definition(), options);
  obs_classify_seconds_ = &obs::stage_seconds(obs::kStageClassify);
}

AnalysisPipeline::~AnalysisPipeline() = default;

void AnalysisPipeline::push_batch(const net::PacketBatch& batch) {
  require_sink();
  if (batch.empty()) return;
  if (finished_) {
    throw std::logic_error("AnalysisPipeline: push after finish");
  }
  net::check_order(batch.timestamps, last_ts_, "AnalysisPipeline");
  summary_.add(batch);
  {
    obs::StageSpan span(*obs_classify_seconds_);  // batch granularity
    classifier_->add_batch(batch);
    bin_batch(batch);
    drain_classifier();
    sync_obs(/*sample_table=*/false);
  }
  // The clock moves once per batch, to its last (newest) packet. Sweeping
  // at batch end instead of at each crossing inside the batch is
  // result-neutral: an interval's content depends only on which flows and
  // bytes land in it, never on when the close watermark passes it.
  advance(batch.timestamps.back());
}

void AnalysisPipeline::advance(double now) {
  require_sink();
  if (finished_ || !(now > last_ts_)) return;
  if (last_ts_ == -std::numeric_limits<double>::infinity()) {
    next_sweep_ = now + kExpireEveryS;
  }
  last_ts_ = now;
  max_index_ =
      std::max(max_index_, interval_index_of(now, config_.interval_s()));
  if (now >= next_sweep_) sweep(now);
}

void AnalysisPipeline::require_sink() const {
  if (!partial_sink_) {
    throw std::logic_error(
        "AnalysisPipeline: set_partial_sink before the first push");
  }
}

void AnalysisPipeline::bin_batch(const net::PacketBatch& batch) {
  const double interval_s = config_.interval_s();
  const double* ts = batch.timestamps.data();
  const std::uint32_t* sizes = batch.sizes.data();
  const std::size_t n = batch.size();
  std::size_t i = 0;
  while (i < n) {
    const std::int64_t idx = interval_index_of(ts[i], interval_s);
    const std::size_t run = interval_run_end(ts, i, n, interval_s, idx);
    open_at(idx).bins.add_run({ts + i, run - i}, {sizes + i, run - i});
    i = run;
  }
}

WindowPartial AnalysisPipeline::make_interval(std::int64_t index) const {
  const double start = static_cast<double>(index) * config_.interval_s();
  return WindowPartial{.index = index,
                       .bins = stats::RateBinner(start,
                                                 start + config_.interval_s(),
                                                 config_.delta_s())};
}

WindowPartial& AnalysisPipeline::open_at(std::int64_t index) {
  auto it = open_.find(index);
  if (it == open_.end()) it = open_.emplace(index, make_interval(index)).first;
  return it->second;
}

void AnalysisPipeline::drain_classifier() {
  classifier_->drain(
      [this](const flow::FlowRecord& f) {
        const std::int64_t idx =
            interval_index_of(f.start, config_.interval_s());
        if (idx < next_close_) return;  // unreachable by the close invariant
        WindowPartial& iv = open_at(idx);
        iv.sums.add(f);
        if (config_.keep_flows()) iv.flows.push_back(f);
      },
      [this](const flow::DiscardedPacket& d) {
        const std::int64_t idx =
            interval_index_of(d.timestamp, config_.interval_s());
        if (idx < next_close_) return;
        open_at(idx).bins.add(d.timestamp,
                              -static_cast<double>(d.size_bytes));
      });
}

void AnalysisPipeline::sync_obs(bool sample_table) {
  if (!obs::enabled()) return;
  const flow::ClassifierCounters& c = classifier_->counters();
  // Deltas saturate at 0: a huge unsigned wrap must never reach the
  // registry.
  const auto fold = [](obs::Counter& counter, std::uint64_t cur,
                       std::uint64_t prev) {
    if (cur > prev) counter.add(cur - prev);
  };
  fold(obs::classify_packets(), c.packets, obs_synced_.packets);
  fold(obs::flows_emitted(), c.flows_emitted, obs_synced_.flows_emitted);
  fold(obs::flows_discarded(), c.single_packet_discards,
       obs_synced_.single_packet_discards);
  fold(obs::flow_boundary_splits(), c.boundary_splits,
       obs_synced_.boundary_splits);
  obs_synced_ = c;
  if (sample_table) {
    // Sampled, last-writer-wins across pipelines: keys hash uniformly, so
    // any shard's table geometry is representative of all of them.
    obs::flow_table_active("pipeline")
        .set(static_cast<double>(classifier_->active_flows()));
    obs::flow_table_load_factor("pipeline")
        .set(classifier_->table_load_factor());
    obs::flow_table_avg_probe("pipeline")
        .set(classifier_->table_mean_probe());
  }
}

void AnalysisPipeline::sweep(double now) {
  // After the expiry pass, every flow contained in interval k has been
  // emitted once now - interval_end > timeout, so k can be closed.
  std::int64_t last = next_close_ - 1;
  while (last + 1 <= max_index_ &&
         now - static_cast<double>(last + 2) * config_.interval_s() >
             config_.timeout_s()) {
    ++last;
  }
  classifier_->expire_idle(now);
  drain_classifier();
  sync_obs(/*sample_table=*/true);  // sweep cadence: sample table geometry
  close_through(last);
  while (next_sweep_ <= now) next_sweep_ += kExpireEveryS;
}

void AnalysisPipeline::close_through(std::int64_t last) {
  for (; next_close_ <= last; ++next_close_) {
    // The raw material leaves for a fold (the engine's, agg::Merger's or
    // analyze()'s), which fits once after the last shard or process.
    if (const auto it = open_.find(next_close_); it != open_.end()) {
      WindowPartial raw = std::move(it->second);
      open_.erase(it);
      partial_sink_(std::move(raw));
    } else {
      partial_sink_(make_interval(next_close_));
    }
  }
}

void AnalysisPipeline::finish() {
  if (finished_) return;
  finished_ = true;
  classifier_->flush();
  drain_classifier();
  sync_obs(/*sample_table=*/true);
  close_through(max_index_);
}

void AnalysisPipeline::consume(TraceSource& source) {
  (void)read_batches(source, config_.batch_packets(),
                     [this](const net::PacketBatch& b) { push_batch(b); });
  finish();
}

const flow::ClassifierCounters& AnalysisPipeline::counters() const {
  return classifier_->counters();
}

std::size_t AnalysisPipeline::active_flows() const {
  return classifier_->active_flows();
}

// ------------------------------------------------------------ convenience ---

std::vector<AnalysisReport> analyze(TraceSource& source,
                                    const AnalysisConfig& config) {
  std::vector<AnalysisReport> out;
  AnalysisPipeline pipeline(config);
  pipeline.set_partial_sink(fit_into(out, config));
  pipeline.consume(source);
  return out;
}

std::vector<AnalysisReport> analyze(std::span<const net::PacketRecord> packets,
                                    const AnalysisConfig& config) {
  // Chunk the span through the batched path (AoS -> SoA transpose per
  // chunk); results are identical at every chunk size.
  std::vector<AnalysisReport> out;
  AnalysisPipeline pipeline(config);
  pipeline.set_partial_sink(fit_into(out, config));
  net::PacketBatch batch;
  const std::size_t cap = std::max<std::size_t>(1, config.batch_packets());
  for (std::size_t i = 0; i < packets.size(); i += cap) {
    batch.assign(packets.subspan(i, std::min(cap, packets.size() - i)));
    pipeline.push_batch(batch);
  }
  pipeline.finish();
  return out;
}

}  // namespace fbm::api
