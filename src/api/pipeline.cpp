#include "api/pipeline.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "api/shard.hpp"
#include "core/worker_pool.hpp"

namespace fbm::api {

// -------------------------------------------------------- AnalysisPipeline ---
//
// The caller's thread owns the clock (ingest check, sweep cadence, close
// watermark), the trace summary, routing and the merge; the shards own the
// classifiers and all per-interval accumulation. Shard s runs on pool
// worker s, so it sees its batches, sweeps and final flush in order.

/// One flow-hash shard. `state` is touched by its worker's tasks and by the
/// observability getters, `out` by those tasks and the merge: each has its
/// own mutex so the merge never waits for a running batch.
struct AnalysisPipeline::Shard {
  explicit Shard(const AnalysisConfig& config) : state(config) {}

  mutable std::mutex mu;
  PipelineShard state;  ///< guarded by mu
  std::mutex out_mu;
  std::deque<WindowPartial> out;  ///< closed, contiguous indices (out_mu)
  net::PacketBatch pending;       ///< routed, not yet submitted (caller)
};

AnalysisPipeline::AnalysisPipeline(AnalysisConfig config) : config_(config) {
  // threads == 0 means "use every core" — resolve before the shard count
  // and the per-shard reserve split read it.
  config_.threads(resolve_threads(config_.threads()));
  validate_config(config_);
  for (std::size_t s = 0; s < config_.threads(); ++s) {
    shards_.push_back(std::make_unique<Shard>(config_));
  }
  pool_ = std::make_unique<core::WorkerPool>(config_.threads(), "pipeline");
}

AnalysisPipeline::~AnalysisPipeline() = default;

void AnalysisPipeline::push_batch(const net::PacketBatch& batch) {
  if (batch.empty()) return;
  if (finished_) {
    throw std::logic_error("AnalysisPipeline: push after finish");
  }
  net::check_order(batch.timestamps, last_ts_, "AnalysisPipeline");
  const std::size_t n = batch.size();
  if (summary_.packets == 0) {
    next_sweep_ = batch.timestamps.front() + kExpireEveryS;
  }
  summary_.add(batch);
  last_ts_ = batch.timestamps.back();

  // Timestamps are non-decreasing, so the batch's max interval index is the
  // last packet's.
  max_index_ =
      std::max(max_index_, interval_index_of(last_ts_, config_.interval_s()));

  if (shards_.size() == 1) {
    shards_.front()->state.add_batch(batch);  // no routing, no copy
  } else {
    // Route into the per-shard staging batches (SoA stays SoA end to end).
    const FlowDefinition def = config_.flow_definition();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = flow_shard_of(batch.tuples[i], def, shards_.size());
      net::PacketBatch& pending = shards_[s]->pending;
      pending.emplace_back(batch.timestamps[i], batch.tuples[i],
                           batch.sizes[i]);
      if (pending.size() >= config_.batch_packets()) flush_pending(s);
    }
  }

  // Sweeping once at batch end instead of at each crossing inside the batch
  // is result-neutral: an interval's content depends only on which flows and
  // bytes land in it, never on when the close watermark passes it.
  if (last_ts_ >= next_sweep_) sweep(last_ts_);
}

void AnalysisPipeline::flush_pending(std::size_t shard) {
  Shard* s = shards_[shard].get();
  if (s->pending.empty()) return;
  pool_->submit(shard, [s, batch = std::exchange(s->pending, {})] {
    std::lock_guard lock(s->mu);
    s->state.add_batch(batch);
  });
}

void AnalysisPipeline::submit_close(std::size_t shard, double now,
                                    std::int64_t last, bool final) {
  pool_->submit(shard, [s = shards_[shard].get(), now, last, final] {
    std::vector<WindowPartial> closed;
    {
      std::lock_guard lock(s->mu);
      if (final) {
        s->state.finish(last, closed);
      } else {
        s->state.close_through(now, last, closed);
      }
    }
    std::lock_guard lock(s->out_mu);
    for (auto& iv : closed) s->out.push_back(std::move(iv));
  });
}

void AnalysisPipeline::sweep(double now) {
  // After a shard's expiry pass, every flow contained in interval k has
  // been emitted once now - interval_end > timeout, so k can be closed.
  std::int64_t last = next_close_ - 1;
  while (last + 1 <= max_index_ &&
         now - static_cast<double>(last + 2) * config_.interval_s() >
             config_.timeout_s()) {
    ++last;
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    flush_pending(s);
    submit_close(s, now, last, false);
  }
  next_close_ = std::max(next_close_, last + 1);
  while (next_sweep_ <= now) next_sweep_ += kExpireEveryS;
  merge_ready();
}

void AnalysisPipeline::merge_ready() {
  // Every shard closes the same contiguous index sequence, so the oldest
  // unmerged interval is complete once no shard's output is empty.
  const auto pop = [](Shard& shard) {
    std::lock_guard lock(shard.out_mu);
    WindowPartial iv = std::move(shard.out.front());
    shard.out.pop_front();
    return iv;
  };
  for (;;) {
    for (auto& shard : shards_) {
      std::lock_guard lock(shard->out_mu);
      if (shard->out.empty()) return;
    }
    // Fold order is irrelevant: flow sums and byte bins add exactly.
    WindowPartial iv = pop(*shards_.front());
    for (std::size_t s = 1; s < shards_.size(); ++s) {
      iv.merge(pop(*shards_[s]));
    }
    if (partial_sink_) {
      // Distributed mode: the raw material leaves for agg::Merger, which
      // fits once after the final (cross-process) fold.
      partial_sink_(std::move(iv));
      continue;
    }
    AnalysisReport report = finalize_interval(config_, std::move(iv));
    if (report.inputs.flows >= config_.min_flows()) {
      if (sink_) {
        sink_(std::move(report));
      } else {
        ready_.push_back(std::move(report));
      }
    }
  }
}

void AnalysisPipeline::finish() {
  if (finished_) return;
  finished_ = true;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    flush_pending(s);
    submit_close(s, 0.0, max_index_, true);
  }
  pool_->join();
  merge_ready();
}

void AnalysisPipeline::consume(TraceSource& source) {
  (void)read_batches(source, config_.batch_packets(),
                     [this](const net::PacketBatch& b) { push_batch(b); });
  finish();
}

AnalysisReport AnalysisPipeline::pop_report() {
  merge_ready();
  if (ready_.empty()) {
    throw std::logic_error("AnalysisPipeline: no report ready");
  }
  AnalysisReport r = std::move(ready_.front());
  ready_.pop_front();
  return r;
}

std::vector<AnalysisReport> AnalysisPipeline::take_reports() {
  merge_ready();
  std::vector<AnalysisReport> out(std::make_move_iterator(ready_.begin()),
                                  std::make_move_iterator(ready_.end()));
  ready_.clear();
  return out;
}

flow::ClassifierCounters AnalysisPipeline::counters() const {
  flow::ClassifierCounters total;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    const auto& c = shard->state.counters();
    total.packets += c.packets;
    total.flows_emitted += c.flows_emitted;
    total.single_packet_discards += c.single_packet_discards;
    total.boundary_splits += c.boundary_splits;
  }
  return total;
}

std::size_t AnalysisPipeline::active_flows() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    total += shard->state.active_flows();
  }
  return total;
}

std::size_t AnalysisPipeline::open_intervals() const {
  std::size_t widest = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    widest = std::max(widest, shard->state.open_intervals());
  }
  return widest;
}

// ------------------------------------------------------------ convenience ---

std::vector<AnalysisReport> analyze(TraceSource& source,
                                    const AnalysisConfig& config) {
  AnalysisPipeline pipeline(config);
  pipeline.consume(source);
  return pipeline.take_reports();
}

std::vector<AnalysisReport> analyze(std::span<const net::PacketRecord> packets,
                                    const AnalysisConfig& config) {
  // Chunk the span through the batched path (AoS -> SoA transpose per
  // chunk); results are identical at every chunk size.
  AnalysisPipeline pipeline(config);
  net::PacketBatch batch;
  const std::size_t cap = std::max<std::size_t>(1, config.batch_packets());
  for (std::size_t i = 0; i < packets.size(); i += cap) {
    batch.assign(packets.subspan(i, std::min(cap, packets.size() - i)));
    pipeline.push_batch(batch);
  }
  pipeline.finish();
  return pipeline.take_reports();
}

}  // namespace fbm::api
