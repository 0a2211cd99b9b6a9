#include "api/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "api/parallel_pipeline.hpp"
#include "api/shard.hpp"

namespace fbm::api {

// -------------------------------------------------------- AnalysisPipeline ---
//
// A thin driver over a single PipelineShard: the shard owns the classifier
// and all per-interval accumulation, this class owns the clock (sweep
// cadence, close watermark), the trace summary, and report finalization.
// The parallel pipeline runs N of the same shards, so serial and sharded
// analysis share every line of accumulation code.

AnalysisPipeline::AnalysisPipeline(AnalysisConfig config)
    : config_(config) {
  validate_config(config_);
  shard_ = std::make_unique<PipelineShard>(config_);
}

AnalysisPipeline::~AnalysisPipeline() = default;
AnalysisPipeline::AnalysisPipeline(AnalysisPipeline&&) noexcept = default;
AnalysisPipeline& AnalysisPipeline::operator=(AnalysisPipeline&&) noexcept =
    default;

void AnalysisPipeline::push_batch(const net::PacketBatch& batch) {
  if (batch.empty()) return;
  if (finished_) {
    throw std::logic_error("AnalysisPipeline: push after finish");
  }
  // The shard's classifier runs the ingest check before anything changes.
  shard_->add_batch(batch);

  if (summary_.packets == 0) {
    next_sweep_ = batch.timestamps.front() + config_.expire_every_s();
  }
  summary_.add(batch);
  const double last_ts = batch.timestamps.back();

  // Timestamps are non-decreasing, so the batch's max interval index is the
  // last packet's.
  max_index_ =
      std::max(max_index_, interval_index_of(last_ts, config_.interval_s()));

  // Sweeping once at batch end instead of at each crossing inside the batch
  // is result-neutral: an interval's content depends only on which flows and
  // bytes land in it, never on when the close watermark passes it.
  if (last_ts >= next_sweep_) sweep(last_ts);
}

void AnalysisPipeline::sweep(double now) {
  // After the shard's expiry pass, every flow contained in interval k has
  // been emitted once now - interval_end > timeout, so k can be closed.
  std::int64_t last = next_close_ - 1;
  while (last + 1 <= max_index_ &&
         now - static_cast<double>(last + 2) * config_.interval_s() >
             config_.timeout_s()) {
    ++last;
  }
  std::vector<ShardInterval> closed;
  shard_->close_through(now, last, closed);
  next_close_ = std::max(next_close_, last + 1);
  absorb(std::move(closed));
  while (next_sweep_ <= now) next_sweep_ += config_.expire_every_s();
}

void AnalysisPipeline::absorb(std::vector<ShardInterval>&& closed) {
  for (auto& iv : closed) {
    if (partial_sink_) {
      // Distributed mode: the raw material leaves for agg::Merger, which
      // fits once after the final fold. Nothing is fitted here.
      partial_sink_(std::move(iv));
      continue;
    }
    AnalysisReport report = finalize_interval(config_, iv.index,
                                              std::move(iv.flows),
                                              std::move(iv.bins));
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
  std::vector<ShardInterval> closed;
  shard_->finish(max_index_, closed);
  next_close_ = std::max(next_close_, max_index_ + 1);
  absorb(std::move(closed));
}

void AnalysisPipeline::consume(TraceSource& source) {
  (void)read_batches(source, config_.batch_packets(),
                     [this](const net::PacketBatch& b) { push_batch(b); });
  finish();
}

AnalysisReport AnalysisPipeline::pop_report() {
  if (ready_.empty()) {
    throw std::logic_error("AnalysisPipeline: no report ready");
  }
  AnalysisReport r = std::move(ready_.front());
  ready_.pop_front();
  return r;
}

std::vector<AnalysisReport> AnalysisPipeline::take_reports() {
  std::vector<AnalysisReport> out(std::make_move_iterator(ready_.begin()),
                                  std::make_move_iterator(ready_.end()));
  ready_.clear();
  return out;
}

const flow::ClassifierCounters& AnalysisPipeline::counters() const {
  return shard_->counters();
}

std::size_t AnalysisPipeline::active_flows() const {
  return shard_->active_flows();
}

std::size_t AnalysisPipeline::open_intervals() const {
  return shard_->open_intervals();
}

// ------------------------------------------------------------ convenience ---

std::vector<AnalysisReport> analyze(TraceSource& source,
                                    const AnalysisConfig& config) {
  // threads != 1 includes 0 ("auto"): both go through the sharded pipeline,
  // which resolves 0 to the core count. Results are identical either way.
  if (config.threads() != 1) {
    ParallelAnalysisPipeline pipeline(config);
    pipeline.consume(source);
    return pipeline.take_reports();
  }
  AnalysisPipeline pipeline(config);
  pipeline.consume(source);
  return pipeline.take_reports();
}

std::vector<AnalysisReport> analyze(std::span<const net::PacketRecord> packets,
                                    const AnalysisConfig& config) {
  // Chunk the span through the batched path (AoS -> SoA transpose per
  // chunk); results are identical at every chunk size.
  const auto run = [&](auto& pipeline) {
    net::PacketBatch batch;
    const std::size_t cap = std::max<std::size_t>(1, config.batch_packets());
    for (std::size_t i = 0; i < packets.size(); i += cap) {
      batch.assign(packets.subspan(i, std::min(cap, packets.size() - i)));
      pipeline.push_batch(batch);
    }
    pipeline.finish();
    return pipeline.take_reports();
  };
  if (config.threads() != 1) {
    ParallelAnalysisPipeline pipeline(config);
    return run(pipeline);
  }
  AnalysisPipeline pipeline(config);
  return run(pipeline);
}

}  // namespace fbm::api
