#include "api/parallel_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/shard.hpp"

namespace fbm::api {

namespace {

/// One unit of work for a shard worker, processed strictly in queue order.
struct Command {
  enum class Kind { batch, sweep, finish, stop };
  Kind kind = Kind::batch;
  net::PacketBatch batch;           ///< batch (SoA, already shard-routed)
  double now = 0.0;                 ///< sweep: expiry clock
  std::int64_t close_through = -1;  ///< sweep/finish: last index
};

/// Backpressure bound: a caller that outruns a worker blocks once this many
/// commands are queued, keeping memory window-bounded like the serial
/// pipeline (workers always drain, so the caller can never deadlock).
constexpr std::size_t kMaxQueuedCommands = 256;

}  // namespace

/// Worker shard: a thread, its command queue, and its output of closed
/// intervals. `shard` is mutated only while `state_mu` is held (by the
/// worker inside commands, by the caller for counters()/active_flows()).
struct ParallelAnalysisPipeline::Worker {
  explicit Worker(const AnalysisConfig& config) : shard(config) {}

  // Command queue (caller -> worker).
  std::mutex queue_mu;
  std::condition_variable queue_cv;  ///< worker waits for work
  std::condition_variable space_cv;  ///< caller waits for queue space
  std::deque<Command> queue;

  // Shard state, shared only for observability reads.
  mutable std::mutex state_mu;
  PipelineShard shard;

  // Closed intervals (worker -> caller), contiguous indices from 0.
  std::mutex out_mu;
  std::deque<ShardInterval> out;
  std::exception_ptr error;  ///< guarded by out_mu

  std::atomic<bool> failed{false};
  std::thread thread;

  // obs: this worker's queue-depth gauge and the pool's backpressure
  // counter, resolved once at spawn (null until then).
  obs::Gauge* queue_gauge = nullptr;
  obs::Counter* bp_counter = nullptr;

  void run() {
    for (;;) {
      Command cmd;
      {
        std::unique_lock lock(queue_mu);
        queue_cv.wait(lock, [&] { return !queue.empty(); });
        cmd = std::move(queue.front());
        queue.pop_front();
        if (queue_gauge != nullptr && obs::enabled()) {
          queue_gauge->set(static_cast<double>(queue.size()));
        }
      }
      space_cv.notify_one();
      if (cmd.kind == Command::Kind::stop) return;
      try {
        std::vector<ShardInterval> closed;
        {
          std::lock_guard lock(state_mu);
          switch (cmd.kind) {
            case Command::Kind::batch:
              shard.add_batch(cmd.batch);
              break;
            case Command::Kind::sweep:
              shard.close_through(cmd.now, cmd.close_through, closed);
              break;
            case Command::Kind::finish:
              shard.finish(cmd.close_through, closed);
              break;
            case Command::Kind::stop:
              break;
          }
        }
        if (!closed.empty()) {
          std::lock_guard lock(out_mu);
          for (auto& iv : closed) out.push_back(std::move(iv));
        }
      } catch (...) {
        {
          std::lock_guard lock(out_mu);
          error = std::current_exception();
        }
        {
          // failed is set under queue_mu so a caller between enqueue's
          // predicate check and its wait cannot miss the notification.
          std::lock_guard lock(queue_mu);
          failed.store(true, std::memory_order_release);
        }
        space_cv.notify_all();  // release any caller blocked on backpressure
        return;
      }
      if (cmd.kind == Command::Kind::finish) return;
    }
  }

  void enqueue(Command cmd) {
    {
      std::unique_lock lock(queue_mu);
      const auto has_space = [&] {
        return queue.size() < kMaxQueuedCommands ||
               failed.load(std::memory_order_acquire) || !thread.joinable();
      };
      if (!has_space() && bp_counter != nullptr && obs::enabled()) {
        bp_counter->add(1);  // the producer is about to block
      }
      // A dead worker stops draining; don't block forever on its queue
      // (the caller notices `failed` and rethrows at the next sweep).
      space_cv.wait(lock, has_space);
      queue.push_back(std::move(cmd));
      if (queue_gauge != nullptr && obs::enabled()) {
        queue_gauge->set(static_cast<double>(queue.size()));
      }
    }
    queue_cv.notify_one();
  }
};

ParallelAnalysisPipeline::ParallelAnalysisPipeline(AnalysisConfig config)
    : config_(config) {
  // threads == 0 means "use every core" — resolve before the shard count,
  // the per-shard reserve split and the worker spawn all read it.
  config_.threads(resolve_threads(config_.threads()));
  validate_config(config_);
  const std::size_t n = config_.threads();
  workers_.reserve(n);
  pending_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    workers_.push_back(std::make_unique<Worker>(config_));
    workers_[s]->queue_gauge = &obs::worker_queue_depth("pipeline", s);
    workers_[s]->bp_counter = &obs::backpressure_waits("pipeline");
  }
  // Spawn after the vector is fully built so a throwing allocation never
  // leaves a thread pointing at a moved-from Worker.
  for (auto& w : workers_) {
    w->thread = std::thread([worker = w.get()] { worker->run(); });
  }
}

ParallelAnalysisPipeline::~ParallelAnalysisPipeline() {
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->enqueue({Command::Kind::stop, {}, 0.0, -1});
      w->thread.join();
    }
  }
}

void ParallelAnalysisPipeline::flush_pending(std::size_t shard) {
  if (pending_[shard].empty()) return;
  Command cmd;
  cmd.kind = Command::Kind::batch;
  cmd.batch = std::exchange(pending_[shard], {});
  workers_[shard]->enqueue(std::move(cmd));
}

void ParallelAnalysisPipeline::rethrow_worker_error() {
  for (auto& w : workers_) {
    if (!w->failed.load(std::memory_order_acquire)) continue;
    std::exception_ptr err;
    {
      std::lock_guard lock(w->out_mu);
      err = w->error;
    }
    finished_ = true;  // the failed worker is gone; no more pushes
    if (err) std::rethrow_exception(err);
  }
}

void ParallelAnalysisPipeline::push_batch(const net::PacketBatch& batch) {
  if (batch.empty()) return;
  if (finished_) {
    throw std::logic_error("ParallelAnalysisPipeline: push after finish");
  }
  net::check_order(batch.timestamps, last_ts_, "ParallelAnalysisPipeline");
  const std::size_t n = batch.size();
  const double* ts = batch.timestamps.data();

  if (summary_.packets == 0) {
    next_sweep_ = ts[0] + config_.expire_every_s();
  }
  summary_.add(batch);
  const double last_ts = ts[n - 1];
  last_ts_ = last_ts;

  max_index_ =
      std::max(max_index_, interval_index_of(last_ts, config_.interval_s()));

  // Route into the per-shard staging batches (SoA stays SoA end to end).
  const FlowDefinition def = config_.flow_definition();
  const std::size_t nshards = workers_.size();
  const std::size_t cap = config_.batch_packets();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = flow_shard_of(batch.tuples[i], def, nshards);
    pending_[s].emplace_back(ts[i], batch.tuples[i], batch.sizes[i]);
    if (pending_[s].size() >= cap) flush_pending(s);
  }

  // Sweep once at batch end: result-neutral, see AnalysisPipeline.
  if (last_ts >= next_sweep_) {
    broadcast_sweep(last_ts);
    while (next_sweep_ <= last_ts) next_sweep_ += config_.expire_every_s();
    rethrow_worker_error();
    try_merge();
  }
}

void ParallelAnalysisPipeline::broadcast_sweep(double now) {
  // Same closing watermark as AnalysisPipeline::sweep: interval k is safe
  // once the clock passes its end by more than the flow timeout, because
  // every flow starting in k has then been terminated by timeout or split.
  std::int64_t last = close_bcast_ - 1;
  while (last + 1 <= max_index_ &&
         now - static_cast<double>(last + 2) * config_.interval_s() >
             config_.timeout_s()) {
    ++last;
  }
  for (std::size_t s = 0; s < workers_.size(); ++s) flush_pending(s);
  for (auto& w : workers_) {
    Command cmd;
    cmd.kind = Command::Kind::sweep;
    cmd.now = now;
    cmd.close_through = last;
    w->enqueue(std::move(cmd));
  }
  close_bcast_ = std::max(close_bcast_, last + 1);
}

void ParallelAnalysisPipeline::try_merge() {
  for (;;) {
    bool all_ready = true;
    for (auto& w : workers_) {
      std::lock_guard lock(w->out_mu);
      if (w->out.empty() || w->out.front().index != next_merge_) {
        all_ready = false;
        break;
      }
    }
    if (!all_ready) return;
    merge_front();
  }
}

void ParallelAnalysisPipeline::merge_front() {
  std::vector<ShardInterval> parts;
  parts.reserve(workers_.size());
  for (auto& w : workers_) {
    std::lock_guard lock(w->out_mu);
    parts.push_back(std::move(w->out.front()));
    w->out.pop_front();
  }

  // Concatenation order is irrelevant: finalize_interval re-sorts with
  // flow::ByStart (a total order over every record field), and the rate
  // bins hold exact integral byte counts, so summation commutes.
  std::vector<flow::FlowRecord> flows = std::move(parts.front().flows);
  stats::RateBinner bins = std::move(parts.front().bins);
  for (std::size_t i = 1; i < parts.size(); ++i) {
    flows.insert(flows.end(),
                 std::make_move_iterator(parts[i].flows.begin()),
                 std::make_move_iterator(parts[i].flows.end()));
    bins.merge(parts[i].bins);
  }

  if (partial_sink_) {
    // Distributed mode: the worker-merged raw material leaves for
    // agg::Merger, which fits once after the final (cross-process) fold.
    partial_sink_({next_merge_, std::move(flows), std::move(bins)});
    ++next_merge_;
    return;
  }

  AnalysisReport report = finalize_interval(config_, next_merge_,
                                            std::move(flows),
                                            std::move(bins));
  if (report.inputs.flows >= config_.min_flows()) {
    if (sink_) {
      sink_(std::move(report));
    } else {
      ready_.push_back(std::move(report));
    }
  }
  ++next_merge_;
}

void ParallelAnalysisPipeline::finish() {
  if (finished_) return;
  finished_ = true;
  for (std::size_t s = 0; s < workers_.size(); ++s) flush_pending(s);
  for (auto& w : workers_) {
    Command cmd;
    cmd.kind = Command::Kind::finish;
    cmd.close_through = max_index_;
    w->enqueue(std::move(cmd));
  }
  for (auto& w : workers_) w->thread.join();
  for (auto& w : workers_) {
    std::lock_guard lock(w->out_mu);
    if (w->error) std::rethrow_exception(w->error);
  }
  next_sweep_ = 0.0;
  try_merge();
}

void ParallelAnalysisPipeline::consume(TraceSource& source) {
  (void)read_batches(source, config_.batch_packets(),
                     [this](const net::PacketBatch& b) { push_batch(b); });
  finish();
}

AnalysisReport ParallelAnalysisPipeline::pop_report() {
  try_merge();
  if (ready_.empty()) {
    throw std::logic_error("ParallelAnalysisPipeline: no report ready");
  }
  AnalysisReport r = std::move(ready_.front());
  ready_.pop_front();
  return r;
}

std::vector<AnalysisReport> ParallelAnalysisPipeline::take_reports() {
  try_merge();
  std::vector<AnalysisReport> out(std::make_move_iterator(ready_.begin()),
                                  std::make_move_iterator(ready_.end()));
  ready_.clear();
  return out;
}

flow::ClassifierCounters ParallelAnalysisPipeline::counters() const {
  flow::ClassifierCounters total;
  for (const auto& w : workers_) {
    std::lock_guard lock(w->state_mu);
    const auto& c = w->shard.counters();
    total.packets += c.packets;
    total.flows_emitted += c.flows_emitted;
    total.single_packet_discards += c.single_packet_discards;
    total.boundary_splits += c.boundary_splits;
  }
  return total;
}

std::size_t ParallelAnalysisPipeline::shard_count() const {
  return workers_.size();
}

std::size_t ParallelAnalysisPipeline::active_flows() const {
  std::size_t total = 0;
  for (const auto& w : workers_) {
    std::lock_guard lock(w->state_mu);
    total += w->shard.active_flows();
  }
  return total;
}

std::size_t ParallelAnalysisPipeline::open_intervals() const {
  std::size_t widest = 0;
  for (const auto& w : workers_) {
    std::lock_guard lock(w->state_mu);
    widest = std::max(widest, w->shard.open_intervals());
  }
  return widest;
}

}  // namespace fbm::api
