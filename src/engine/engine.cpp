#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/shard.hpp"
#include "obs/catalog.hpp"

namespace fbm::engine {

namespace {

/// Backpressure bound, as in api::ParallelAnalysisPipeline: a demux thread
/// that outruns a worker blocks here, keeping memory bounded.
constexpr std::size_t kMaxQueuedCommands = 256;

/// Packets a session's demux buffer collects before it is handed to the
/// session's worker (pool only; per-link results do not depend on it), and
/// the read batch size of consume().
constexpr std::size_t kBatchPackets = 512;

/// Max trace time a routed packet may sit in a demux buffer before being
/// flushed to its worker (pool only; bounds live-report latency).
constexpr double kFlushEveryS = 1.0;

}  // namespace

/// One per-link session: the analysis state (exactly one of batch/live) plus
/// demux bookkeeping. Driven by exactly one thread at a time — the caller
/// inline, or the owning pool worker.
struct Engine::Session {
  LinkId id = 0;
  std::string name;
  MatchRule rule;
  bool attached = true;
  std::size_t worker = 0;  ///< owning pool worker (pool mode)

  std::unique_ptr<api::AnalysisPipeline> batch;
  std::unique_ptr<live::WindowedEstimator> live;

  net::PacketBatch pending;  ///< demux buffer (pool mode)
  LinkCounters counters;  ///< packets/bytes: demux thread; reports: emit_mu_

  // obs: this link's exported gauges, resolved once at attach.
  obs::Gauge* g_packets = nullptr;
  obs::Gauge* g_reports = nullptr;
};

struct Engine::Worker {
  /// One unit of work, processed strictly in queue order — so each session
  /// (pinned to one worker) sees its packets in stream order.
  struct Command {
    enum class Kind { batch, finish_session, stop };
    Kind kind = Kind::batch;
    Session* session = nullptr;
    net::PacketBatch packets;
  };

  std::mutex mu;
  std::condition_variable work_cv;   ///< worker waits for commands
  std::condition_variable space_cv;  ///< demux waits for queue space
  std::condition_variable idle_cv;   ///< snapshot waits for the drain
  std::deque<Command> queue;
  bool busy = false;         ///< a popped command is being processed (mu)
  std::exception_ptr error;  ///< guarded by mu
  std::atomic<bool> failed{false};
  std::thread thread;

  // obs: queue-depth gauge and pool backpressure counter, set at spawn.
  obs::Gauge* queue_gauge = nullptr;
  obs::Counter* bp_counter = nullptr;

  void set_idle() {
    {
      std::lock_guard lock(mu);
      busy = false;
    }
    idle_cv.notify_all();
  }

  void run() {
    for (;;) {
      Command cmd;
      {
        std::unique_lock lock(mu);
        work_cv.wait(lock, [&] { return !queue.empty(); });
        cmd = std::move(queue.front());
        queue.pop_front();
        busy = true;
        if (queue_gauge != nullptr && obs::enabled()) {
          queue_gauge->set(static_cast<double>(queue.size()));
        }
      }
      space_cv.notify_one();
      if (cmd.kind == Command::Kind::stop) {
        set_idle();
        return;
      }
      try {
        Session& s = *cmd.session;
        if (cmd.kind == Command::Kind::batch) {
          if (s.batch) {
            s.batch->push_batch(cmd.packets);
          } else {
            s.live->push_batch(cmd.packets);
          }
        } else {  // finish_session
          if (s.batch) {
            s.batch->finish();
          } else {
            s.live->finish();
          }
          // The session is done: free the analysis state (classifier flow
          // tables above all) right here on the owning worker, so detached
          // links don't hold memory for the engine's lifetime. Counters
          // stay in the Session for links().
          s.batch.reset();
          s.live.reset();
        }
      } catch (...) {
        {
          std::lock_guard lock(mu);
          error = std::current_exception();
          failed.store(true, std::memory_order_release);
          busy = false;
        }
        space_cv.notify_all();
        idle_cv.notify_all();
        return;
      }
      set_idle();
    }
  }

  /// Blocks until this worker has processed everything enqueued so far (or
  /// died on an error — the caller rethrows via rethrow_worker_error()).
  void wait_idle() {
    std::unique_lock lock(mu);
    idle_cv.wait(lock, [&] {
      return (queue.empty() && !busy) ||
             failed.load(std::memory_order_acquire);
    });
  }

  void enqueue(Command cmd) {
    {
      std::unique_lock lock(mu);
      const auto has_space = [&] {
        return queue.size() < kMaxQueuedCommands ||
               failed.load(std::memory_order_acquire) || !thread.joinable();
      };
      if (!has_space() && bp_counter != nullptr && obs::enabled()) {
        bp_counter->add(1);  // the demux thread is about to block
      }
      space_cv.wait(lock, has_space);
      queue.push_back(std::move(cmd));
      if (queue_gauge != nullptr && obs::enabled()) {
        queue_gauge->set(static_cast<double>(queue.size()));
      }
    }
    work_cv.notify_one();
  }
};

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  // threads == 0 means "use every core", exactly as in api::AnalysisConfig.
  config_.threads = api::resolve_threads(config_.threads);
  if (config_.threads > 1) {
    workers_.reserve(config_.threads);
    for (std::size_t i = 0; i < config_.threads; ++i) {
      workers_.push_back(std::make_unique<Worker>());
      workers_[i]->queue_gauge = &obs::worker_queue_depth("engine", i);
      workers_[i]->bp_counter = &obs::backpressure_waits("engine");
    }
    for (auto& w : workers_) {
      w->thread = std::thread([worker = w.get()] { worker->run(); });
    }
  }
}

Engine::~Engine() {
  // Workers hold raw Session pointers: stop and join them before the
  // sessions go away. Sessions left unfinished are simply dropped.
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->enqueue({Worker::Command::Kind::stop, nullptr, {}});
      w->thread.join();
    }
  }
}

LinkId Engine::attach(LinkSpec spec) {
  if (finished_) throw std::logic_error("Engine: attach after finish");
  if (spec.name.empty()) {
    throw std::invalid_argument("Engine: empty link name");
  }
  for (const auto& s : sessions_) {
    if (s->attached && s->name == spec.name) {
      throw std::invalid_argument("Engine: duplicate link name \"" +
                                  spec.name + "\"");
    }
  }

  auto session = std::make_unique<Session>();
  session->id = next_id_;
  session->name = spec.name;
  session->rule = spec.rule;

  // Build the layered session config and its analysis state first: a
  // throwing override or an invalid config must leave the engine unchanged.
  Session* raw = session.get();
  if (config_.mode == EngineMode::batch) {
    api::AnalysisConfig cfg = config_.analysis;
    if (spec.tune_analysis) spec.tune_analysis(cfg);
    cfg.threads(1);  // the engine pool is the only threading
    session->batch = std::make_unique<api::AnalysisPipeline>(cfg);
    if (partial_sink_) {
      session->batch->set_partial_sink([this, raw](api::ShardInterval&& iv) {
        emit_partial(*raw, live::WindowPartial{iv.index, 0, 0, 0,
                                               std::move(iv.flows),
                                               std::move(iv.bins)});
      });
    } else {
      session->batch->set_report_sink([this, raw](api::AnalysisReport&& r) {
        LinkReport report;
        report.link = raw->id;
        report.name = raw->name;
        report.interval = std::move(r);
        emit(*raw, std::move(report));
      });
    }
  } else {
    live::LiveConfig cfg = config_.live;
    if (spec.tune_live) spec.tune_live(cfg);
    session->live = std::make_unique<live::WindowedEstimator>(cfg);
    if (partial_sink_) {
      session->live->set_partial_sink([this, raw](live::WindowPartial&& p) {
        emit_partial(*raw, std::move(p));
      });
    } else {
      session->live->set_window_sink([this, raw](live::WindowReport&& r) {
        LinkReport report;
        report.link = raw->id;
        report.name = raw->name;
        report.window = std::move(r);
        emit(*raw, std::move(report));
      });
    }
  }

  // Index the match rule. Prefix links share one routing table, so inserts
  // can collide with another attached link's claim — roll back for the
  // strong guarantee.
  if (const auto* match = std::get_if<MatchPrefixes>(&spec.rule)) {
    if (match->prefixes.empty()) {
      throw std::invalid_argument("Engine: link \"" + spec.name +
                                  "\" has no prefixes");
    }
    std::vector<net::Prefix> inserted;
    inserted.reserve(match->prefixes.size());
    for (const auto& prefix : match->prefixes) {
      if (const auto prev = prefix_table_.insert(prefix, session->id)) {
        // insert() replaced the previous owner's entry — restore it, then
        // unwind the prefixes this attach already claimed (for a duplicate
        // within this very spec, the restored entry is among them).
        (void)prefix_table_.insert(prefix, *prev);
        for (const auto& p : inserted) (void)prefix_table_.erase(p);
        throw std::invalid_argument(
            *prev == session->id
                ? "Engine: duplicate prefix " + prefix.to_string() +
                      " in link \"" + spec.name + "\""
                : "Engine: prefix " + prefix.to_string() +
                      " already claimed by another link");
      }
      inserted.push_back(prefix);
    }
    ++prefix_links_;
  }

  if (!workers_.empty()) session->worker = next_worker_++ % workers_.size();
  session->g_packets = &obs::link_packets(session->name);
  session->g_reports = &obs::link_reports(session->name);
  routing_.push_back(session.get());
  sessions_.push_back(std::move(session));
  return next_id_++;
}

bool Engine::detach(LinkId id) {
  for (auto& s : sessions_) {
    if (s->id != id) continue;
    if (!s->attached) return false;
    s->attached = false;
    std::erase(routing_, s.get());
    if (const auto* match = std::get_if<MatchPrefixes>(&s->rule)) {
      for (const auto& prefix : match->prefixes) {
        (void)prefix_table_.erase(prefix);
      }
      --prefix_links_;
    }
    if (!finished_) {
      flush_session(*s);
      finish_session(*s);
    }
    return true;
  }
  return false;
}

void Engine::push_batch(const net::PacketBatch& batch) {
  if (batch.empty()) return;
  if (finished_) throw std::logic_error("Engine: push after finish");
  net::check_order(batch.timestamps, last_ts_, "Engine");
  if (!workers_.empty()) rethrow_worker_error();
  last_ts_ = batch.timestamps.back();
  summary_.add(batch);

  route_batch(batch);
  // Checking the flush deadline once per batch bounds buffered-packet
  // latency at batch granularity — a latency knob only, never a result
  // change.
  if (last_ts_ >= flush_deadline_) flush_all_pending(last_ts_);
}

void Engine::route_batch(const net::PacketBatch& batch) {
  const std::size_t n = batch.size();
  static obs::Histogram& demux_seconds =
      obs::stage_seconds(obs::kStageDemux);
  obs::StageSpan span(demux_seconds);  // whole-batch demux span
  if (obs::enabled()) obs::demux_packets().add(n);
  // One batched LPM pass over the whole batch's destinations: the lane
  // interleaving in lookup_batch overlaps the trie walks' dependent loads,
  // and every prefix link below reuses the same results.
  constexpr std::uint32_t kNoRoute = 0xffffffffu;  // LinkIds start at 0
  if (prefix_links_ > 0) {
    addr_scratch_.resize(n);
    lpm_scratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      addr_scratch_[i] = batch.tuples[i].dst.value();
    }
    prefix_table_.lookup_batch(addr_scratch_.data(), n, lpm_scratch_.data(),
                               kNoRoute);
  }
  for (Session* s : routing_) {
    if (std::holds_alternative<MatchAll>(s->rule)) {
      deliver_batch(*s, batch);  // the whole batch, no copy
      continue;
    }
    stage_.clear();
    if (std::holds_alternative<MatchPrefixes>(s->rule)) {
      const auto id = static_cast<std::uint32_t>(s->id);
      for (std::size_t i = 0; i < n; ++i) {
        if (lpm_scratch_[i] == id) {
          stage_.emplace_back(batch.timestamps[i], batch.tuples[i],
                              batch.sizes[i]);
        }
      }
    } else {
      const auto& rule = std::get<MatchTuple>(s->rule);
      for (std::size_t i = 0; i < n; ++i) {
        if (rule.matches(batch.tuples[i])) {
          stage_.emplace_back(batch.timestamps[i], batch.tuples[i],
                              batch.sizes[i]);
        }
      }
    }
    if (!stage_.empty()) deliver_batch(*s, stage_);
  }
}

void Engine::deliver_batch(Session& s, const net::PacketBatch& batch) {
  const std::size_t m = batch.size();
  s.counters.packets += m;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < m; ++i) bytes += batch.sizes[i];
  s.counters.bytes += bytes;
  if (workers_.empty()) {
    if (s.batch) {
      s.batch->push_batch(batch);
    } else {
      s.live->push_batch(batch);
    }
    return;
  }
  if (s.pending.empty()) {
    flush_deadline_ =
        std::min(flush_deadline_, batch.timestamps.front() + kFlushEveryS);
  }
  s.pending.append(batch);
  if (s.pending.size() >= kBatchPackets) flush_session(s);
}

void Engine::flush_session(Session& s) {
  if (workers_.empty() || s.pending.empty()) return;
  Worker::Command cmd;
  cmd.kind = Worker::Command::Kind::batch;
  cmd.session = &s;
  cmd.packets = std::exchange(s.pending, {});
  workers_[s.worker]->enqueue(std::move(cmd));
}

void Engine::flush_all_pending(double /*now*/) {
  for (auto& s : sessions_) flush_session(*s);
  if (obs::enabled()) {
    // Refresh the per-link exported gauges at flush cadence. reports is
    // written by pool workers under emit_mu_, so read it under the same
    // lock; packets/bytes are demux-thread-owned.
    std::lock_guard lock(emit_mu_);
    for (const auto& s : sessions_) {
      if (s->g_packets != nullptr) {
        s->g_packets->set(static_cast<double>(s->counters.packets));
      }
      if (s->g_reports != nullptr) {
        s->g_reports->set(static_cast<double>(s->counters.reports));
      }
    }
  }
  flush_deadline_ = std::numeric_limits<double>::infinity();
}

void Engine::flush() {
  if (finished_) return;
  if (!workers_.empty()) rethrow_worker_error();
  flush_all_pending(last_ts_);
}

void Engine::finish_session(Session& s) {
  if (workers_.empty()) {
    if (s.batch) {
      s.batch->finish();
    } else {
      s.live->finish();
    }
    // Free the analysis state now (the pool path does this on the owning
    // worker); only the counters outlive the session.
    s.batch.reset();
    s.live.reset();
    return;
  }
  Worker::Command cmd;
  cmd.kind = Worker::Command::Kind::finish_session;
  cmd.session = &s;
  workers_[s.worker]->enqueue(std::move(cmd));
}

void Engine::finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& s : sessions_) {
    if (!s->attached) continue;
    flush_session(*s);
    finish_session(*s);
  }
  for (auto& w : workers_) {
    w->enqueue({Worker::Command::Kind::stop, nullptr, {}});
  }
  for (auto& w : workers_) w->thread.join();
  for (auto& w : workers_) {
    std::lock_guard lock(w->mu);
    if (w->error) std::rethrow_exception(w->error);
  }
}

std::uint64_t Engine::consume(api::TraceSource& source) {
  const std::uint64_t n =
      api::read_batches(source, kBatchPackets,
                        [this](const net::PacketBatch& b) { push_batch(b); });
  finish();
  return n;
}

void Engine::emit(Session& s, LinkReport&& report) {
  std::lock_guard lock(emit_mu_);
  ++s.counters.reports;
  if (sink_) {
    sink_(std::move(report));
  } else {
    ready_.push_back(std::move(report));
  }
}

void Engine::emit_partial(Session& s, live::WindowPartial&& partial) {
  std::lock_guard lock(emit_mu_);  // pool workers flush concurrently
  ++s.counters.reports;
  partial_sink_(s.id, s.name, std::move(partial));
}

LinkReport Engine::pop_report() {
  std::lock_guard lock(emit_mu_);
  if (ready_.empty()) throw std::logic_error("Engine: no report ready");
  LinkReport r = std::move(ready_.front());
  ready_.pop_front();
  return r;
}

std::vector<LinkReport> Engine::take_reports() {
  std::lock_guard lock(emit_mu_);
  std::vector<LinkReport> out(std::make_move_iterator(ready_.begin()),
                              std::make_move_iterator(ready_.end()));
  ready_.clear();
  return out;
}

void Engine::rethrow_worker_error() {
  for (auto& w : workers_) {
    if (!w->failed.load(std::memory_order_acquire)) continue;
    std::exception_ptr err;
    {
      std::lock_guard lock(w->mu);
      err = w->error;
    }
    finished_ = true;  // the failed worker is gone; no more pushes
    if (err) std::rethrow_exception(err);
  }
}

std::vector<LinkInfo> Engine::links() const {
  std::lock_guard lock(emit_mu_);  // counters.reports updates under it
  std::vector<LinkInfo> out;
  out.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    out.push_back({s->id, s->name, s->attached, s->counters});
  }
  return out;
}

std::size_t Engine::link_count() const {
  std::size_t n = 0;
  for (const auto& s : sessions_) n += s->attached ? 1 : 0;
  return n;
}

EngineState Engine::save_state() {
  if (finished_) throw std::logic_error("Engine: save_state after finish");
  if (config_.mode != EngineMode::live) {
    throw std::logic_error("Engine: save_state requires live mode");
  }
  if (partial_sink_) {
    throw std::logic_error("Engine: save_state with a partial sink");
  }
  // Quiesce: hand every demux-buffered packet to its worker, wait for the
  // queues to drain, then surface any worker failure. After this every
  // routed packet is inside its session and every closed window has been
  // emitted — the per-session states are a consistent cut of the stream.
  flush_all_pending(last_ts_);
  for (auto& w : workers_) w->wait_idle();
  if (!workers_.empty()) rethrow_worker_error();
  {
    std::lock_guard lock(emit_mu_);
    if (!ready_.empty()) {
      throw std::logic_error(
          "Engine: take queued reports before save_state");
    }
  }
  EngineState st;
  st.summary = summary_;
  st.last_ts = last_ts_;
  st.sessions.reserve(sessions_.size());
  // emit_mu_ also orders the workers' counters.reports writes before our
  // reads; packets/bytes are demux-thread-owned and need no lock.
  std::lock_guard lock(emit_mu_);
  for (const auto& s : sessions_) {
    EngineSessionState ss;
    ss.name = s->name;
    ss.attached = s->attached;
    ss.counters = s->counters;
    if (s->live) {
      ss.has_live = true;
      ss.live = s->live->save_state();
    }
    st.sessions.push_back(std::move(ss));
  }
  return st;
}

void Engine::restore_state(const EngineState& state) {
  if (finished_) throw std::logic_error("Engine: restore_state after finish");
  if (config_.mode != EngineMode::live) {
    throw std::logic_error("Engine: restore_state requires live mode");
  }
  if (summary_.packets != 0) {
    throw std::logic_error("Engine: restore_state needs a fresh engine");
  }
  if (sessions_.size() != state.sessions.size()) {
    throw std::runtime_error(
        "Engine: restore link set mismatch (checkpoint has " +
        std::to_string(state.sessions.size()) + " links, engine has " +
        std::to_string(sessions_.size()) +
        " — attach the checkpoint's links first, in order)");
  }
  // Two passes: validate the whole link set before mutating anything, so a
  // mismatch leaves the engine untouched (strong guarantee).
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const Session& s = *sessions_[i];
    const EngineSessionState& ss = state.sessions[i];
    if (s.name != ss.name) {
      throw std::runtime_error("Engine: restore link mismatch at position " +
                               std::to_string(i) + " (checkpoint says \"" +
                               ss.name + "\", engine has \"" + s.name +
                               "\")");
    }
    if (s.attached != ss.attached) {
      throw std::runtime_error("Engine: restore attach-state mismatch for \"" +
                               ss.name + "\"");
    }
    if (ss.attached && static_cast<bool>(s.live) != ss.has_live) {
      throw std::runtime_error("Engine: restore session-state mismatch for \"" +
                               ss.name + "\"");
    }
  }
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    Session& s = *sessions_[i];
    const EngineSessionState& ss = state.sessions[i];
    s.counters = ss.counters;
    if (s.live && ss.has_live) s.live->restore_state(ss.live);
  }
  summary_ = state.summary;
  last_ts_ = state.last_ts;
}

}  // namespace fbm::engine
