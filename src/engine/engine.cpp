#include "engine/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "api/shard.hpp"
#include "core/worker_pool.hpp"
#include "obs/catalog.hpp"

namespace fbm::engine {

namespace {

/// Packets a session's demux buffer collects before it is handed to the
/// session's worker (threaded pool only; per-link results do not depend on
/// it), and the read batch size of consume().
constexpr std::size_t kBatchPackets = 512;

/// Max trace time a routed packet may sit in a demux buffer before being
/// flushed to its worker (threaded pool only; bounds live-report latency).
constexpr double kFlushEveryS = 1.0;

}  // namespace

/// One per-link session: the analysis state (exactly one of batch/live) plus
/// demux bookkeeping. Driven by exactly one thread at a time — the caller
/// inline, or the pool worker it is pinned to.
struct Engine::Session {
  LinkId id = 0;
  std::string name;
  MatchRule rule;
  bool attached = true;
  std::size_t worker = 0;  ///< pool worker this session is pinned to

  std::unique_ptr<api::AnalysisPipeline> batch;
  std::unique_ptr<live::WindowedEstimator> live;

  /// Demux buffer: this batch's packets with an inline pool, packets not
  /// yet handed to the worker with a threaded one.
  net::PacketBatch pending;
  LinkCounters counters;  ///< packets/bytes: demux thread; reports: emit_mu_

  // obs: this link's exported gauges, resolved once at attach.
  obs::Gauge* g_packets = nullptr;
  obs::Gauge* g_reports = nullptr;

  void push(const net::PacketBatch& packets) {
    if (batch) {
      batch->push_batch(packets);
    } else {
      live->push_batch(packets);
    }
  }

  /// Flushes the session, then frees its analysis state (classifier flow
  /// tables above all) so detached links don't hold memory for the
  /// engine's lifetime. Only the counters outlive it, for links().
  void finish() {
    if (batch) {
      batch->finish();
    } else {
      live->finish();
    }
    batch.reset();
    live.reset();
  }
};

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  // threads == 0 means "use every core", exactly as in api::AnalysisConfig.
  config_.threads = api::resolve_threads(config_.threads);
  pool_ = std::make_unique<core::WorkerPool>(config_.threads, "engine");
}

// The pool is declared last, so it drains and joins before the sessions its
// tasks point at go away. Sessions left unfinished are simply dropped.
Engine::~Engine() = default;

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
      session->batch->set_partial_sink([this, raw](api::WindowPartial&& iv) {
        emit_partial(*raw, std::move(iv));
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
      session->live->set_partial_sink([this, raw](api::WindowPartial&& p) {
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

  session->worker = next_worker_++ % pool_->size();
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
  // One pass over the batch for every prefix link at once: a packet's LPM
  // result is its session's id, and the packet goes straight into that
  // session's demux buffer.
  if (prefix_links_ > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = prefix_table_.lookup(batch.tuples[i].dst);
      if (id) take(*sessions_[*id], batch, i);
    }
  }
  for (Session* s : routing_) {
    if (std::holds_alternative<MatchAll>(s->rule)) {
      s->counters.packets += n;
      for (std::size_t i = 0; i < n; ++i) s->counters.bytes += batch.sizes[i];
      if (!pool_->threaded()) {
        s->push(batch);  // the whole batch, no copy
        continue;
      }
      s->pending.append(batch);
    } else if (const auto* rule = std::get_if<MatchTuple>(&s->rule)) {
      for (std::size_t i = 0; i < n; ++i) {
        if (rule->matches(batch.tuples[i])) take(*s, batch, i);
      }
    }
    deliver_pending(*s);
  }
}

void Engine::take(Session& s, const net::PacketBatch& batch,
                  std::size_t i) {
  // A buffer is one allocation per array, handed off the moment it is full:
  // every queued task holds exactly kBatchPackets packets.
  if (s.pending.empty()) s.pending.reserve(kBatchPackets);
  s.pending.emplace_back(batch.timestamps[i], batch.tuples[i],
                         batch.sizes[i]);
  ++s.counters.packets;
  s.counters.bytes += batch.sizes[i];
  if (s.pending.size() == kBatchPackets && pool_->threaded()) {
    flush_session(s);
  }
}

void Engine::deliver_pending(Session& s) {
  if (s.pending.empty()) return;
  if (!pool_->threaded()) {
    // Inline: every session takes this batch's packets now, in attach order.
    s.push(s.pending);
    s.pending.clear();
    return;
  }
  flush_deadline_ =
      std::min(flush_deadline_, s.pending.timestamps.front() + kFlushEveryS);
  if (s.pending.size() >= kBatchPackets) flush_session(s);
}

void Engine::flush_session(Session& s) {
  if (s.pending.empty()) return;
  pool_->submit(s.worker,
                [session = &s, packets = std::exchange(s.pending, {})] {
                  session->push(packets);
                });
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
  flush_all_pending(last_ts_);
}

void Engine::finish_session(Session& s) {
  // Runs on the caller at once with an inline pool.
  pool_->submit(s.worker, [session = &s] { session->finish(); });
}

void Engine::finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& s : sessions_) {
    if (!s->attached) continue;
    flush_session(*s);
    finish_session(*s);
  }
  pool_->join();
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

void Engine::emit_partial(Session& s, api::WindowPartial&& partial) {
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
  // queues to drain (rethrowing any worker failure). After this every
  // routed packet is inside its session and every closed window has been
  // emitted — the per-session states are a consistent cut of the stream.
  flush_all_pending(last_ts_);
  pool_->wait_idle();
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
