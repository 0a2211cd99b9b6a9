#include "engine/engine.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "api/shard.hpp"
#include "core/worker_pool.hpp"
#include "obs/catalog.hpp"

namespace fbm::engine {

namespace {

/// Packets a shard's demux buffer collects before it is handed to the
/// shard's worker (threaded pool only; per-link results do not depend on
/// it), and the read batch size of consume().
constexpr std::size_t kBatchPackets = 512;

/// Max trace time a routed packet may sit in a demux buffer before being
/// flushed to its worker (threaded pool only; bounds live-report latency).
constexpr double kFlushEveryS = 1.0;

}  // namespace

/// One flow-hash shard of a link: its estimator, in partial mode, plus
/// demux bookkeeping. Driven by exactly one thread at a time — the caller
/// inline, or the worker it is pinned to.
struct Engine::Shard {
  Link* link = nullptr;
  std::size_t index = 0;   ///< position in the link's shards
  std::size_t worker = 0;  ///< pool worker this shard is pinned to

  /// Null once finished: a detached link holds no flow tables.
  std::unique_ptr<live::WindowedEstimator> estimator;

  /// Demux buffer: this batch's packets with an inline pool, packets not
  /// yet handed to the worker with a threaded one.
  net::PacketBatch pending;
  /// Demux thread: the newest link clock handed to this shard.
  double clock = -std::numeric_limits<double>::infinity();

  /// Takes `packets` (possibly none), then the link's clock `now`.
  void run(const net::PacketBatch& packets, double now) {
    if (!estimator) return;
    estimator->push_batch(packets);
    estimator->advance(now);  // a no-op for a shard that saw a packet at `now`
  }

  void finish() {
    if (estimator) estimator->finish();
    estimator.reset();
  }
};

/// One link: identity, match rule, its shards and their fold. The fold is
/// driven by whichever worker delivers a window's last shard, under
/// fold_mu; counters.reports/flows are written under emit_mu_.
struct Engine::Link {
  LinkId id = 0;
  std::string name;
  MatchRule rule;
  bool attached = true;
  api::FlowDefinition flow_def = api::FlowDefinition::five_tuple;
  /// Demux thread: timestamp of the newest packet routed to the link,
  /// kept for K > 1 only (a lone shard sees every packet of its link).
  double clock = -std::numeric_limits<double>::infinity();
  /// Sized once at attach: each shard's partial sink holds its address.
  std::vector<Shard> shards;
  LinkCounters counters;  ///< packets/bytes: demux thread

  // obs: this link's exported gauges, resolved once at attach.
  obs::Gauge* g_packets = nullptr;
  obs::Gauge* g_reports = nullptr;

  // The fold. Each shard closes the same contiguous index sequence, so
  // window k is complete once no shard's queue is empty.
  std::mutex fold_mu;
  std::vector<std::deque<api::WindowPartial>> waiting;  ///< per shard
  live::LiveConfig live;  ///< the layered config (batch: its tiling windows)
  std::unique_ptr<live::RollingForecaster> forecaster;  ///< live only
  std::unique_ptr<live::AnomalyMonitor> monitor;        ///< live only
};

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  // 0 means "use every core", for workers and shards alike.
  config_.threads = api::resolve_threads(config_.threads);
  if (config_.shards > api::kMaxThreads) {
    throw std::invalid_argument("Engine: shards above api::kMaxThreads");
  }
  config_.shards = api::resolve_threads(config_.shards);
  pool_ = std::make_unique<core::WorkerPool>(config_.threads, "engine");
}

// The pool is declared last, so it drains and joins before the shards its
// tasks point at go away. Links left unfinished are simply dropped.
Engine::~Engine() = default;

LinkId Engine::attach(LinkSpec spec) {
  if (finished_) throw std::logic_error("Engine: attach after finish");
  if (spec.name.empty()) {
    throw std::invalid_argument("Engine: empty link name");
  }
  for (const auto& l : links_) {
    if (l->attached && l->name == spec.name) {
      throw std::invalid_argument("Engine: duplicate link name \"" +
                                  spec.name + "\"");
    }
  }

  auto link = std::make_unique<Link>();
  link->id = next_id_;
  link->name = spec.name;
  link->rule = spec.rule;

  // Build the layered config and every shard's estimator first: a throwing
  // override or an invalid config must leave the engine unchanged.
  Link* raw = link.get();
  link->live = config_.live;
  if (spec.tune_live) spec.tune_live(link->live);
  if (config_.mode == EngineMode::batch) {
    link->live = live::batch_windows(link->live.analysis);
  }
  link->flow_def = link->live.analysis.flow_definition();
  link->shards.resize(config_.shards);
  for (std::size_t k = 0; k < config_.shards; ++k) {
    Shard& shard = link->shards[k];
    shard.link = raw;
    shard.index = k;
    shard.estimator = std::make_unique<live::WindowedEstimator>(link->live);
    shard.estimator->set_partial_sink(
        [this, s = &shard](api::WindowPartial&& p) {
          fold(*s, std::move(p));
        });
  }
  if (config_.mode == EngineMode::live) {
    // After the estimators: their constructors validate the config.
    link->forecaster = std::make_unique<live::RollingForecaster>(
        link->live.forecast_max_order, link->live.forecast_history,
        link->live.band_k_sigma);
    link->monitor = std::make_unique<live::AnomalyMonitor>(link->live);
  }
  link->waiting.resize(config_.shards);

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
      if (const auto prev = prefix_table_.insert(prefix, link->id)) {
        // insert() replaced the previous owner's entry — restore it, then
        // unwind the prefixes this attach already claimed (for a duplicate
        // within this very spec, the restored entry is among them).
        (void)prefix_table_.insert(prefix, *prev);
        for (const auto& p : inserted) (void)prefix_table_.erase(p);
        throw std::invalid_argument(
            *prev == link->id
                ? "Engine: duplicate prefix " + prefix.to_string() +
                      " in link \"" + spec.name + "\""
                : "Engine: prefix " + prefix.to_string() +
                      " already claimed by another link");
      }
      inserted.push_back(prefix);
    }
    ++prefix_links_;
  }

  for (auto& shard : link->shards) {
    shard.worker = next_worker_++ % pool_->size();
  }
  link->g_packets = &obs::link_packets(link->name);
  link->g_reports = &obs::link_reports(link->name);
  routing_.push_back(link.get());
  links_.push_back(std::move(link));
  return next_id_++;
}

bool Engine::detach(LinkId id) {
  for (auto& l : links_) {
    if (l->id != id) continue;
    if (!l->attached) return false;
    l->attached = false;
    std::erase(routing_, l.get());
    if (const auto* match = std::get_if<MatchPrefixes>(&l->rule)) {
      for (const auto& prefix : match->prefixes) {
        (void)prefix_table_.erase(prefix);
      }
      --prefix_links_;
    }
    if (!finished_) finish_link(*l);
    return true;
  }
  return false;
}

void Engine::push_batch(const net::PacketBatch& batch) {
  if (!sink_ && !partial_sink_) {
    throw std::logic_error(
        "Engine: set_report_sink or set_partial_sink before the first push");
  }
  if (batch.empty()) return;
  if (finished_) throw std::logic_error("Engine: push after finish");
  net::check_order(batch.timestamps, last_ts_, "Engine");
  last_ts_ = batch.timestamps.back();
  summary_.add(batch);

  route_batch(batch);
  // Checking the flush deadline once per batch bounds buffered-packet
  // latency at batch granularity — a latency knob only, never a result
  // change.
  if (last_ts_ >= flush_deadline_) flush();
}

void Engine::route_batch(const net::PacketBatch& batch) {
  const std::size_t n = batch.size();
  static obs::Histogram& demux_seconds =
      obs::stage_seconds(obs::kStageDemux);
  obs::StageSpan span(demux_seconds);  // whole-batch demux span
  if (obs::enabled()) obs::demux_packets().add(n);
  // One pass over the batch for every prefix link at once: a packet's LPM
  // result is its link's id, and the packet goes straight into the demux
  // buffer of that link's shard.
  if (prefix_links_ > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = prefix_table_.lookup(batch.tuples[i].dst);
      if (id) take(*links_[*id], batch, i);
    }
  }
  for (Link* l : routing_) {
    if (std::holds_alternative<MatchAll>(l->rule)) {
      if (l->shards.size() > 1) {
        for (std::size_t i = 0; i < n; ++i) take(*l, batch, i);
      } else {
        l->counters.packets += n;
        for (std::size_t i = 0; i < n; ++i) l->counters.bytes += batch.sizes[i];
        Shard& s = l->shards.front();
        if (!pool_->threaded()) {
          s.run(batch, l->clock);  // the whole batch, no copy
          continue;
        }
        s.pending.append(batch);
      }
    } else if (const auto* rule = std::get_if<MatchTuple>(&l->rule)) {
      for (std::size_t i = 0; i < n; ++i) {
        if (rule->matches(batch.tuples[i])) take(*l, batch, i);
      }
    }
    deliver_pending(*l);
  }
}

void Engine::take(Link& l, const net::PacketBatch& batch, std::size_t i) {
  Shard* to = &l.shards.front();
  if (const std::size_t k = l.shards.size(); k > 1) {
    to += api::flow_shard_of(batch.tuples[i], l.flow_def, k);
    l.clock = batch.timestamps[i];
  }
  Shard& s = *to;
  // A buffer is one allocation per array, handed off the moment it is full:
  // every queued task holds exactly kBatchPackets packets.
  if (s.pending.empty()) s.pending.reserve(kBatchPackets);
  s.pending.emplace_back(batch.timestamps[i], batch.tuples[i],
                         batch.sizes[i]);
  ++l.counters.packets;
  l.counters.bytes += batch.sizes[i];
  if (s.pending.size() == kBatchPackets && pool_->threaded()) deliver(s);
}

void Engine::deliver_pending(Link& l) {
  if (!pool_->threaded()) {
    // Inline: every shard takes this batch's packets now, in attach order,
    // and the ones that got none catch up with the link's clock.
    for (auto& s : l.shards) deliver(s);
    return;
  }
  for (auto& s : l.shards) {
    if (s.pending.empty()) continue;
    flush_deadline_ = std::min(flush_deadline_,
                               s.pending.timestamps.front() + kFlushEveryS);
    if (s.pending.size() >= kBatchPackets) deliver(s);
  }
}

void Engine::deliver(Shard& s) {
  const double now = s.link->clock;
  if (s.pending.empty() && !(s.clock < now)) return;
  s.clock = now;
  if (!pool_->threaded()) {
    s.run(s.pending, now);
    s.pending.clear();
    return;
  }
  pool_->submit(s.worker,
                [shard = &s, packets = std::exchange(s.pending, {}), now] {
                  shard->run(packets, now);
                });
}

void Engine::flush() {
  if (finished_) return;
  for (auto& l : links_) {
    if (!l->attached) continue;
    for (auto& s : l->shards) deliver(s);
  }
  refresh_link_gauges();
  flush_deadline_ = std::numeric_limits<double>::infinity();
}

void Engine::refresh_link_gauges() {
  if (!obs::enabled()) return;
  // reports is written by pool workers under emit_mu_, so read it under the
  // same lock; packets/bytes are demux-thread-owned.
  std::lock_guard lock(emit_mu_);
  for (const auto& l : links_) {
    l->g_packets->set(static_cast<double>(l->counters.packets));
    l->g_reports->set(static_cast<double>(l->counters.reports));
  }
}

void Engine::finish_link(Link& l) {
  // Every shard first catches up with the link's clock, so all K close
  // through the same last index. Runs on the caller at once with an inline
  // pool.
  for (auto& s : l.shards) {
    deliver(s);
    pool_->submit(s.worker, [shard = &s] { shard->finish(); });
  }
}

void Engine::finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& l : links_) {
    if (l->attached) finish_link(*l);
  }
  pool_->join();
  refresh_link_gauges();  // the run's final totals
}

std::uint64_t Engine::consume(api::TraceSource& source) {
  const std::uint64_t n =
      api::read_batches(source, kBatchPackets,
                        [this](const net::PacketBatch& b) { push_batch(b); });
  finish();
  return n;
}

void Engine::fold(Shard& s, api::WindowPartial&& partial) {
  Link& l = *s.link;
  std::lock_guard lock(l.fold_mu);
  l.waiting[s.index].push_back(std::move(partial));
  for (;;) {
    for (const auto& q : l.waiting) {
      if (q.empty()) return;
    }
    // Fold order is irrelevant: flow sums and byte bins add exactly.
    api::WindowPartial sum = std::move(l.waiting.front().front());
    l.waiting.front().pop_front();
    for (std::size_t k = 1; k < l.waiting.size(); ++k) {
      sum.merge(std::move(l.waiting[k].front()));
      l.waiting[k].pop_front();
    }
    complete(l, std::move(sum));
  }
}

void Engine::complete(Link& l, api::WindowPartial&& raw) {
  const std::uint64_t flows = raw.sums.n;
  if (partial_sink_) {
    // Distributed mode: the folded raw material leaves for agg::Merger,
    // which fits once after the cross-process fold.
    std::lock_guard lock(emit_mu_);
    l.counters.flows += flows;
    ++l.counters.reports;
    partial_sink_(l.id, l.name, std::move(raw));
    return;
  }
  // Fit outside emit_mu_, so other links' folds fit in parallel; the link's
  // own fold_mu keeps its forecaster in window order.
  LinkReport report;
  report.link = l.id;
  report.name = l.name;
  if (config_.mode == EngineMode::batch) {
    report.interval = api::finalize_interval(l.live.analysis, raw);
  } else {
    report.window =
        live::fit_window_report(l.live, raw, *l.forecaster, *l.monitor);
  }
  std::lock_guard lock(emit_mu_);
  l.counters.flows += flows;
  if (!report.interval && !report.window) return;  // below min_flows
  ++l.counters.reports;
  sink_(std::move(report));
}

std::vector<LinkInfo> Engine::links() const {
  std::lock_guard lock(emit_mu_);  // counters.reports updates under it
  std::vector<LinkInfo> out;
  out.reserve(links_.size());
  for (const auto& l : links_) {
    out.push_back({l->id, l->name, l->attached, l->counters});
  }
  return out;
}

std::size_t Engine::link_count() const {
  std::size_t n = 0;
  for (const auto& l : links_) n += l->attached ? 1 : 0;
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
  // Quiesce: hand every demux-buffered packet to its worker, advance every
  // shard to its link's clock, wait for the queues to drain (rethrowing any
  // worker failure). After this every routed packet is inside its shard,
  // and every shard of a link has closed the same windows, so each fold is
  // empty and every closed window has been emitted — the states are a
  // consistent cut of the stream.
  flush();
  pool_->wait_idle();
  EngineState st;
  st.summary = summary_;
  st.last_ts = last_ts_;
  st.sessions.reserve(links_.size());
  for (const auto& l : links_) {
    EngineSessionState ss;
    ss.name = l->name;
    ss.attached = l->attached;
    {
      // emit_mu_ orders the workers' counters.reports writes before this
      // read; packets/bytes are demux-thread-owned.
      std::lock_guard lock(emit_mu_);
      ss.counters = l->counters;
    }
    if (l->attached) {
      for (const auto& s : l->shards) {
        ss.shards.push_back(s.estimator->save_state());
      }
      live::EstimatorState& first = ss.shards.front();
      first.forecast_history = l->forecaster->history();
      first.monitor_consecutive =
          static_cast<std::uint64_t>(l->monitor->consecutive_outside());
      first.monitor_last_kind =
          static_cast<std::uint32_t>(l->monitor->last_kind());
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
  if (links_.size() != state.sessions.size()) {
    throw std::runtime_error(
        "Engine: restore link set mismatch (checkpoint has " +
        std::to_string(state.sessions.size()) + " links, engine has " +
        std::to_string(links_.size()) +
        " — attach the checkpoint's links first, in order)");
  }
  // Two passes: validate the whole link set before mutating anything, so a
  // mismatch leaves the engine untouched (strong guarantee).
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const Link& l = *links_[i];
    const EngineSessionState& ss = state.sessions[i];
    if (l.name != ss.name) {
      throw std::runtime_error("Engine: restore link mismatch at position " +
                               std::to_string(i) + " (checkpoint says \"" +
                               ss.name + "\", engine has \"" + l.name +
                               "\")");
    }
    if (l.attached != ss.attached) {
      throw std::runtime_error("Engine: restore attach-state mismatch for \"" +
                               ss.name + "\"");
    }
    if (ss.attached && ss.shards.size() != l.shards.size()) {
      throw std::runtime_error(
          "Engine: restore shard-count mismatch for \"" + ss.name +
          "\" (checkpoint has " + std::to_string(ss.shards.size()) +
          " shards per link, engine has " + std::to_string(l.shards.size()) +
          ")");
    }
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    Link& l = *links_[i];
    const EngineSessionState& ss = state.sessions[i];
    l.counters = ss.counters;
    l.counters.flows = 0;
    if (!l.attached) continue;
    for (std::size_t k = 0; k < l.shards.size(); ++k) {
      const live::EstimatorState& st = ss.shards[k];
      l.shards[k].estimator->restore_state(st);  // validates the monitor fields
      l.counters.flows += st.counters.flows;
      // Every shard was advanced to its link's clock before the snapshot.
      l.clock = std::max(l.clock, st.last_ts);
    }
    for (auto& s : l.shards) s.clock = l.clock;
    const live::EstimatorState& first = ss.shards.front();
    l.forecaster->restore_history(first.forecast_history);
    l.monitor->restore_hysteresis(
        static_cast<std::size_t>(first.monitor_consecutive),
        static_cast<live::AlertKind>(first.monitor_last_kind));
  }
  summary_ = state.summary;
  last_ts_ = state.last_ts;
}

}  // namespace fbm::engine
