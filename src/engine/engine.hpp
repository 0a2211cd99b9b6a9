// fbm::engine — one process, many links (the session-oriented front door).
//
//   TraceSource ──► Engine (demux) ──► per-link sessions ──► ReportSink
//                    │  RoutingTable LPM / 5-tuple      (AnalysisReport or
//                    │  predicates / match-all           WindowReport, each
//                    └─ shared worker pool               tagged with a link)
//
// A real POP monitors dozens of backbone links from a single tap; the paper
// models each link independently. Engine closes that gap: it owns a set of
// LinkSpecs, demuxes one packet stream to a session per link, and drives
// every session through either batch analysis (api::AnalysisPipeline — one
// api::PipelineShard per session, intervals closed through api::fit_window)
// or live sliding-window monitoring (live::WindowedEstimator), with
// per-link config overrides layered over a base config.
//
// Sessions never own threads; the engine runs them on one core::WorkerPool
// (the same pool api::AnalysisPipeline shards on). With threads == 1 (the
// default) the pool is inline: the demux thread drives every session itself
// and report order is fully deterministic (attach order within a batch:
// link A's reports for the whole batch precede link B's). With threads > 1
// each session is pinned to one worker (round-robin at attach), so N links
// cost min(N, threads) threads, not N; per-link output is unchanged — every
// session still sees exactly its own packet subsequence in stream order —
// only the interleaving of *different* links' reports becomes
// scheduling-dependent. A session that throws on a worker (a failing sink,
// say) stops that worker; the error reaches the caller at the next hand-off
// to the pool, at save_state() or at finish().
//
// The contract the differential tests pin (tests/engine/): each link's
// report stream is bit-for-bit identical to running the ordinary
// single-link pipeline (api::analyze / live::WindowedEstimator) on that
// link's pre-filtered packets.
//
// Links can be attached and detached at runtime: a session attached
// mid-stream sees packets from that point on; detach(id) finalizes the
// session immediately (its pending windows flush through the sink) and
// stops routing to it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "api/trace_source.hpp"
#include "engine/link_spec.hpp"
#include "live/live.hpp"
#include "net/lpm.hpp"
#include "net/packet_batch.hpp"
#include "trace/trace_stats.hpp"

namespace fbm::core {
class WorkerPool;
}  // namespace fbm::core

namespace fbm::engine {

enum class EngineMode { batch, live };

struct EngineConfig {
  EngineMode mode = EngineMode::batch;
  /// Base analysis knobs for batch sessions (per-link tune_analysis layers
  /// on a copy). threads/batch_packets inside are ignored: the engine's own
  /// pool below is the only threading, and its demux buffers have a fixed
  /// size.
  api::AnalysisConfig analysis;
  /// Base configuration for live sessions (mode == live).
  live::LiveConfig live;

  /// Worker pool size. 1 = no threads, sessions run inline on the caller;
  /// 0 auto-detects the machine's core count
  /// (std::thread::hardware_concurrency); above api::kMaxThreads the
  /// constructor throws std::invalid_argument. Per-link output is
  /// identical at every value. A session is the unit of work: it runs on
  /// one worker, so workers beyond the link count sit idle, and a one-link
  /// engine (the tools' run without --link) only moves its session off the
  /// demux thread. Flow-hash sharding inside one link is
  /// api::AnalysisPipeline's (AnalysisConfig::threads).
  std::size_t threads = 1;
};

/// One report, tagged with the link that produced it. Exactly one of
/// `interval` (batch mode) / `window` (live mode) is set.
struct LinkReport {
  LinkId link = 0;
  std::string name;
  std::optional<api::AnalysisReport> interval;
  std::optional<live::WindowReport> window;
};

/// Unified sink: every session's reports funnel here, in per-link order.
/// Invoked on the caller's thread when threads == 1, on worker threads
/// otherwise (serialized — never concurrently). Must not call back into the
/// engine.
using ReportSink = std::function<void(LinkReport&&)>;

/// Pre-fit flush hook for distributed aggregation: every closed analysis
/// interval (batch mode) or sliding window (live mode) of every link leaves
/// as raw sufficient statistics tagged with its link, instead of being
/// fitted locally — agg::Merger folds partials across processes/hosts by
/// link name and window index and fits once. Batch intervals and live
/// windows share the api::WindowPartial carrier (batch counters stay zero;
/// the batch report schema never shows them). Same threading contract as
/// ReportSink.
using PartialSink =
    std::function<void(LinkId, const std::string&, api::WindowPartial&&)>;

struct LinkCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t reports = 0;
};

struct LinkInfo {
  LinkId id = 0;
  std::string name;
  bool attached = true;  ///< false once detached
  LinkCounters counters;
};

/// One session's slice of an engine snapshot: identity (for restore-time
/// validation against the re-attached link set), counters, and — for a
/// still-running live session — the full estimator state.
struct EngineSessionState {
  std::string name;
  bool attached = true;
  LinkCounters counters;
  bool has_live = false;  ///< false for detached (already finished) sessions
  live::EstimatorState live;
};

/// Complete serializable state of a live-mode Engine mid-stream: stream
/// totals plus every session in attach order (session ids are assigned
/// sequentially, so attach order alone reproduces them). The LPM claims and
/// match rules are NOT serialized — restore validates the caller re-attached
/// the same links (names, order, attach state) and refuses otherwise, so
/// the routing state is rebuilt through the ordinary attach path.
struct EngineState {
  trace::TraceSummary summary;
  double last_ts = -std::numeric_limits<double>::infinity();
  std::vector<EngineSessionState> sessions;  ///< attach order
};

class Engine {
 public:
  /// Spawns the worker threads (threads > 1). Per-link analysis parameters
  /// are validated at attach(), where the layered config is known.
  explicit Engine(EngineConfig config);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Adds a link and starts its session. Throws std::invalid_argument on an
  /// empty/duplicate name, an empty prefix list, a prefix already claimed
  /// by another attached link, or an invalid layered session config (strong
  /// guarantee: a failed attach leaves the engine unchanged).
  LinkId attach(LinkSpec spec);

  /// Stops routing to the link and finalizes its session now — pending
  /// intervals/windows flush through the sink before this returns (the
  /// worker finishes them asynchronously when the pool is on; they are
  /// complete by finish()). Returns false if the id is unknown or already
  /// detached. The link's counters remain visible through links().
  bool detach(LinkId id);

  /// Set before the first push. See ReportSink for the threading contract.
  void set_report_sink(ReportSink sink) { sink_ = std::move(sink); }

  /// Diverts every session's closed intervals/windows to `sink` as raw
  /// pre-fit material (see PartialSink). Must be set before the first
  /// attach(): sessions wire their flush path when they are created.
  void set_partial_sink(PartialSink sink) {
    if (!sessions_.empty()) {
      throw std::logic_error("Engine: set_partial_sink after attach");
    }
    partial_sink_ = std::move(sink);
  }

  /// Feed the next batch. Timestamps must be finite and non-decreasing,
  /// within the batch and from one batch to the next (throws
  /// std::invalid_argument otherwise, before any state changes). One pass
  /// over the batch copies each packet into the demux buffer of the prefix
  /// link its destination's longest-prefix match names; predicate links
  /// filter the batch into their own buffers, and match-all links take it
  /// whole. Each session consumes its buffer through its own push_batch.
  /// Per-link results are bit-for-bit identical at every batch size.
  void push_batch(const net::PacketBatch& batch);

  /// Hands any demux-buffered packets to their workers now (pool mode; a
  /// no-op when sessions run inline). The per-batch flush cadence is trace
  /// time, so a quiet --follow stream can leave routed packets buffered —
  /// call this from the idle poll loop to bound report latency by wall
  /// clock too.
  void flush();

  /// End of stream: finalize every attached session, join the pool.
  /// push_batch()/attach() must not be called afterwards.
  void finish();

  /// Drains `source` (api::read_batches) and finishes; returns packets
  /// consumed.
  std::uint64_t consume(api::TraceSource& source);

  /// Queued reports (only when no sink is set), oldest first per link.
  /// (Locked: pool workers fill the queue from their own threads.)
  [[nodiscard]] bool has_report() const {
    std::lock_guard lock(emit_mu_);
    return !ready_.empty();
  }
  [[nodiscard]] LinkReport pop_report();
  [[nodiscard]] std::vector<LinkReport> take_reports();

  [[nodiscard]] const EngineConfig& config() const { return config_; }
  /// Totals over the whole stream (every packet, routed or not).
  [[nodiscard]] const trace::TraceSummary& summary() const {
    return summary_;
  }
  /// Attached links (detached ones included, flagged), in attach order.
  [[nodiscard]] std::vector<LinkInfo> links() const;
  [[nodiscard]] std::size_t link_count() const;  ///< attached only

  /// Snapshot of the complete mid-stream state (live mode only). Flushes
  /// demux buffers and quiesces the worker pool first, so the captured
  /// per-session states are exactly "every routed packet processed, every
  /// closed window emitted". Call between pushes; throws std::logic_error
  /// after finish(), in batch mode, with a partial sink, or while reports
  /// sit undrained in the queue.
  [[nodiscard]] EngineState save_state();

  /// Rebuilds a saved state. The caller must first attach the checkpoint's
  /// links (same names, same order, same attach flags — ids then match by
  /// construction) on a fresh engine of the same config; throws
  /// std::runtime_error naming the first mismatch otherwise.
  void restore_state(const EngineState& state);

 private:
  struct Session;

  void route_batch(const net::PacketBatch& batch);
  void take(Session& s, const net::PacketBatch& batch, std::size_t i);
  void deliver_pending(Session& s);
  void finish_session(Session& s);
  void flush_session(Session& s);
  void flush_all_pending(double now);
  void emit(Session& s, LinkReport&& report);
  void emit_partial(Session& s, api::WindowPartial&& partial);

  EngineConfig config_;
  ReportSink sink_;
  PartialSink partial_sink_;

  std::vector<std::unique_ptr<Session>> sessions_;  ///< attach order
  /// Attached sessions only, attach order — the per-batch hand-off order.
  /// Rebuilt on attach/detach so detached links cost nothing per batch
  /// (their Session stays in sessions_ for counters and in-flight work).
  std::vector<Session*> routing_;
  /// prefix -> LinkId, shared LPM; a LinkId is its session's index in
  /// sessions_.
  net::RoutingTable prefix_table_;
  std::size_t prefix_links_ = 0;    ///< attached links with prefix rules
  LinkId next_id_ = 0;

  std::size_t next_worker_ = 0;

  mutable std::mutex emit_mu_;  ///< serializes sink_/ready_/report counters
  std::deque<LinkReport> ready_;

  trace::TraceSummary summary_;
  double last_ts_ = -std::numeric_limits<double>::infinity();
  double flush_deadline_ = std::numeric_limits<double>::infinity();
  bool finished_ = false;
  /// Declared last: it drains and joins before anything its tasks touch.
  std::unique_ptr<core::WorkerPool> pool_;
};

}  // namespace fbm::engine
