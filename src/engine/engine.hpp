// fbm::engine — one process, many links (the session-oriented front door).
//
//   TraceSource ──► Engine (demux) ──► link shards ──► fold ──► ReportSink
//                    │  RoutingTable LPM / 5-tuple     (add the K  (a report,
//                    │  predicates / match-all, then    partials,   tagged with
//                    │  flow-key hash mod K             fit once)   its link)
//                    └─ shared worker pool
//
// A real POP monitors dozens of backbone links from a single tap; the paper
// models each link independently. Engine owns a set of LinkSpecs, demuxes
// one packet stream to the links, and runs every link as batch analysis or
// live monitoring, with per-link config overrides layered over a base
// config. Both modes run the same estimator, live::WindowedEstimator: a
// batch link's windows tile the stream at its analysis interval
// (live::batch_windows), so only the fit and the rendering differ by mode.
//
// A link is EngineConfig::shards = K flow-hash shards: each packet goes to
// the shard api::flow_shard_of(tuple, link flow definition, K) names, and
// every shard's estimator runs in partial mode. One fold per link adds the
// K api::WindowPartials of window k in shard order and fits once:
// api::finalize_interval, which drops windows below min_flows (batch), or
// live::fit_window_report with the link's own forecaster and monitor
// (live). Flows are independent shots in the paper's model and every
// partial field is an exact sum, so a link's reports are bit-for-bit
// identical at every K; K = 1 takes the same path. Each shard is advanced
// to its link's clock (its newest packet) by a result-neutral advance(now),
// so a shard that sees no packets cannot hold back its link's reports or
// grow the fold.
//
// Shards never own threads; the engine runs them on one core::WorkerPool.
// With threads == 1 (the default) the pool is inline and report order is
// fully deterministic (attach order within a batch). With threads > 1 each
// shard is pinned to one worker (round-robin at attach), and the fold of a
// window runs on whichever worker delivers its last shard; only the
// interleaving of *different* links' reports becomes scheduling-dependent.
// A shard that throws on a worker (a failing sink, say) stops that worker;
// the error reaches the caller at the next hand-off to the pool, at
// save_state() or at finish().
//
// The contract the differential tests pin (tests/engine/): each link's
// report stream is bit-for-bit identical to running one estimator
// (api::analyze / live::WindowedEstimator) on that link's pre-filtered
// packets, at every shard and thread count. Links can be attached and
// detached at runtime: detach(id) finalizes the link at once (its pending
// windows flush through the sink).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

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
  /// Base configuration of every link (per-link tune_live layers on a
  /// copy). A batch link reads only `live.analysis`, whose interval_s sets
  /// its tiling windows; batch_packets inside is ignored: the demux buffers
  /// have a fixed size.
  live::LiveConfig live;

  /// Worker pool size. 1 = no threads, shards run inline on the caller;
  /// 0 auto-detects the machine's core count
  /// (std::thread::hardware_concurrency); above api::kMaxThreads the
  /// constructor throws std::invalid_argument. Per-link output is
  /// identical at every value.
  std::size_t threads = 1;
  /// Flow-hash shards per link, the unit of work a worker runs. 1 keeps a
  /// link on one worker; 0 auto-detects the core count, like threads.
  /// Per-link output is identical at every value.
  std::size_t shards = 1;
};

/// One report, tagged with the link that produced it. Exactly one of
/// `interval` (batch mode) / `window` (live mode) is set.
struct LinkReport {
  LinkId link = 0;
  std::string name;
  std::optional<api::AnalysisReport> interval;
  std::optional<live::WindowReport> window;
};

/// Unified sink: every link's reports funnel here, in per-link order.
/// Invoked on the caller's thread when threads == 1, on worker threads
/// otherwise (serialized — never concurrently). Must not call back into the
/// engine. An engine without a report or partial sink refuses its first
/// push.
using ReportSink = std::function<void(LinkReport&&)>;

/// Pre-fit flush hook for distributed aggregation: every closed analysis
/// interval (batch mode) or sliding window (live mode) of every link leaves
/// as raw sufficient statistics — the link's K shards already folded —
/// tagged with its link, instead of being fitted locally. agg::Merger folds
/// partials across processes/hosts by link name and window index and fits
/// once. Batch intervals and live windows share the api::WindowPartial
/// carrier (the batch report schema never shows its counters). Same
/// threading contract as ReportSink.
using PartialSink =
    std::function<void(LinkId, const std::string&, api::WindowPartial&&)>;

struct LinkCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t reports = 0;
  /// Completed flows over the link's closed windows, min_flows-filtered
  /// ones included. Not serialized: a restore sums it from the shards.
  std::uint64_t flows = 0;
};

struct LinkInfo {
  LinkId id = 0;
  std::string name;
  bool attached = true;  ///< false once detached
  LinkCounters counters;
};

/// One link's slice of an engine snapshot: identity (for restore-time
/// validation against the re-attached link set), counters, and — for a
/// still-running live link — every shard's estimator state in shard order.
/// The link's forecaster and monitor travel in shards[0] (its
/// forecast_history and monitor fields; the other shards' stay empty), so a
/// one-shard link snapshots exactly what a lone estimator would.
struct EngineSessionState {
  std::string name;
  bool attached = true;
  LinkCounters counters;
  /// Empty for a detached (already finished) link.
  std::vector<live::EstimatorState> shards;
};

/// Complete serializable state of a live-mode Engine mid-stream: stream
/// totals plus every link in attach order (link ids are assigned
/// sequentially, so attach order alone reproduces them). The LPM claims and
/// match rules are NOT serialized — restore validates the caller re-attached
/// the same links (names, order, attach state, shard count) and refuses
/// otherwise, so the routing state is rebuilt through the ordinary attach
/// path.
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

  /// Adds a link and starts its shards. Throws std::invalid_argument on an
  /// empty/duplicate name, an empty prefix list, a prefix already claimed
  /// by another attached link, or an invalid layered config (strong
  /// guarantee: a failed attach leaves the engine unchanged).
  LinkId attach(LinkSpec spec);

  /// Stops routing to the link and finalizes its shards now — pending
  /// intervals/windows flush through the sink before this returns (the
  /// workers finish them asynchronously when the pool is on; they are
  /// complete by finish()). Returns false if the id is unknown or already
  /// detached. The link's counters remain visible through links().
  bool detach(LinkId id);

  /// Where fitted reports go. Set before the first push. See ReportSink for
  /// the threading contract.
  void set_report_sink(ReportSink sink) { sink_ = std::move(sink); }

  /// Diverts every link's closed intervals/windows to `sink` as raw
  /// pre-fit material (see PartialSink). Must be set before the first
  /// attach().
  void set_partial_sink(PartialSink sink) {
    if (!links_.empty()) {
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
  /// whole. Within a link of K > 1 shards the flow-key hash picks the
  /// buffer. Per-link results are bit-for-bit identical at every batch
  /// size. Throws std::logic_error while neither sink is set.
  void push_batch(const net::PacketBatch& batch);

  /// Hands any demux-buffered packets to their workers now and advances
  /// every shard to its link's clock (pool mode; inline shards are always
  /// current). The per-batch flush cadence is trace time, so a quiet
  /// --follow stream can leave routed packets buffered — call this from the
  /// idle poll loop to bound report latency by wall clock too. A no-op
  /// after finish().
  void flush();

  /// End of stream: finalize every attached link, join the pool, and set
  /// the per-link gauges to the final totals. push_batch()/attach() must
  /// not be called afterwards.
  void finish();

  /// Drains `source` (api::read_batches) and finishes; returns packets
  /// consumed.
  std::uint64_t consume(api::TraceSource& source);

  /// threads and shards resolved (0 becomes the core count).
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  /// Totals over the whole stream (every packet, routed or not).
  [[nodiscard]] const trace::TraceSummary& summary() const {
    return summary_;
  }
  /// Attached links (detached ones included, flagged), in attach order.
  [[nodiscard]] std::vector<LinkInfo> links() const;
  [[nodiscard]] std::size_t link_count() const;  ///< attached only

  /// Snapshot of the complete mid-stream state (live mode only). Flushes
  /// demux buffers, advances every shard to its link's clock and quiesces
  /// the worker pool first, so the captured states are exactly "every
  /// routed packet processed, every closed window folded and emitted".
  /// Call between pushes; throws std::logic_error after finish(), in batch
  /// mode, or with a partial sink.
  [[nodiscard]] EngineState save_state();

  /// Rebuilds a saved state. The caller must first attach the checkpoint's
  /// links (same names, same order, same attach flags — ids then match by
  /// construction) on a fresh engine of the same config and shard count;
  /// throws std::runtime_error naming the first mismatch otherwise.
  void restore_state(const EngineState& state);

 private:
  struct Link;
  struct Shard;

  void route_batch(const net::PacketBatch& batch);
  void take(Link& link, const net::PacketBatch& batch, std::size_t i);
  void deliver_pending(Link& link);
  /// Hands the shard its buffered packets and its link's clock.
  void deliver(Shard& shard);
  void finish_link(Link& link);
  /// Adds one shard's closed window to its link's fold; fits and emits
  /// every window all K shards have delivered.
  void fold(Shard& shard, api::WindowPartial&& partial);
  void complete(Link& link, api::WindowPartial&& raw);
  /// Sets each link's fbm_link_packets/fbm_link_reports gauge to its
  /// counters (flush cadence, and once more after finish's join).
  void refresh_link_gauges();

  EngineConfig config_;
  ReportSink sink_;
  PartialSink partial_sink_;

  std::vector<std::unique_ptr<Link>> links_;  ///< attach order
  /// Attached links only, attach order — the per-batch hand-off order.
  /// Rebuilt on attach/detach so detached links cost nothing per batch
  /// (their Link stays in links_ for counters and in-flight work).
  std::vector<Link*> routing_;
  /// prefix -> LinkId, shared LPM; a LinkId is its link's index in links_.
  net::RoutingTable prefix_table_;
  std::size_t prefix_links_ = 0;    ///< attached links with prefix rules
  LinkId next_id_ = 0;

  std::size_t next_worker_ = 0;

  mutable std::mutex emit_mu_;  ///< serializes the sinks, report counters

  trace::TraceSummary summary_;
  double last_ts_ = -std::numeric_limits<double>::infinity();
  double flush_deadline_ = std::numeric_limits<double>::infinity();
  bool finished_ = false;
  /// Declared last: it drains and joins before anything its tasks touch.
  std::unique_ptr<core::WorkerPool> pool_;
};

}  // namespace fbm::engine
