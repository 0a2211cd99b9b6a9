// Timeout-based flow classification (Section III of the paper).
//
// Rules implemented exactly as described:
//  - a flow ends when no packet arrives for `timeout` (default 60 s);
//  - duration = last packet time - first packet time;
//  - single-packet flows are discarded (their duration would be zero) and
//    their packets are excluded from rate-variance measurements. The rule
//    applies to whole flows, not split pieces: a one-packet piece that
//    continues an earlier piece or is continued by a later one is kept;
//  - flows overlapping an analysis-interval boundary are split: the piece in
//    each interval is recorded separately, the later pieces flagged
//    `continued` (this is what produces the step at t=0 in Figure 1).
//
// The classifier is generic over the flow key: FiveTupleKey reproduces flow
// definition 1, PrefixKey<24> definition 2, and any /n is available for the
// aggregation-level extension discussed in Section VI-A.
//
// The active-flow table is a core::FlatHashMap (open addressing, robin-hood
// probing) — the per-packet try_emplace is the pipeline's hottest operation
// and the flat table removes std::unordered_map's per-node allocation and
// pointer chase.
//
// Key extractors map a packet's 5-tuple to its flow key; FiveTupleKey hands
// back a reference to the tuple itself. add_batch hashes each key from that
// value and only then stores it to its scratch slot. Hashing the slot right
// after storing it, or copying the key through a local first, re-reads the
// key from stores that have not retired yet; that failed store-to-load
// forwarding made the batch preamble four times slower than the hash alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/flat_hash_map.hpp"
#include "flow/flow_record.hpp"
#include "net/lpm.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"

namespace fbm::flow {

/// Flow definition 1: the 5-tuple itself.
struct FiveTupleKey {
  using key_type = net::FiveTuple;
  using hash_type = net::FiveTupleHash;
  [[nodiscard]] const key_type& operator()(const net::FiveTuple& t) const {
    return t;
  }
};

/// Flow definition 2: destination address prefix (paper uses /24).
template <int Bits>
struct PrefixKey {
  static_assert(Bits >= 0 && Bits <= 32);
  using key_type = net::Prefix;
  using hash_type = net::PrefixHash;
  [[nodiscard]] key_type operator()(const net::FiveTuple& t) const {
    return net::Prefix(t.dst, Bits);
  }
};

/// Section VI-A extension: flows keyed by the "routable" prefix — the
/// longest-prefix-match entry of a forwarding table. Destinations with no
/// covering route fall back to their /24 (a real router would drop them; a
/// monitor still has to account for the bytes).
struct RoutableKey {
  using key_type = net::Prefix;
  using hash_type = net::PrefixHash;

  explicit RoutableKey(const net::RoutingTable* table) : table_(table) {
    if (table_ == nullptr) {
      throw std::invalid_argument("RoutableKey: null routing table");
    }
  }

  [[nodiscard]] key_type operator()(const net::FiveTuple& t) const {
    if (const auto prefix = table_->lookup_prefix(t.dst)) return *prefix;
    return net::Prefix(t.dst, 24);
  }

 private:
  const net::RoutingTable* table_;
};

struct ClassifierOptions {
  double timeout = 60.0;  ///< idle gap that terminates a flow, seconds
  /// Analysis-interval length for boundary splitting; infinity disables
  /// splitting. The paper uses 30 minutes.
  double interval = std::numeric_limits<double>::infinity();
  bool discard_single_packet = true;
  /// Keep (timestamp, bytes) of discarded single-packet flows so the rate
  /// measurement can exclude them, as the paper does.
  bool record_discards = false;
  /// Active-flow table capacity reserved up front (0 = grow on demand).
  /// Backbone traces hold tens of thousands of concurrent flows; reserving
  /// ahead skips the rehash cascade during ramp-up.
  std::size_t reserve_flows = 0;
};

/// A packet belonging to a discarded single-packet flow.
struct DiscardedPacket {
  double timestamp;
  std::uint64_t size_bytes;
};

struct ClassifierCounters {
  std::uint64_t packets = 0;
  std::uint64_t flows_emitted = 0;       ///< records produced (incl. pieces)
  std::uint64_t single_packet_discards = 0;
  std::uint64_t boundary_splits = 0;     ///< pieces created by splitting
};

/// Streaming classifier: feed packets in timestamp order, collect completed
/// FlowRecords. Completion happens when (a) a packet of the same key arrives
/// after the idle timeout, (b) a packet of the same key arrives in a later
/// analysis interval, or (c) flush() is called at end of trace.
template <typename KeyExtractor>
class FlowClassifier {
 public:
  using key_type = typename KeyExtractor::key_type;

  explicit FlowClassifier(ClassifierOptions options = {})
      : FlowClassifier(KeyExtractor{}, options) {}

  /// For stateful key extractors (e.g. RoutableKey over a routing table).
  FlowClassifier(KeyExtractor extractor, ClassifierOptions options)
      : extract_(std::move(extractor)), options_(options) {
    if (!(options_.timeout > 0.0)) {
      throw std::invalid_argument("FlowClassifier: timeout <= 0");
    }
    if (!(options_.interval > 0.0)) {
      throw std::invalid_argument("FlowClassifier: interval <= 0");
    }
    if (options_.reserve_flows > 0) active_.reserve(options_.reserve_flows);
  }

  /// Packets must arrive in non-decreasing timestamp order (throws
  /// std::invalid_argument otherwise — classification depends on it).
  void add(const net::PacketRecord& packet) {
    if (packet.timestamp < last_ts_) {
      throw std::invalid_argument("FlowClassifier: out-of-order packet");
    }
    last_ts_ = packet.timestamp;
    ++counters_.packets;
    const key_type key = extract_(packet.tuple);
    step(key, hash_value(key), packet.timestamp, packet.size_bytes,
         interval_index(packet.timestamp));
  }

  void add_batch(const net::PacketBatch& batch) {
    add_batch(batch, 0, batch.size());
  }

  /// Batched add of packets [begin, end) of `batch`. Emits exactly what an
  /// add() per packet would — the batch form only hoists work: ordering is
  /// validated in one scan, keys and hashes are computed for the whole
  /// range up front (hash-ahead, prefetching the flow-table slot a few
  /// packets ahead of use), and the interval index is evaluated once per
  /// interval-homogeneous run instead of once per packet.
  void add_batch(const net::PacketBatch& batch, std::size_t begin,
                 std::size_t end) {
    if (begin >= end) return;
    const double* ts = batch.timestamps.data();
    const std::uint32_t* sizes = batch.sizes.data();
    net::check_order({ts + begin, end - begin}, last_ts_, "FlowClassifier");
    last_ts_ = ts[end - 1];
    const std::size_t n = end - begin;
    counters_.packets += n;

    // Hash from the extracted key, then store it (see the header comment).
    keys_scratch_.resize(n);
    hash_scratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const key_type& key = extract_(batch.tuples[begin + i]);
      hash_scratch_[i] = hash_value(key);
      keys_scratch_[i] = key;
    }

    std::size_t i = begin;
    while (i < end) {
      const std::int64_t idx = interval_index(ts[i]);
      const std::size_t run = run_end(ts, i, end, idx);
      for (std::size_t k = i; k < run; ++k) {
        const std::size_t ahead = k - begin + kPrefetchAhead;
        if (ahead < n) prefetch_slot(hash_scratch_[ahead]);
        step(keys_scratch_[k - begin], hash_scratch_[k - begin], ts[k],
             sizes[k], idx);
      }
      i = run;
    }
  }

  /// Terminates all active flows (end of capture). The classifier can be
  /// reused afterwards — the stream clock resets, so the next capture may
  /// start at any timestamp.
  void flush() {
    for (auto& [key, a] : active_) emit(a.record, false);
    active_.clear();
    last_ts_ = -std::numeric_limits<double>::infinity();
  }

  /// Emits and removes every flow idle for longer than the timeout as of
  /// `now` (NetFlow's inactive timer). Without this, a flow whose 5-tuple
  /// never recurs stays in the table until flush(). Full-table scan: call
  /// it periodically (e.g. once per second of trace time), not per packet.
  void expire_idle(double now) {
    for (auto it = active_.begin(); it != active_.end();) {
      if (now - it->second.record.end > options_.timeout) {
        emit(it->second.record, false);
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Completed flows so far, in completion order (not arrival order).
  [[nodiscard]] const std::vector<FlowRecord>& flows() const { return flows_; }
  [[nodiscard]] std::vector<FlowRecord> take_flows() {
    return std::exchange(flows_, {});
  }

  [[nodiscard]] const ClassifierCounters& counters() const {
    return counters_;
  }
  [[nodiscard]] std::size_t active_flows() const { return active_.size(); }

  /// Packets of discarded single-packet flows (only populated when
  /// options.record_discards is set).
  [[nodiscard]] const std::vector<DiscardedPacket>& discards() const {
    return discards_;
  }
  /// Takes ownership of the discard list (streaming consumers drain it so
  /// it does not grow with the trace).
  [[nodiscard]] std::vector<DiscardedPacket> take_discards() {
    return std::exchange(discards_, {});
  }

  // --- checkpoint hooks ------------------------------------------------
  // flush()/expire_idle() emit in active-table iteration order. Consumers
  // only ever sum the emitted flows into order-free flow::FlowSums (or sort
  // them), so a snapshot needs the active flows, not the table layout: a
  // restore re-inserts them.

  /// The stream clock (timestamp of the last packet; -inf before any).
  [[nodiscard]] double stream_clock() const { return last_ts_; }

  /// Slots allocated in the active table (0 before the first insert).
  [[nodiscard]] std::size_t active_capacity() const {
    return active_.capacity();
  }

  /// Active-table occupancy / capacity (0 before the first insert).
  [[nodiscard]] double table_load_factor() const {
    const std::size_t cap = active_capacity();
    if (cap == 0) return 0.0;
    return static_cast<double>(active_.size()) / static_cast<double>(cap);
  }

  /// Mean probe distance of the active table (telemetry).
  [[nodiscard]] double table_mean_probe() const {
    return active_.mean_probe_distance();
  }

  /// Calls fn(key, record, start_index) for every active flow.
  template <typename Fn>
  void visit_active(Fn&& fn) const {
    for (const auto& [key, a] : active_) fn(key, a.record, a.start_index);
  }

  /// Re-inserts one saved active flow. Throws std::invalid_argument when
  /// the key is already active (a corrupt snapshot).
  void restore_active_flow(const key_type& key, const FlowRecord& record,
                           std::int64_t start_index) {
    auto [it, inserted] = active_.try_emplace(key);
    if (!inserted) {
      throw std::invalid_argument("FlowClassifier: duplicate restored key");
    }
    it->second = Active{record, start_index};
  }

  /// Restores the counters and the stream clock.
  void restore_counters(const ClassifierCounters& counters, double last_ts) {
    counters_ = counters;
    last_ts_ = last_ts;
  }

 private:
  struct Active {
    FlowRecord record;
    /// interval_index(record.start), cached at piece start so the per-packet
    /// boundary check is an integer compare instead of a floor division.
    std::int64_t start_index = 0;
  };

  using map_type =
      core::FlatHashMap<key_type, Active, typename KeyExtractor::hash_type>;

  /// Flow-table slots to prefetch ahead of the packet being classified in
  /// add_batch (hash-ahead distance). Far enough to cover a memory load,
  /// near enough that the line is still resident when the probe runs.
  static constexpr std::size_t kPrefetchAhead = 8;

  /// Canonical interval index: floor division, matching api::interval_index_of
  /// and stats::group_by_interval. Floor — not truncation toward zero — so
  /// negative timestamps land in negative intervals instead of folding into
  /// index 0 and never splitting at the t=0 boundary.
  [[nodiscard]] std::int64_t interval_index(double ts) const {
    if (!std::isfinite(options_.interval)) return 0;
    return static_cast<std::int64_t>(std::floor(ts / options_.interval));
  }

  /// First index in (i, end) whose interval index differs from `idx`, or
  /// `end` when the whole range shares it. Timestamps are non-decreasing, so
  /// floor(ts/interval) is non-decreasing and the crossing can be bisected:
  /// O(log n) evaluations of the canonical index expression per interval
  /// crossing instead of one per packet — and every index the classifier
  /// ever uses comes from the same expression, so the batched path cannot
  /// disagree with the per-packet path by a ulp.
  [[nodiscard]] std::size_t run_end(const double* ts, std::size_t i,
                                    std::size_t end, std::int64_t idx) const {
    if (interval_index(ts[end - 1]) == idx) return end;
    std::size_t lo = i + 1;
    std::size_t hi = end - 1;  // known: interval_index(ts[hi]) != idx
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (interval_index(ts[mid]) == idx) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  [[nodiscard]] std::uint64_t hash_value(const key_type& key) const {
    return active_.hash_of(key);
  }

  void prefetch_slot(std::uint64_t hash) const {
    active_.prefetch_hashed(hash);
  }

  auto emplace_key(const key_type& key, std::uint64_t hash) {
    return active_.try_emplace_hashed(hash, key);
  }

  /// One packet's worth of classification, ordering/counters already
  /// handled by the caller. `idx` must equal interval_index(ts).
  void step(const key_type& key, std::uint64_t hash, double ts,
            std::uint32_t size_bytes, std::int64_t idx) {
    auto [it, inserted] = emplace_key(key, hash);
    Active& a = it->second;
    if (!inserted) {
      const bool timed_out = ts - a.record.end > options_.timeout;
      const bool crossed = idx != a.start_index;
      if (timed_out || crossed) {
        const bool continuation = crossed && !timed_out;
        emit(a.record, continuation);
        a.record = FlowRecord{};
        a.record.continued = continuation;
        if (continuation) ++counters_.boundary_splits;
        inserted = true;
      }
    }
    if (inserted || a.record.packets == 0) {
      a.record.start = ts;
      a.record.end = ts;
      a.record.size_bytes = 0;
      a.record.packets = 0;
      a.start_index = idx;
    }
    a.record.end = ts;
    a.record.size_bytes += size_bytes;
    ++a.record.packets;
  }

  /// `continues` marks a record being closed because a later piece of the
  /// same flow is starting (boundary split). The paper discards
  /// single-packet FLOWS, not pieces: a one-packet record still belongs to
  /// a multi-packet flow when it continues an earlier piece (rec.continued)
  /// or is continued by a later one (`continues`), so only records with
  /// neither are discarded.
  void emit(const FlowRecord& rec, bool continues) {
    if (rec.packets == 0) return;
    if (rec.packets == 1 && options_.discard_single_packet &&
        !rec.continued && !continues) {
      ++counters_.single_packet_discards;
      if (options_.record_discards) {
        discards_.push_back({rec.start, rec.size_bytes});
      }
      return;
    }
    flows_.push_back(rec);
    ++counters_.flows_emitted;
  }

  KeyExtractor extract_;
  ClassifierOptions options_;
  map_type active_;
  std::vector<FlowRecord> flows_;
  std::vector<DiscardedPacket> discards_;
  ClassifierCounters counters_;
  std::vector<key_type> keys_scratch_;
  std::vector<std::uint64_t> hash_scratch_;
  double last_ts_ = -std::numeric_limits<double>::infinity();
};

using FiveTupleClassifier = FlowClassifier<FiveTupleKey>;
using Prefix24Classifier = FlowClassifier<PrefixKey<24>>;

/// Convenience: classify a whole packet vector and return flows sorted by
/// start time (the (T_n) order the model expects).
template <typename KeyExtractor>
[[nodiscard]] std::vector<FlowRecord> classify_all_with(
    KeyExtractor extractor, std::span<const net::PacketRecord> packets,
    ClassifierOptions options = {}, ClassifierCounters* counters = nullptr) {
  FlowClassifier<KeyExtractor> c(std::move(extractor), options);
  for (const auto& p : packets) c.add(p);
  c.flush();
  auto flows = c.take_flows();
  std::sort(flows.begin(), flows.end(), ByStart{});
  if (counters) *counters = c.counters();
  return flows;
}

template <typename KeyExtractor>
[[nodiscard]] std::vector<FlowRecord> classify_all(
    std::span<const net::PacketRecord> packets,
    ClassifierOptions options = {},
    ClassifierCounters* counters = nullptr) {
  return classify_all_with(KeyExtractor{}, packets, options, counters);
}

}  // namespace fbm::flow
