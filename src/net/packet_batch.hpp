// Structure-of-arrays packet batch — the unit of flow through the hot path.
//
// A per-packet pipeline (virtual TraceSource::next() returning an
// std::optional, one classifier call per packet) spends most of its cycles
// on call overhead and cache misses, not on classification. PacketBatch
// moves packets through every analysis stage — push_batch is their only
// entry point — a few hundred at a time in parallel arrays:
//
//   timestamps[i] | tuples[i] | sizes[i]     describe packet i
//
// The SoA layout keeps the fields each stage actually touches dense —
// interval-run splitting scans timestamps[] alone (8 bytes/packet, one cache
// line per 8 packets), key extraction scans tuples[], binning scans
// timestamps[]+sizes[] — and lets consumers hoist per-packet work (hash
// computation, interval-index checks, virtual dispatch) to per-batch work.
//
// Invariant: the three arrays always have identical length. Timestamps are
// non-decreasing when the batch was filled from a TraceSource (sources
// deliver in stream order); consumers that require ordering validate it
// once per batch, with check_order() below, instead of once per packet.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace fbm::net {

struct PacketBatch {
  std::vector<double> timestamps;
  std::vector<FiveTuple> tuples;
  std::vector<std::uint32_t> sizes;

  [[nodiscard]] std::size_t size() const { return timestamps.size(); }
  [[nodiscard]] bool empty() const { return timestamps.empty(); }

  void clear() {
    timestamps.clear();
    tuples.clear();
    sizes.clear();
  }

  void reserve(std::size_t n) {
    timestamps.reserve(n);
    tuples.reserve(n);
    sizes.reserve(n);
  }

  void push_back(const PacketRecord& p) {
    timestamps.push_back(p.timestamp);
    tuples.push_back(p.tuple);
    sizes.push_back(p.size_bytes);
  }

  void emplace_back(double timestamp, const FiveTuple& tuple,
                    std::uint32_t size_bytes) {
    timestamps.push_back(timestamp);
    tuples.push_back(tuple);
    sizes.push_back(size_bytes);
  }

  /// Replaces the contents with `recs` (AoS -> SoA transpose).
  void assign(std::span<const PacketRecord> recs) {
    clear();
    append(recs);
  }

  void append(std::span<const PacketRecord> recs) {
    reserve(size() + recs.size());
    for (const auto& r : recs) push_back(r);
  }

  /// Appends all of `other` (SoA -> SoA, three bulk copies).
  void append(const PacketBatch& other) {
    timestamps.insert(timestamps.end(), other.timestamps.begin(),
                      other.timestamps.end());
    tuples.insert(tuples.end(), other.tuples.begin(), other.tuples.end());
    sizes.insert(sizes.end(), other.sizes.begin(), other.sizes.end());
  }

  /// Packet i as the classic AoS record (cold paths and tests).
  [[nodiscard]] PacketRecord record(std::size_t i) const {
    return {timestamps[i], tuples[i], sizes[i]};
  }
};

/// The ingest check each stage runs once per batch, before it changes any
/// state: throws std::invalid_argument (prefixed with `who`) unless every
/// timestamp is finite and none is below its predecessor — `prev`, the
/// stage's last timestamp, for the first. Order is tested as t >= prev,
/// which a NaN fails too; with the order proven, finite first and last
/// timestamps bound every one between them.
inline void check_order(std::span<const double> ts, double prev,
                        const char* who) {
  if (ts.empty()) return;
  bool ordered = ts[0] >= prev;
  for (std::size_t i = 1; ordered && i < ts.size(); ++i) {
    ordered = ts[i] >= ts[i - 1];
  }
  if (!ordered) {
    throw std::invalid_argument(std::string(who) + ": out-of-order packet");
  }
  if (!std::isfinite(ts.front()) || !std::isfinite(ts.back())) {
    throw std::invalid_argument(std::string(who) + ": non-finite timestamp");
  }
}

}  // namespace fbm::net
