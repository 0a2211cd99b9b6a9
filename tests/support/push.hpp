// Batch-feeding helpers for the stage tests. Every analysis stage
// (WindowedEstimator, Engine) ingests through push_batch only; these cut an
// in-memory packet vector into the batches a test wants.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "stats/rng.hpp"

namespace fbm::testsupport {

/// Feeds one packet as a batch of one.
template <typename Stage>
void push_one(Stage& stage, const net::PacketRecord& packet) {
  net::PacketBatch batch;
  batch.push_back(packet);
  stage.push_batch(batch);
}

/// Feeds `packets` in consecutive batches of `batch_size` (the last may be
/// shorter). Batch size 1 is the reference run of the batching
/// differentials.
template <typename Stage>
void push_all(Stage& stage, std::span<const net::PacketRecord> packets,
              std::size_t batch_size = 1024) {
  net::PacketBatch batch;
  for (std::size_t i = 0; i < packets.size(); i += batch_size) {
    batch.assign(packets.subspan(i, std::min(batch_size, packets.size() - i)));
    stage.push_batch(batch);
  }
}

/// Feeds `packets` in batches cut at random split points: sizes are drawn
/// uniformly from [1, max_batch], so batches of one packet occur often.
template <typename Stage>
void push_split(Stage& stage, std::span<const net::PacketRecord> packets,
                std::uint64_t seed, std::size_t max_batch = 64) {
  stats::Rng rng(seed);
  net::PacketBatch batch;
  for (std::size_t i = 0; i < packets.size();) {
    const auto want = static_cast<std::size_t>(rng.uniform_int(1, max_batch));
    const std::size_t n = std::min(want, packets.size() - i);
    batch.assign(packets.subspan(i, n));
    stage.push_batch(batch);
    i += n;
  }
}

}  // namespace fbm::testsupport
