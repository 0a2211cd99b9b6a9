// In-place packet-batch filters shared by the fbm_* tools.
//
// keep_shard() is the --shard filter of fbm_analyze and fbm_live;
// drop_front() skips the packets a restored checkpoint already consumed.
// Both keep the surviving packets in stream order, so a filtered batch goes
// straight on to a stage's push_batch.
#pragma once

#include <algorithm>
#include <cstddef>

#include "api/shard.hpp"
#include "net/packet_batch.hpp"

namespace fbm::tools {

/// Keeps exactly the packets whose flow key hashes to shard `index` of
/// `count` (the stable hash the parallel pipeline shards by), so K such
/// processes partition the stream by flow and every flow's packet
/// subsequence survives intact — the property that makes merged partials
/// bit-identical to a single run. `count` <= 1 keeps everything.
inline void keep_shard(net::PacketBatch& batch, api::FlowDefinition def,
                       std::size_t index, std::size_t count) {
  if (count <= 1) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (api::flow_shard_of(batch.tuples[i], def, count) != index) continue;
    batch.timestamps[kept] = batch.timestamps[i];
    batch.tuples[kept] = batch.tuples[i];
    batch.sizes[kept] = batch.sizes[i];
    ++kept;
  }
  batch.timestamps.resize(kept);
  batch.tuples.resize(kept);
  batch.sizes.resize(kept);
}

/// Removes the first min(n, size) packets; returns how many it removed.
inline std::size_t drop_front(net::PacketBatch& batch, std::size_t n) {
  n = std::min(n, batch.size());
  const auto cut = static_cast<std::ptrdiff_t>(n);
  batch.timestamps.erase(batch.timestamps.begin(),
                         batch.timestamps.begin() + cut);
  batch.tuples.erase(batch.tuples.begin(), batch.tuples.begin() + cut);
  batch.sizes.erase(batch.sizes.begin(), batch.sizes.begin() + cut);
  return n;
}

}  // namespace fbm::tools
