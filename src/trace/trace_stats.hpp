// Per-trace summary statistics (the content of Table I).
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>

#include "net/packet.hpp"
#include "net/packet_batch.hpp"

namespace fbm::trace {

struct TraceSummary {
  std::uint64_t packets = 0;
  std::uint64_t total_bytes = 0;
  double first_ts = 0.0;
  double last_ts = 0.0;

  /// Folds in a non-empty batch already in stream order (net::check_order).
  void add(const net::PacketBatch& batch);

  [[nodiscard]] double duration_s() const {
    return packets == 0 ? 0.0 : last_ts - first_ts;
  }
  [[nodiscard]] double mean_rate_bps() const {
    const double d = duration_s();
    return d > 0.0 ? static_cast<double>(total_bytes) * 8.0 / d : 0.0;
  }
  [[nodiscard]] double mean_rate_mbps() const { return mean_rate_bps() / 1e6; }
  [[nodiscard]] double mean_packet_bytes() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(total_bytes) /
                              static_cast<double>(packets);
  }
};

[[nodiscard]] TraceSummary summarize(std::span<const net::PacketRecord> recs);
[[nodiscard]] TraceSummary summarize_file(const std::filesystem::path& path);

/// "7h 30m"-style rendering of a duration, as in Table I.
[[nodiscard]] std::string format_duration(double seconds);

}  // namespace fbm::trace
