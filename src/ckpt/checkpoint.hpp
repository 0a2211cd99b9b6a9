// Checkpoint codec (fbm::ckpt) — durable mid-stream state on disk.
//
// A live run (fbm_live, single estimator or engine) can be SIGKILLed at any
// moment and resumed from its last checkpoint with bit-identical remaining
// output: the snapshot captures every member push_batch() reads or writes —
// each open window's active flows (key set, not table layout: emitted flows
// land in order-free flow::FlowSums) and its pre-fit material, stored as an
// FBMP window (agg::encode_window).
//
// File layout (all little-endian) reuses the partial-report framing
// discipline (core/framed_file.hpp):
//
//   header  : u32 magic "FBMC" | u32 version | u64 reserved
//   frames  : u32 type | u32 reserved | u64 payload_len
//             | payload | u64 fnv1a64(payload)
//
// Exactly one meta frame (first, carrying the producing run's config as an
// agg::PartialMeta — restore refuses a checkpoint taken under different
// knobs with the same field-naming diagnostics as a partial merge), then
// one estimator frame (kind estimator) or one engine frame followed by one
// session frame per link in attach order (kind engine), then exactly one
// end frame cross-checking the frame count and packet total. A truncated
// or bit-flipped file is always detected, never silently restored; writes
// go through a temp file + atomic rename so a crash mid-checkpoint leaves
// the previous checkpoint intact.
#pragma once

#include <cstdint>
#include <filesystem>

#include "agg/partial_codec.hpp"
#include "engine/engine.hpp"
#include "live/windowed_estimator.hpp"

namespace fbm::ckpt {

inline constexpr std::uint32_t kCheckpointMagic = 0x434D4246;  // "FBMC"
/// Version 2: open windows carry exact flow sums instead of flow records,
/// and a classifier is its active flows (no table slots, no pending
/// completed flows) plus counters. Version 1 is refused.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// What kind of live run the checkpoint snapshots.
enum class CheckpointKind : std::uint32_t { estimator = 1, engine = 2 };

/// A fully parsed, checksum-verified checkpoint. Exactly one of
/// `estimator` / `engine` is meaningful, per `kind`.
struct Checkpoint {
  CheckpointKind kind = CheckpointKind::estimator;
  /// The producing run's config identity (agg::check_compatible validates
  /// it against the resuming run's config before restore).
  agg::PartialMeta meta;
  live::EstimatorState estimator;
  engine::EngineState engine;

  /// Packets the checkpointed run had consumed — the resuming reader skips
  /// exactly this many before pushing again.
  [[nodiscard]] std::uint64_t packets_consumed() const {
    return kind == CheckpointKind::estimator ? estimator.counters.packets
                                             : engine.summary.packets;
  }

  /// Reports the checkpointed run had already emitted (the resume banner;
  /// CI keeps the first N lines of the killed run and appends the rest).
  [[nodiscard]] std::uint64_t reports_emitted() const {
    if (kind == CheckpointKind::estimator) return estimator.counters.windows;
    std::uint64_t n = 0;
    for (const auto& s : engine.sessions) n += s.counters.reports;
    return n;
  }
};

/// Serializes a single-estimator snapshot. Writes to `path + ".tmp"` and
/// atomically renames, so the previous checkpoint survives a crash mid-write.
/// Throws std::runtime_error on I/O failure.
void write_checkpoint(const std::filesystem::path& path,
                      const agg::PartialMeta& meta,
                      const live::EstimatorState& state);

/// Serializes an engine snapshot (meta.engine must describe the link set).
void write_checkpoint(const std::filesystem::path& path,
                      const agg::PartialMeta& meta,
                      const engine::EngineState& state);

/// Parses and verifies one checkpoint file. Throws std::runtime_error with
/// a one-line diagnostic naming the file for every defect: unreadable, bad
/// magic, future version, truncated frame, checksum mismatch, malformed
/// payload, missing end frame, frame-order violation, or trailing garbage.
[[nodiscard]] Checkpoint read_checkpoint(const std::filesystem::path& path);

}  // namespace fbm::ckpt
