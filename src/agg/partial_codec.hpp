// PartialReport codec (fbm::agg) — sufficient statistics on the wire.
//
// The paper's three model inputs and the exact Delta rate bins are additive:
// a fit over the union of two packet sets is a pure function of the summed
// flow sums (flow::FlowSums, exact in any order) and the summed byte bins.
// That makes the fit deferrable — K shard processes (or M remote POPs) can
// each classify their own key-disjoint slice of the traffic, serialize the
// raw pre-fit material per analysis window, and a later fbm_aggregate run
// folds the partials and fits once, reproducing a single-machine run bit
// for bit (see agg::Merger).
//
// File layout (all little-endian, like trace/trace_format.hpp):
//
//   header  : u32 magic "FBMP" | u32 version | u64 reserved
//   frames  : u32 type | u32 reserved | u64 payload_len
//             | payload | u64 fnv1a64(payload)
//
// Exactly one meta frame (first), then any number of window frames, then
// exactly one end frame. The end frame carries the window-frame count and
// the producer's trace totals, so a truncated file — no end frame, or a
// frame cut mid-payload — is always detected, never silently merged. Every
// payload is checksummed; a flipped bit fails loudly. Bins travel as exact
// integral byte counts (never derived bits/s) and flow sums in their exact
// canonical form, so the merged material is indistinguishable from locally
// accumulated state.
//
// A window frame's payload is the window (see encode_window):
//
//   u32 link id | u32 reserved | i64 index | u64 packets | u64 bytes
//   | u64 discards | f64 grid start | f64 grid end | f64 grid delta
//   | u64 dropped | f64 total bytes | u64 bin count | f64 bins[count]
//   | u64 flows | u64 continued | u64 sum S | u128 sum S^2
//   | 4 x (u32 cells[69] | i64 top cell)    sums of S^2/D, D, D^2, S/D
//
// Its size depends on the bin grid only, never on the flow count.
// Version 1 files (which shipped every flow record) are refused.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "core/framed_file.hpp"
#include "live/live_config.hpp"
#include "live/windowed_estimator.hpp"
#include "trace/trace_stats.hpp"

namespace fbm::agg {

inline constexpr std::uint32_t kPartialMagic = 0x504D4246;  // "FBMP"
inline constexpr std::uint32_t kPartialVersion = 2;

/// What kind of run produced the file: batch analysis intervals (tiling
/// windows, fitted by api::finalize_interval) or live sliding windows
/// (fitted by live::fit_window_report). live::WindowedEstimator produces
/// both.
enum class PartialKind : std::uint32_t { batch = 1, live = 2 };

/// One link declared by an engine-mode producer (attach order preserved).
struct LinkDecl {
  std::uint32_t id = 0;
  std::string name;
};

/// The producing run's identity: every result-affecting knob. Two partial
/// files fold only if their metas agree exactly (throughput knobs — threads,
/// batching, reserves — are deliberately absent: serial and sharded
/// producers yield identical partials and must merge).
struct PartialMeta {
  PartialKind kind = PartialKind::batch;
  api::FlowDefinition flow_def = api::FlowDefinition::five_tuple;

  // Shared analysis knobs (api::AnalysisConfig).
  double timeout_s = 60.0;
  double interval_s = 60.0;  ///< batch analysis interval (ignored for live)
  double delta_s = 0.2;
  double eps = 0.01;
  std::uint64_t min_flows = 0;  ///< applied once, after the final fold
  double fixed_b = -1.0;        ///< < 0 means "fit per interval"
  double fallback_b = 1.0;

  // Live knobs (live::LiveConfig); zero-initialized for batch files.
  double window_s = 0.0;
  double stride_s = 0.0;
  std::uint64_t forecast_max_order = 0;
  std::uint64_t forecast_history = 0;
  double band_k_sigma = 0.0;
  std::uint64_t alert_min_consecutive = 0;
  double bin_k_sigma = 0.0;
  std::uint64_t bin_min_consecutive = 0;

  /// Engine mode: the producer's attached links, in attach order. Empty
  /// means a single-link run (window frames then carry link id 0).
  bool engine = false;
  std::vector<LinkDecl> links;

  [[nodiscard]] static PartialMeta from_batch(const api::AnalysisConfig& cfg);
  [[nodiscard]] static PartialMeta from_live(const live::LiveConfig& cfg);

  /// Rebuilds the configs the merger fits with.
  [[nodiscard]] api::AnalysisConfig analysis_config() const;
  [[nodiscard]] live::LiveConfig live_config() const;
};

/// Throws std::runtime_error naming the first mismatching field when two
/// metas cannot fold (different kind, flow definition, knob, or link set).
void check_compatible(const PartialMeta& a, const PartialMeta& b);

/// Serializes / parses a PartialMeta as a frame payload. Shared with the
/// checkpoint codec (ckpt::), which reuses the meta frame as its config
/// identity so restore can refuse a checkpoint taken under different knobs
/// with the same field-naming diagnostics as a partial merge.
void encode_meta(core::ByteBuffer& out, const PartialMeta& m);
[[nodiscard]] PartialMeta decode_meta(core::ByteCursor& c);

/// Serializes / parses one window's pre-fit material (everything after the
/// link id in a window frame). Shared with the checkpoint codec, which
/// stores each open window the same way.
void encode_window(core::ByteBuffer& out, const api::WindowPartial& w);
[[nodiscard]] api::WindowPartial decode_window(core::ByteCursor& c);

/// Per-link packet/byte totals of an engine-mode producer (for the merged
/// "packets routed" counters; summed across files).
struct LinkTotals {
  std::uint32_t id = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

/// Producer totals, carried by the end frame. Summaries sum exactly across
/// key-disjoint or tap-disjoint producers (u64 sums, min/max timestamps).
struct PartialTotals {
  trace::TraceSummary summary;
  std::vector<LinkTotals> links;  ///< engine mode only
};

/// One serialized window: the raw pre-fit material of one analysis interval
/// (batch) or sliding window (live), tagged with its link.
struct PartialWindow {
  std::uint32_t link_id = 0;
  api::WindowPartial window;
};

/// A fully parsed, checksum-verified partial file.
struct PartialFile {
  PartialMeta meta;
  std::vector<PartialWindow> windows;
  PartialTotals totals;
};

/// Streaming writer: header + meta at construction, one frame per add(),
/// end frame at finish(). A file abandoned before finish() (crash, thrown
/// exception) has no end frame and is rejected by the reader — partials are
/// valid only once complete.
class PartialWriter {
 public:
  /// Throws std::runtime_error when the file cannot be opened.
  PartialWriter(const std::filesystem::path& path, PartialMeta meta);
  ~PartialWriter();
  PartialWriter(const PartialWriter&) = delete;
  PartialWriter& operator=(const PartialWriter&) = delete;

  /// Appends one window frame. Frames may arrive in any order across links
  /// and indices — the merger folds by (link, index), order-insensitively.
  void add(std::uint32_t link_id, const api::WindowPartial& window);

  /// Writes the end frame and flushes. Throws std::runtime_error on I/O
  /// failure. add() must not be called afterwards.
  void finish(const PartialTotals& totals);

  [[nodiscard]] std::uint64_t windows_written() const { return windows_; }

 private:
  core::FrameWriter out_;
  std::uint64_t windows_ = 0;
  bool finished_ = false;
};

/// Parses and verifies one partial file. Throws std::runtime_error with a
/// one-line diagnostic naming the file for every defect: unreadable, bad
/// magic, future version, truncated frame, missing end frame, checksum
/// mismatch, malformed payload, or trailing garbage.
[[nodiscard]] PartialFile read_partial_file(
    const std::filesystem::path& path);

}  // namespace fbm::agg
