// agg::Merger — fold partial reports, fit once.
//
// Any number of PartialReport files — written by shard processes of one
// host, or by collectors at many POPs — fold window-by-window, link-by-link:
// exact flow sums add, exact byte bins add, trace totals add. After the
// final fold the merger runs the exact same fitting code the producing tool
// would have run locally (api::finalize_interval per batch interval;
// live::fit_window_report per sliding window, forecaster and monitor
// replayed in window order), then renders the standard output document.
//
// Because every folded quantity is an exact sum (flow::FlowSums, integral
// byte bins), the result is bit-for-bit identical to a single-machine run
// over the union of the producers' packets, in any file or fold order — the
// property tests/agg/test_aggregate_differential.cpp pins for key-sharded
// producers.
// One caveat: a *streaming* multi-link run interleaves its JSONL lines by
// packet arrival, so engine-live merges guarantee byte-identical per-link
// subsequences and the same line set, emitted in the canonical
// (window index, attach order) interleave; every other mode (batch
// single-link, batch engine, live single-link) is byte-identical outright.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "agg/partial_codec.hpp"

namespace fbm::agg {

/// A finished merge, rendered exactly as the producing tool would have:
/// one JSON document for batch runs (fbm_analyze --json shape, engine shape
/// when the producers ran multi-link), one JSONL line per window for live
/// runs (fbm_live --json shape), in window order — engine-mode lines
/// ordered by (window index, link attach order).
struct MergeResult {
  PartialKind kind = PartialKind::batch;
  bool engine = false;
  std::string document;            ///< batch modes
  std::vector<std::string> lines;  ///< live modes
  std::uint64_t files = 0;    ///< partial files folded
  std::uint64_t windows = 0;  ///< windows fitted (post-merge, all links)
  trace::TraceSummary summary;
};

class Merger {
 public:
  /// Reads, verifies and folds one partial file. Throws std::runtime_error
  /// (diagnostic names the file) when the file is unreadable, corrupt,
  /// truncated, or incompatible with the files already folded, and when
  /// add() refuses it.
  void add_file(const std::filesystem::path& path);

  /// Folds an already-parsed file (the in-memory path used by tests).
  /// Throws std::runtime_error naming the field, before folding anything,
  /// when the file's config fails the validation its producing tool runs
  /// (api::validate_config or LiveConfig::validate, and a finite fixed or
  /// fallback shot b >= 0), when a link's window indices do not run
  /// 0..n-1 once each, or when a window's bin grid (grid_start, grid_end,
  /// grid_delta) is not the one the config implies for its index.
  void add(PartialFile&& file);

  [[nodiscard]] std::uint64_t files() const { return files_; }

  /// Fits everything and renders. Throws std::runtime_error when no file
  /// was added or the merged partials contain no packets.
  [[nodiscard]] MergeResult finish();

 private:
  /// Merged raw material of one (link, window) cell.
  using WindowMap = std::map<std::int64_t, api::WindowPartial>;

  PartialMeta meta_;
  std::map<std::uint32_t, WindowMap> by_link_;
  std::map<std::uint32_t, LinkTotals> link_totals_;
  trace::TraceSummary summary_;
  std::uint64_t files_ = 0;
};

}  // namespace fbm::agg
