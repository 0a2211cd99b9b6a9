// Exact, order-free floating-point summation (fbm::core).
//
// Every finite double is a 53-bit integer times a power of two, so the sum
// of any set of doubles is one long fixed-point integer. ExactSum holds that
// integer as a small superaccumulator in the style of Neal ("Fast exact
// summation using small and large superaccumulators", arXiv:1505.05571):
// 32-bit digits, each in its own int64 cell, spanning the whole double
// exponent range plus 64 guard bits below it and 64 carry bits above it.
//
//  - add() splits the addend's mantissa over the (at most three) cells it
//    overlaps. No carry moves, so an add costs a few integer operations.
//  - Carries are resolved lazily: before any cell could overflow, and on a
//    copy whenever the value is read.
//  - The cells therefore always hold the exact sum. Every result — value(),
//    quotient(), the canonical cells — depends only on the multiset of
//    addends, never on the order of the adds and merges that built it.
//  - Reading rounds once, to nearest with ties to even.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace fbm::core {

class ExactSum {
 public:
  /// 32-bit digits from 2^-1138 (64 guard bits below the smallest
  /// subnormal) up past 2^1087 (64 carry bits above the largest double).
  static constexpr std::size_t kCells = 70;
  using Cells = std::array<std::int64_t, kCells>;

  /// Adds `x` exactly. Throws std::invalid_argument for inf or NaN.
  void add(double x);

  /// Adds another sum exactly (the merge of two partial sums).
  void merge(const ExactSum& other);

  /// The exact integer `v`, as a sum.
  [[nodiscard]] static ExactSum of_integer(unsigned __int128 v);

  /// The sum, correctly rounded.
  [[nodiscard]] double value() const;

  /// The sum divided by d, correctly rounded (one rounding for the whole
  /// quotient). Throws std::invalid_argument for d == 0.
  [[nodiscard]] double quotient(std::uint64_t d) const;

  /// Canonical form: the cells with every carry resolved, so all but the
  /// last lie in [0, 2^32) and the last carries the sign. Equal sums give
  /// equal cells, which is what the codecs store.
  [[nodiscard]] Cells canonical_cells() const;

  /// Rebuilds a sum from canonical_cells(). Throws std::invalid_argument
  /// for cells outside the canonical ranges (|last| < 2^32 too).
  [[nodiscard]] static ExactSum from_canonical(const Cells& cells);

  friend bool operator==(const ExactSum& a, const ExactSum& b) {
    return a.canonical_cells() == b.canonical_cells();
  }

 private:
  /// Adds (or subtracts) m * 2^pos in digit units (bit 0 = 2^-1138).
  void add_bits(int pos, std::uint64_t m, bool negative);
  /// Resolves every carry (see canonical_cells).
  static void normalize(Cells& cells);

  /// Adds and merges since the last normalize, plus one. Every cell
  /// stays below (pending_ + 1) * 2^32 in magnitude, so normalizing at
  /// 2^29 keeps every cell far inside int64 even across a merge.
  static constexpr std::uint32_t kMaxPending = 1u << 29;

  Cells cells_{};
  std::uint32_t pending_ = 0;
};

}  // namespace fbm::core
