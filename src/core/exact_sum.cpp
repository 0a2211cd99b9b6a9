#include "core/exact_sum.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace fbm::core {

namespace {

using u128 = unsigned __int128;
using Digits = std::array<std::uint32_t, ExactSum::kCells>;

constexpr int kBias = 1138;  ///< digit-space bit index of 2^0
constexpr int kMinLsb = 64;  ///< digit-space bit index of 2^-1074

[[nodiscard]] bool bit(const Digits& d, int i) {
  return ((d[static_cast<std::size_t>(i >> 5)] >> (i & 31)) & 1u) != 0;
}

/// Any set bit strictly below bit index i.
[[nodiscard]] bool any_below(const Digits& d, int i) {
  const auto whole = static_cast<std::size_t>(i >> 5);
  for (std::size_t c = 0; c < whole; ++c) {
    if (d[c] != 0) return true;
  }
  const int part = i & 31;
  return part != 0 && (d[whole] & ((1u << part) - 1u)) != 0;
}

/// Floor-divides the digits by `divisor` in place; true when a remainder
/// is left. Digits above the value's top are zero and divide to zero.
bool divide(Digits& d, std::uint64_t divisor) {
  std::size_t top = d.size();
  while (top > 0 && d[top - 1] == 0) --top;
  if (divisor <= 0xFFFFFFFF) {  // every partial dividend fits 64 bits
    std::uint64_t rem = 0;
    for (std::size_t i = top; i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | d[i];
      d[i] = static_cast<std::uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    return rem != 0;
  }
  u128 rem = 0;
  for (std::size_t i = top; i-- > 0;) {
    const u128 cur = (rem << 32) | d[i];
    d[i] = static_cast<std::uint32_t>(cur / divisor);
    rem = cur % divisor;
  }
  return rem != 0;
}

/// Rounds digits (plus a positive fraction below digit 0 when `sticky`) to
/// the nearest double, ties to even — one rounding, subnormals included.
[[nodiscard]] double round_digits(const Digits& d, bool sticky,
                                  bool negative) {
  std::size_t top = d.size();
  while (top > 0 && d[top - 1] == 0) --top;
  if (top == 0) return 0.0;  // a sticky fraction below 2^-1138 rounds to 0
  const int p = static_cast<int>(top) * 32 - 1 - std::countl_zero(d[top - 1]);
  const int lsb = std::max(p - 52, kMinLsb);
  std::uint64_t m = 0;
  for (int i = p; i >= lsb; --i) m = (m << 1) | (bit(d, i) ? 1u : 0u);
  if (bit(d, lsb - 1) && (sticky || any_below(d, lsb - 1) || (m & 1u) != 0)) {
    ++m;
  }
  const double r = std::ldexp(static_cast<double>(m), lsb - kBias);
  return negative ? -r : r;
}

}  // namespace

void ExactSum::add(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto e = static_cast<int>((bits >> 52) & 0x7FF);
  if (e == 0x7FF) {
    throw std::invalid_argument("ExactSum: non-finite addend");
  }
  std::uint64_t m = bits & ((std::uint64_t{1} << 52) - 1);
  if (e != 0) m |= std::uint64_t{1} << 52;
  // The mantissa's last bit weighs 2^(e - 1075), 2^-1074 for subnormals.
  add_bits(e == 0 ? kMinLsb : e - 1075 + kBias, m, (bits >> 63) != 0);
}

void ExactSum::add_bits(int pos, std::uint64_t m, bool negative) {
  const auto cell = static_cast<std::size_t>(pos >> 5);
  const u128 wide = static_cast<u128>(m) << (pos & 31);
  const auto lo = static_cast<std::int64_t>(static_cast<std::uint32_t>(wide));
  const auto mid =
      static_cast<std::int64_t>(static_cast<std::uint32_t>(wide >> 32));
  const auto hi = static_cast<std::int64_t>(wide >> 64);
  if (negative) {
    cells_[cell] -= lo;
    cells_[cell + 1] -= mid;
    cells_[cell + 2] -= hi;
  } else {
    cells_[cell] += lo;
    cells_[cell + 1] += mid;
    cells_[cell + 2] += hi;
  }
  if (++pending_ >= kMaxPending) {
    normalize(cells_);
    pending_ = 0;
  }
}

void ExactSum::merge(const ExactSum& other) {
  for (std::size_t i = 0; i < kCells; ++i) cells_[i] += other.cells_[i];
  pending_ += other.pending_ + 1;
  if (pending_ >= kMaxPending) {
    normalize(cells_);
    pending_ = 0;
  }
}

ExactSum ExactSum::of_integer(unsigned __int128 v) {
  ExactSum s;
  for (int k = 0; k < 4; ++k) {
    s.add_bits(kBias + 32 * k, static_cast<std::uint32_t>(v >> (32 * k)),
               false);
  }
  return s;
}

void ExactSum::normalize(Cells& cells) {
  for (std::size_t i = 0; i + 1 < kCells; ++i) {
    const std::int64_t carry = cells[i] >> 32;  // floor(cell / 2^32)
    cells[i] &= 0xFFFFFFFF;
    cells[i + 1] += carry;
  }
}

ExactSum::Cells ExactSum::canonical_cells() const {
  Cells cells = cells_;
  normalize(cells);
  return cells;
}

ExactSum ExactSum::from_canonical(const Cells& cells) {
  for (std::size_t i = 0; i + 1 < kCells; ++i) {
    if (cells[i] < 0 || cells[i] > 0xFFFFFFFF) {
      throw std::invalid_argument("ExactSum: non-canonical cell");
    }
  }
  if (cells[kCells - 1] <= -0x100000000 || cells[kCells - 1] >= 0x100000000) {
    throw std::invalid_argument("ExactSum: non-canonical cell");
  }
  ExactSum s;
  s.cells_ = cells;
  return s;
}

double ExactSum::value() const { return quotient(1); }

double ExactSum::quotient(std::uint64_t d) const {
  if (d == 0) throw std::invalid_argument("ExactSum: division by zero");
  Cells c = canonical_cells();
  const bool negative = c.back() < 0;
  if (negative) {  // |sum|: negate, then the top cell resolves to >= 0
    for (auto& v : c) v = -v;
    normalize(c);
  }
  Digits digits{};
  for (std::size_t i = 0; i < kCells; ++i) {
    digits[i] = static_cast<std::uint32_t>(c[i]);
  }
  const bool sticky = d != 1 && divide(digits, d);
  return round_digits(digits, sticky, negative);
}

}  // namespace fbm::core
