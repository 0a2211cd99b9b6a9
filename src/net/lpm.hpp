// Longest-prefix-match routing table (16-8-8 multibit stride table).
//
// Section VI-A proposes defining flows by "routable" prefixes — the entries
// of the router's forwarding table — instead of fixed /24s, so that flow
// state shrinks further and flow statistics can be combined with routing
// information. RoutingTable provides the longest-prefix-match lookup that
// such a flow definition needs; flow/classifier.hpp's RoutableKey uses it,
// and engine::Engine routes every packet of a multi-link stream with it.
//
// Layout (controlled prefix expansion, Srinivasan & Varghese 1999): the top
// 16 address bits index a 65,536-slot first level; a /16 that holds a
// longer prefix points to a 256-slot chunk indexed by bits 8..15, and a /24
// that holds a prefix longer than /24 points to a third-level chunk indexed
// by the last byte. A prefix is expanded into every slot of its level that
// it covers, and each slot records the route id and length of the longest
// entry covering it (a chunk's slots start as copies of their parent
// slot's), so a lookup is at most three dependent loads.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/ip.hpp"

namespace fbm::net {

class RoutingTable {
 public:
  /// Inserts or replaces the entry for `prefix`. Returns the previous route
  /// id if the exact prefix was already present.
  std::optional<std::uint32_t> insert(const Prefix& prefix,
                                      std::uint32_t route_id);

  /// Longest-prefix match; nullopt when no entry covers the address (no
  /// default route unless one was inserted as /0).
  [[nodiscard]] std::optional<std::uint32_t> lookup(Ipv4Address addr) const {
    const Slot* s = find(addr.value());
    return s ? std::optional(s->route) : std::nullopt;
  }

  /// The matching prefix itself (for flow keying).
  [[nodiscard]] std::optional<Prefix> lookup_prefix(Ipv4Address addr) const {
    const Slot* s = find(addr.value());
    return s ? std::optional(Prefix(addr, s->len)) : std::nullopt;
  }

  /// Removes the exact prefix; returns false if absent. The slots it owned
  /// fall back to the longest remaining entry that covers it, and a chunk
  /// left holding nothing its parent slot does not is released, so
  /// attach/detach cycles do not grow the table.
  bool erase(const Prefix& prefix);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Second- and third-level chunks in use, for bounding growth in tests:
  /// at most one per /16 and one per /24 that holds a longer entry.
  [[nodiscard]] std::size_t chunk_count() const {
    return parents_[1].size() + parents_[2].size();
  }

  /// All installed entries in ascending (network, length) order.
  struct Entry {
    Prefix prefix;
    std::uint32_t route_id;
  };
  [[nodiscard]] std::vector<Entry> entries() const;

 private:
  static constexpr std::size_t kChunkSlots = 256;
  static constexpr std::uint32_t kNoChild = (1u << 26) - 1;
  static constexpr std::uint32_t kNoOwner = 63;

  /// The longest entry covering the slot's addresses (route id and prefix
  /// length; len == kNoOwner when none does) and the chunk one level down,
  /// if any. On a slot with a child, route and len are what the child's
  /// slots fall back to.
  struct Slot {
    std::uint32_t route = 0;
    std::uint32_t child : 26 = kNoChild;
    std::uint32_t len : 6 = kNoOwner;
  };

  [[nodiscard]] const Slot* find(std::uint32_t a) const {
    if (levels_[0].empty()) return nullptr;
    const Slot* s = &levels_[0][a >> 16];
    if (s->child != kNoChild) {
      s = &levels_[1][s->child * kChunkSlots + ((a >> 8) & 0xff)];
      if (s->child != kNoChild) {
        s = &levels_[2][s->child * kChunkSlots + (a & 0xff)];
      }
    }
    return s->len == kNoOwner ? nullptr : s;
  }

  /// Gives `owner` (route id and length) every slot in `prefix`'s range,
  /// chunks below them included, that no entry longer than `prefix` owns.
  void paint(const Prefix& prefix, Slot owner);
  void paint_slot(int level, std::size_t slot, std::uint32_t max_len,
                  Slot owner);
  /// The chunk under levels_[level][slot], created from that slot's owner
  /// if absent.
  std::uint32_t child_of(int level, std::size_t slot);
  /// Releases the chunk under levels_[level][slot] if every slot in it only
  /// repeats its parent.
  void release_if_redundant(int level, std::size_t slot);

  /// Source of truth for insert/erase/entries: (network, length) -> route.
  std::map<std::pair<std::uint32_t, int>, std::uint32_t> entries_;
  /// levels_[0] has 2^16 slots, allocated at the first insert; levels_[1]
  /// and levels_[2] hold chunks of kChunkSlots back to back.
  std::array<std::vector<Slot>, 3> levels_;
  /// parents_[k][c]: the levels_[k - 1] slot that chunk c of level k hangs
  /// off, so a chunk can be moved.
  std::array<std::vector<std::uint32_t>, 3> parents_;
};

/// Builds a synthetic backbone forwarding table: `n` prefixes with lengths
/// drawn from the given histogram-like weights for /8, /16, /24 (roughly the
/// 2001 BGP table mix). Deterministic for a given seed.
[[nodiscard]] RoutingTable make_synthetic_fib(std::size_t n,
                                              std::uint64_t seed,
                                              double w8 = 0.05,
                                              double w16 = 0.45,
                                              double w24 = 0.50);

}  // namespace fbm::net
