#include "net/lpm.hpp"

#include <algorithm>
#include <random>

namespace fbm::net {

namespace {

[[nodiscard]] std::pair<std::uint32_t, int> key(const Prefix& prefix) {
  return {prefix.network().value(), prefix.length()};
}

}  // namespace

std::optional<std::uint32_t> RoutingTable::insert(const Prefix& prefix,
                                                  std::uint32_t route_id) {
  std::optional<std::uint32_t> previous;
  const auto [it, added] = entries_.try_emplace(key(prefix), route_id);
  if (!added) previous = std::exchange(it->second, route_id);
  paint(prefix, Slot{route_id, kNoChild,
                     static_cast<std::uint32_t>(prefix.length())});
  return previous;
}

bool RoutingTable::erase(const Prefix& prefix) {
  if (entries_.erase(key(prefix)) == 0) return false;
  // The erased prefix's slots fall back to its longest remaining cover.
  Slot cover;
  for (int len = prefix.length() - 1; len >= 0; --len) {
    const auto it = entries_.find(key(Prefix(prefix.network(), len)));
    if (it != entries_.end()) {
      cover.route = it->second;
      cover.len = static_cast<std::uint32_t>(len);
      break;
    }
  }
  paint(prefix, cover);
  // Only the chunks on the erased prefix's own path can have lost their
  // last longer entry.
  const std::uint32_t net = prefix.network().value();
  const std::size_t top = net >> 16;
  if (prefix.length() > 24) {
    release_if_redundant(
        1, levels_[0][top].child * kChunkSlots + ((net >> 8) & 0xff));
  }
  if (prefix.length() > 16) release_if_redundant(0, top);
  return true;
}

void RoutingTable::paint(const Prefix& prefix, Slot owner) {
  static constexpr int kLevelEnd[] = {16, 24, 32};  // longest length held
  const std::uint32_t net = prefix.network().value();
  const int len = prefix.length();
  const auto slot_in = [net](int level) -> std::size_t {
    return level == 0 ? net >> 16 : (net >> (32 - kLevelEnd[level])) & 0xff;
  };
  if (levels_[0].empty()) levels_[0].resize(std::size_t{1} << 16);
  // Descend to the level that holds `len`, creating chunks on the way; the
  // prefix expands into 2^(level end - len) consecutive slots there.
  int level = 0;
  std::size_t first = slot_in(0);
  for (; len > kLevelEnd[level]; ++level) {
    first = child_of(level, first) * kChunkSlots + slot_in(level + 1);
  }
  const std::size_t count = std::size_t{1} << (kLevelEnd[level] - len);
  for (std::size_t k = 0; k < count; ++k) {
    paint_slot(level, first + k, static_cast<std::uint32_t>(len), owner);
  }
}

void RoutingTable::paint_slot(int level, std::size_t slot,
                              std::uint32_t max_len, Slot owner) {
  Slot& s = levels_[level][slot];
  if (s.len != kNoOwner && s.len > max_len) return;  // a longer entry owns it
  s.route = owner.route;
  s.len = owner.len;
  if (s.child == kNoChild) return;
  const std::size_t base = s.child * kChunkSlots;
  for (std::size_t k = 0; k < kChunkSlots; ++k) {
    paint_slot(level + 1, base + k, max_len, owner);
  }
}

std::uint32_t RoutingTable::child_of(int level, std::size_t slot) {
  Slot& parent = levels_[level][slot];
  if (parent.child != kNoChild) return parent.child;
  std::vector<std::uint32_t>& parents = parents_[level + 1];
  const auto c = static_cast<std::uint32_t>(parents.size());
  levels_[level + 1].resize(levels_[level + 1].size() + kChunkSlots,
                            Slot{parent.route, kNoChild, parent.len});
  parents.push_back(static_cast<std::uint32_t>(slot));
  parent.child = c;
  return c;
}

void RoutingTable::release_if_redundant(int level, std::size_t slot) {
  Slot& parent = levels_[level][slot];
  std::vector<Slot>& chunks = levels_[level + 1];
  std::vector<std::uint32_t>& parents = parents_[level + 1];
  const std::uint32_t c = parent.child;
  for (std::size_t k = 0; k < kChunkSlots; ++k) {
    const Slot& s = chunks[c * kChunkSlots + k];
    if (s.child != kNoChild || s.route != parent.route ||
        s.len != parent.len) {
      return;
    }
  }
  parent.child = kNoChild;
  // Move the last chunk into the hole, so storage stays dense.
  const auto last = static_cast<std::uint32_t>(parents.size() - 1);
  if (c != last) {
    std::copy_n(&chunks[last * kChunkSlots], kChunkSlots,
                &chunks[c * kChunkSlots]);
    parents[c] = parents[last];
    levels_[level][parents[c]].child = c;
    if (level == 0) {  // the moved chunk's own chunks hang off new slots
      for (std::size_t k = 0; k < kChunkSlots; ++k) {
        const Slot& s = chunks[c * kChunkSlots + k];
        if (s.child != kNoChild) {
          parents_[2][s.child] =
              static_cast<std::uint32_t>(c * kChunkSlots + k);
        }
      }
    }
  }
  chunks.resize(std::size_t{last} * kChunkSlots);
  parents.pop_back();
}

std::vector<RoutingTable::Entry> RoutingTable::entries() const {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const auto& [k, route_id] : entries_) {
    out.push_back({Prefix(Ipv4Address{k.first}, k.second), route_id});
  }
  return out;
}

RoutingTable make_synthetic_fib(std::size_t n, std::uint64_t seed, double w8,
                                double w16, double w24) {
  std::mt19937_64 rng(seed);
  std::discrete_distribution<int> pick({w8, w16, w24});
  std::uniform_int_distribution<std::uint32_t> dist32;
  RoutingTable table;
  std::uint32_t route_id = 0;
  while (table.size() < n) {
    const std::uint32_t addr = dist32(rng);
    int len = 24;
    switch (pick(rng)) {
      case 0: len = 8; break;
      case 1: len = 16; break;
      default: len = 24; break;
    }
    table.insert(Prefix(Ipv4Address{addr}, len), route_id++);
  }
  return table;
}

}  // namespace fbm::net
