#include "net/lpm.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "stats/rng.hpp"

namespace fbm::net {
namespace {

Prefix pfx(const char* addr, int len) {
  return Prefix(*Ipv4Address::parse(addr), len);
}

TEST(RoutingTable, EmptyTableMatchesNothing) {
  RoutingTable t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.lookup(Ipv4Address(1, 2, 3, 4)).has_value());
}

TEST(RoutingTable, ExactAndLongestMatch) {
  RoutingTable t;
  t.insert(pfx("10.0.0.0", 8), 1);
  t.insert(pfx("10.1.0.0", 16), 2);
  t.insert(pfx("10.1.2.0", 24), 3);
  EXPECT_EQ(t.lookup(Ipv4Address(10, 1, 2, 3)).value(), 3u);   // /24 wins
  EXPECT_EQ(t.lookup(Ipv4Address(10, 1, 9, 9)).value(), 2u);   // /16
  EXPECT_EQ(t.lookup(Ipv4Address(10, 9, 9, 9)).value(), 1u);   // /8
  EXPECT_FALSE(t.lookup(Ipv4Address(11, 0, 0, 1)).has_value());
}

TEST(RoutingTable, LookupPrefixReturnsMatchLength) {
  RoutingTable t;
  t.insert(pfx("10.0.0.0", 8), 1);
  t.insert(pfx("10.1.0.0", 16), 2);
  const auto p = t.lookup_prefix(Ipv4Address(10, 1, 2, 3));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 16);
  EXPECT_EQ(p->network().to_string(), "10.1.0.0");
}

TEST(RoutingTable, DefaultRoute) {
  RoutingTable t;
  t.insert(pfx("0.0.0.0", 0), 99);
  EXPECT_EQ(t.lookup(Ipv4Address(203, 0, 113, 1)).value(), 99u);
}

TEST(RoutingTable, InsertReplacesAndReportsPrevious) {
  RoutingTable t;
  EXPECT_FALSE(t.insert(pfx("10.0.0.0", 8), 1).has_value());
  const auto prev = t.insert(pfx("10.0.0.0", 8), 2);
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(Ipv4Address(10, 0, 0, 1)).value(), 2u);
}

TEST(RoutingTable, Erase) {
  RoutingTable t;
  t.insert(pfx("10.0.0.0", 8), 1);
  t.insert(pfx("10.1.0.0", 16), 2);
  EXPECT_TRUE(t.erase(pfx("10.1.0.0", 16)));
  EXPECT_FALSE(t.erase(pfx("10.1.0.0", 16)));  // already gone
  EXPECT_FALSE(t.erase(pfx("99.0.0.0", 8)));   // never present
  EXPECT_EQ(t.size(), 1u);
  // Falls back to the /8 after the more-specific is removed.
  EXPECT_EQ(t.lookup(Ipv4Address(10, 1, 0, 1)).value(), 1u);
}

TEST(RoutingTable, HostRoutes) {
  RoutingTable t;
  t.insert(pfx("192.0.2.1", 32), 7);
  EXPECT_EQ(t.lookup(Ipv4Address(192, 0, 2, 1)).value(), 7u);
  EXPECT_FALSE(t.lookup(Ipv4Address(192, 0, 2, 2)).has_value());
}

// The engine's multi-link demux rides on this table (src/engine/), so the
// edge cases below are load-bearing for link routing, not just flow keying.

TEST(RoutingTable, OverlapFallsThroughEveryLevel) {
  // /0 default under /8 under /24 under /32: each address lands on the
  // longest cover, and erasing a level re-exposes the next shorter one.
  RoutingTable t;
  t.insert(pfx("0.0.0.0", 0), 0);
  t.insert(pfx("10.0.0.0", 8), 8);
  t.insert(pfx("10.0.0.0", 24), 24);
  t.insert(pfx("10.0.0.80", 32), 32);
  EXPECT_EQ(t.lookup(Ipv4Address(10, 0, 0, 80)).value(), 32u);
  EXPECT_EQ(t.lookup(Ipv4Address(10, 0, 0, 81)).value(), 24u);
  EXPECT_EQ(t.lookup(Ipv4Address(10, 0, 1, 80)).value(), 8u);
  EXPECT_EQ(t.lookup(Ipv4Address(11, 0, 0, 80)).value(), 0u);
  EXPECT_TRUE(t.erase(pfx("10.0.0.80", 32)));
  EXPECT_EQ(t.lookup(Ipv4Address(10, 0, 0, 80)).value(), 24u);
  EXPECT_TRUE(t.erase(pfx("10.0.0.0", 24)));
  EXPECT_EQ(t.lookup(Ipv4Address(10, 0, 0, 80)).value(), 8u);
  EXPECT_TRUE(t.erase(pfx("10.0.0.0", 8)));
  EXPECT_EQ(t.lookup(Ipv4Address(10, 0, 0, 80)).value(), 0u);
}

TEST(RoutingTable, MissOnSiblingBranchDespiteDeepEntries) {
  // A populated table must still miss when only sibling branches are
  // installed — the walk passes through non-terminal interior nodes.
  RoutingTable t;
  t.insert(pfx("10.1.2.0", 24), 1);
  t.insert(pfx("10.1.3.0", 24), 2);
  EXPECT_FALSE(t.lookup(Ipv4Address(10, 1, 4, 1)).has_value());   // uncle
  EXPECT_FALSE(t.lookup(Ipv4Address(10, 2, 2, 1)).has_value());   // higher
  EXPECT_FALSE(t.lookup(Ipv4Address(192, 0, 2, 1)).has_value());  // far off
  EXPECT_EQ(t.lookup(Ipv4Address(10, 1, 2, 1)).value(), 1u);
}

TEST(RoutingTable, DefaultRouteReplaceAndErase) {
  RoutingTable t;
  t.insert(pfx("0.0.0.0", 0), 1);
  const auto prev = t.insert(pfx("0.0.0.0", 0), 2);  // replace, not add
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(Ipv4Address(203, 0, 113, 1)).value(), 2u);
  const auto p = t.lookup_prefix(Ipv4Address(203, 0, 113, 1));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 0);
  EXPECT_TRUE(t.erase(pfx("0.0.0.0", 0)));
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.lookup(Ipv4Address(203, 0, 113, 1)).has_value());
}

TEST(RoutingTable, AdjacentHostRoutesStayDistinct) {
  // /32 twins differing in the last bit: the deepest possible fork.
  RoutingTable t;
  t.insert(pfx("192.0.2.6", 32), 6);
  t.insert(pfx("192.0.2.7", 32), 7);
  EXPECT_EQ(t.lookup(Ipv4Address(192, 0, 2, 6)).value(), 6u);
  EXPECT_EQ(t.lookup(Ipv4Address(192, 0, 2, 7)).value(), 7u);
  const auto p = t.lookup_prefix(Ipv4Address(192, 0, 2, 7));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "192.0.2.7/32");
  EXPECT_TRUE(t.erase(pfx("192.0.2.7", 32)));
  EXPECT_FALSE(t.lookup(Ipv4Address(192, 0, 2, 7)).has_value());
  EXPECT_EQ(t.lookup(Ipv4Address(192, 0, 2, 6)).value(), 6u);
}

TEST(RoutingTable, NonCanonicalPrefixCanonicalizes) {
  // Host bits below the mask are zeroed at construction, so insert, lookup
  // and erase all agree on the canonical entry.
  RoutingTable t;
  t.insert(pfx("10.1.2.3", 16), 1);
  EXPECT_EQ(t.lookup(Ipv4Address(10, 1, 200, 200)).value(), 1u);
  const auto p = t.lookup_prefix(Ipv4Address(10, 1, 0, 1));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "10.1.0.0/16");
  EXPECT_TRUE(t.erase(pfx("10.1.99.99", 16)));
  EXPECT_TRUE(t.empty());
}

TEST(RoutingTable, EntriesRoundTrip) {
  RoutingTable t;
  t.insert(pfx("10.0.0.0", 8), 1);
  t.insert(pfx("172.16.0.0", 16), 2);
  t.insert(pfx("192.168.1.0", 24), 3);
  const auto entries = t.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].prefix.to_string(), "10.0.0.0/8");
  EXPECT_EQ(entries[1].prefix.to_string(), "172.16.0.0/16");
  EXPECT_EQ(entries[2].prefix.to_string(), "192.168.1.0/24");
  EXPECT_EQ(entries[2].route_id, 3u);
}

/// Brute-force longest match over an entry list: the oracle every lookup
/// is checked against.
std::optional<RoutingTable::Entry> linear_scan(
    const std::vector<RoutingTable::Entry>& entries, Ipv4Address addr) {
  std::optional<RoutingTable::Entry> best;
  for (const auto& e : entries) {
    if (e.prefix.contains(addr) &&
        (!best || e.prefix.length() > best->prefix.length())) {
      best = e;
    }
  }
  return best;
}

void expect_agrees_with_linear_scan(
    const RoutingTable& t, const std::vector<RoutingTable::Entry>& entries,
    Ipv4Address addr) {
  const auto want = linear_scan(entries, addr);
  const auto prefix = t.lookup_prefix(addr);
  if (!want) {
    EXPECT_FALSE(t.lookup(addr).has_value()) << addr.to_string();
    EXPECT_FALSE(prefix.has_value()) << addr.to_string();
    return;
  }
  EXPECT_EQ(t.lookup(addr), want->route_id) << addr.to_string();
  EXPECT_EQ(prefix, want->prefix) << addr.to_string();
}

/// Second- and third-level chunks a 16-8-8 table needs for `entries`: one
/// per /16 holding an entry longer than /16, one per /24 holding an entry
/// longer than /24.
std::size_t chunks_needed(const std::vector<RoutingTable::Entry>& entries) {
  std::set<std::uint32_t> l2;
  std::set<std::uint32_t> l3;
  for (const auto& e : entries) {
    const std::uint32_t net = e.prefix.network().value();
    if (e.prefix.length() > 16) l2.insert(net >> 16);
    if (e.prefix.length() > 24) l3.insert(net >> 8);
  }
  return l2.size() + l3.size();
}

TEST(RoutingTable, AgreesWithLinearScanOnRandomWorkload) {
  // Property test: interleaved inserts, replaces and erases of every length
  // from /0 to /32 (the stride edges /16, /17, /24 and /25 most often),
  // checked after every step against a linear scan over the oracle's entry
  // list: lookup, lookup_prefix, entries() and the chunk count.
  stats::Rng rng(404);
  RoutingTable t;
  std::map<std::pair<std::uint32_t, int>, std::uint32_t> oracle;
  std::vector<Prefix> present;
  const auto random_addr = [&] {
    // Mostly inside 10.0.0.0/14 so that prefixes of different strides
    // overlap, sometimes anywhere.
    const auto bits = static_cast<std::uint32_t>(rng.uniform_int(0, ~0u));
    return Ipv4Address{rng.uniform() < 0.8 ? (10u << 24) | (bits >> 14)
                                           : bits};
  };
  const auto random_len = [&] {
    static constexpr int kEdges[] = {16, 17, 24, 25};
    return rng.uniform() < 0.4 ? kEdges[rng.uniform_int(0, 3)]
                               : static_cast<int>(rng.uniform_int(0, 32));
  };
  std::uint32_t next_route = 0;
  for (int step = 0; step < 3000; ++step) {
    const double op = rng.uniform();
    if (op < 0.35 && !present.empty()) {  // erase
      const std::size_t i = rng.uniform_int(0, present.size() - 1);
      const Prefix p = present[i];
      present.erase(present.begin() + static_cast<std::ptrdiff_t>(i));
      oracle.erase({p.network().value(), p.length()});
      ASSERT_TRUE(t.erase(p)) << p.to_string();
      ASSERT_FALSE(t.erase(p)) << p.to_string();
    } else if (op < 0.45 && !present.empty()) {  // replace
      const Prefix p = present[rng.uniform_int(0, present.size() - 1)];
      auto& route = oracle[{p.network().value(), p.length()}];
      const auto previous = t.insert(p, next_route);
      ASSERT_EQ(previous, route) << p.to_string();
      route = next_route++;
    } else {  // insert
      const Prefix p(random_addr(), random_len());
      const auto [it, added] =
          oracle.try_emplace({p.network().value(), p.length()}, next_route);
      const auto previous = t.insert(p, next_route);
      if (added) {
        ASSERT_FALSE(previous.has_value()) << p.to_string();
        present.push_back(p);
      } else {
        ASSERT_EQ(previous, it->second) << p.to_string();
        it->second = next_route;
      }
      ++next_route;
    }

    const auto entries = t.entries();
    ASSERT_EQ(entries.size(), oracle.size());
    ASSERT_EQ(t.size(), oracle.size());
    auto o = oracle.begin();
    for (const auto& e : entries) {
      ASSERT_EQ(e.prefix.network().value(), o->first.first);
      ASSERT_EQ(e.prefix.length(), o->first.second);
      ASSERT_EQ(e.route_id, o->second);
      ++o;
    }
    ASSERT_EQ(t.chunk_count(), chunks_needed(entries));
    // Probe random addresses plus each entry's first and last address and
    // their outside neighbours, where an expansion off by one would show.
    for (int k = 0; k < 16; ++k) {
      expect_agrees_with_linear_scan(t, entries, random_addr());
    }
    for (std::size_t k = 0; k < 4 && !present.empty(); ++k) {
      const Prefix& p = present[rng.uniform_int(0, present.size() - 1)];
      const std::uint32_t first = p.network().value();
      const std::uint32_t last =
          first | (p.length() == 32 ? 0u : ~0u >> p.length());
      for (const std::uint32_t a : {first, last, first - 1, last + 1}) {
        expect_agrees_with_linear_scan(t, entries, Ipv4Address{a});
      }
    }
    if (HasFailure()) FAIL() << "after step " << step;
  }
}

TEST(RoutingTable, EraseReclaimsInteriorNodes) {
  // An insert/erase cycle must not leak storage: erase releases a chunk
  // once it holds no entry longer than its parent slot, so repeated
  // attach/detach keeps chunk_count() bounded.
  RoutingTable t;
  t.insert(pfx("10.0.0.0", 8), 1);  // a resident entry erase must not touch
  const std::size_t resident_chunks = t.chunk_count();
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ASSERT_FALSE(t.insert(pfx("172.16.0.0", 12), 7).has_value());
    ASSERT_FALSE(t.insert(pfx("192.168.31.0", 24), 8).has_value());
    ASSERT_FALSE(t.insert(pfx("192.168.31.64", 28), 9).has_value());
    EXPECT_EQ(t.size(), 4u);
    ASSERT_TRUE(t.erase(pfx("172.16.0.0", 12)));
    ASSERT_TRUE(t.erase(pfx("192.168.31.0", 24)));
    ASSERT_TRUE(t.erase(pfx("192.168.31.64", 28)));
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.chunk_count(), resident_chunks);
  }
  // The resident entry is untouched throughout.
  EXPECT_EQ(t.lookup(Ipv4Address(10, 1, 2, 3)).value(), 1u);
  const auto entries = t.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].prefix, pfx("10.0.0.0", 8));
  EXPECT_EQ(entries[0].route_id, 1u);
}

TEST(RoutingTable, ErasePrunesOnlyUpToSharedAncestor) {
  // Erasing a /24 under a live /16 and above a live /28 keeps both chunks
  // the /28 needs; erasing the /28 then releases exactly those.
  RoutingTable t;
  t.insert(pfx("10.1.0.0", 16), 1);
  const std::size_t before = t.chunk_count();
  t.insert(pfx("10.1.2.0", 24), 2);
  t.insert(pfx("10.1.2.16", 28), 3);
  EXPECT_EQ(t.chunk_count(), before + 2);
  ASSERT_TRUE(t.erase(pfx("10.1.2.0", 24)));
  EXPECT_EQ(t.chunk_count(), before + 2);
  EXPECT_EQ(t.lookup(Ipv4Address(10, 1, 2, 3)).value(), 1u);   // /16 intact
  EXPECT_EQ(t.lookup(Ipv4Address(10, 1, 2, 20)).value(), 3u);  // /28 intact
  ASSERT_TRUE(t.erase(pfx("10.1.2.16", 28)));
  EXPECT_EQ(t.chunk_count(), before);
  EXPECT_EQ(t.lookup(Ipv4Address(10, 1, 2, 20)).value(), 1u);
  ASSERT_EQ(t.entries().size(), 1u);
}

TEST(RoutingTable, EraseKeepsTerminalInteriorNode) {
  // A /8 that is itself an entry covers the /24's chunk: erasing the /24
  // hands its slots back to the /8 and releases the chunk.
  RoutingTable t;
  t.insert(pfx("10.0.0.0", 8), 1);
  t.insert(pfx("10.1.2.0", 24), 2);
  ASSERT_TRUE(t.erase(pfx("10.1.2.0", 24)));
  EXPECT_EQ(t.lookup(Ipv4Address(10, 1, 2, 3)).value(), 1u);
  ASSERT_TRUE(t.erase(pfx("10.0.0.0", 8)));
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.lookup(Ipv4Address(10, 1, 2, 3)).has_value());
  // Only the first level remains.
  EXPECT_EQ(t.chunk_count(), 0u);
}

TEST(RoutingTable, ReleasedChunkMovesTheLastOneIntoItsPlace) {
  // Chunks stay dense: releasing one moves the last chunk (and, for a
  // second-level chunk, the third-level chunks under it) into the hole.
  RoutingTable t;
  t.insert(pfx("10.1.0.0", 24), 1);     // level-2 chunk 0
  t.insert(pfx("10.2.0.0", 24), 2);     // level-2 chunk 1
  t.insert(pfx("10.2.0.128", 25), 3);   // level-3 chunk under chunk 1
  t.insert(pfx("10.3.7.0", 30), 4);     // chunk 2, and a level-3 chunk
  EXPECT_EQ(t.chunk_count(), 5u);
  ASSERT_TRUE(t.erase(pfx("10.1.0.0", 24)));  // chunk 2 moves to slot 0
  EXPECT_EQ(t.chunk_count(), 4u);
  ASSERT_TRUE(t.erase(pfx("10.2.0.128", 25)));  // 10.3.7's chunk moves
  EXPECT_EQ(t.chunk_count(), 3u);
  t.insert(pfx("10.4.0.0", 25), 5);  // reuses the storage just freed
  EXPECT_EQ(t.chunk_count(), 5u);
  EXPECT_EQ(t.lookup(Ipv4Address(10, 4, 0, 1)).value(), 5u);
  EXPECT_FALSE(t.lookup(Ipv4Address(10, 4, 0, 201)).has_value());
  ASSERT_TRUE(t.erase(pfx("10.4.0.0", 25)));
  EXPECT_EQ(t.chunk_count(), 3u);
  EXPECT_FALSE(t.lookup(Ipv4Address(10, 1, 0, 1)).has_value());
  EXPECT_EQ(t.lookup(Ipv4Address(10, 2, 0, 200)).value(), 2u);
  EXPECT_EQ(t.lookup(Ipv4Address(10, 3, 7, 2)).value(), 4u);
  EXPECT_FALSE(t.lookup(Ipv4Address(10, 3, 7, 4)).has_value());
  ASSERT_TRUE(t.erase(pfx("10.3.7.0", 30)));
  ASSERT_TRUE(t.erase(pfx("10.2.0.0", 24)));
  EXPECT_EQ(t.chunk_count(), 0u);
  EXPECT_TRUE(t.empty());
}

TEST(RoutingTable, SyntheticFibLookupMatchesLinearScan) {
  const auto fib = make_synthetic_fib(512, 99);
  const auto entries = fib.entries();
  stats::Rng rng(1234);
  for (int i = 0; i < 4096; ++i) {
    expect_agrees_with_linear_scan(
        fib, entries,
        Ipv4Address{static_cast<std::uint32_t>(rng.uniform_int(0, 1u << 31))});
  }
}

TEST(SyntheticFib, HasRequestedSizeAndMix) {
  const auto fib = make_synthetic_fib(1000, 42);
  EXPECT_EQ(fib.size(), 1000u);
  std::size_t len8 = 0;
  std::size_t len16 = 0;
  std::size_t len24 = 0;
  for (const auto& e : fib.entries()) {
    if (e.prefix.length() == 8) ++len8;
    if (e.prefix.length() == 16) ++len16;
    if (e.prefix.length() == 24) ++len24;
  }
  EXPECT_EQ(len8 + len16 + len24, fib.size());
  EXPECT_GT(len24, len16 / 2);
  EXPECT_GT(len16, len8);
}

TEST(SyntheticFib, Deterministic) {
  const auto a = make_synthetic_fib(100, 7);
  const auto b = make_synthetic_fib(100, 7);
  const auto ea = a.entries();
  const auto eb = b.entries();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].prefix, eb[i].prefix);
  }
}

}  // namespace
}  // namespace fbm::net
