// Fuzz target: net::RoutingTable, the longest-prefix-match table that routes
// packets to links (fbm_analyze/fbm_live --link NAME=PREFIX, so the table's
// contents come from the command line) and keys flows by routable prefix.
//
// The input decodes into operations, each followed by a check against a
// linear scan over a std::map oracle; any disagreement aborts:
//   op % 4 == 0  insert   addr[4] len[1] route[1]
//   op % 4 == 1  erase    addr[4] len[1]
//   op % 4 == 2  lookup   addr[4]
//   op % 4 == 3  erase the oracle's (index[1] % size)-th entry
// Addresses are big-endian and lengths are taken mod 33. Decoding stops at
// the first truncated operation.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <optional>
#include <utility>

#include "fuzz_driver.hpp"
#include "net/lpm.hpp"

namespace {

using fbm::net::Ipv4Address;
using fbm::net::Prefix;
using fbm::net::RoutingTable;
using Oracle = std::map<std::pair<std::uint32_t, int>, std::uint32_t>;

void check(bool ok, const char* what, Ipv4Address addr) {
  if (ok) return;
  std::fprintf(stderr, "fuzz_lpm: %s disagrees at %s\n", what,
               addr.to_string().c_str());
  std::abort();
}

/// lookup and lookup_prefix against the longest oracle entry containing
/// `addr`.
void check_lookup(const RoutingTable& table, const Oracle& oracle,
                  Ipv4Address addr) {
  std::optional<std::pair<Prefix, std::uint32_t>> best;
  for (const auto& [key, route] : oracle) {
    const Prefix p(Ipv4Address{key.first}, key.second);
    if (p.contains(addr) &&
        (!best || p.length() > best->first.length())) {
      best.emplace(p, route);
    }
  }
  const auto route = table.lookup(addr);
  const auto prefix = table.lookup_prefix(addr);
  if (!best) {
    check(!route && !prefix, "miss", addr);
    return;
  }
  check(route == best->second, "lookup", addr);
  check(prefix == best->first, "lookup_prefix", addr);
}

/// The prefix's edges and their outside neighbours, where an expansion that
/// is off by one slot shows.
void check_edges(const RoutingTable& table, const Oracle& oracle,
                 const Prefix& p) {
  const std::uint32_t first = p.network().value();
  const std::uint32_t last =
      first | (p.length() == 32 ? 0u : ~0u >> p.length());
  for (const std::uint32_t a : {first, last, first - 1, last + 1}) {
    check_lookup(table, oracle, Ipv4Address{a});
  }
}

void check_entries(const RoutingTable& table, const Oracle& oracle) {
  const auto entries = table.entries();
  check(table.size() == oracle.size() && entries.size() == oracle.size(),
        "size", Ipv4Address{0});
  auto o = oracle.begin();
  for (const auto& e : entries) {
    check(e.prefix.network().value() == o->first.first &&
              e.prefix.length() == o->first.second &&
              e.route_id == o->second,
          "entries", e.prefix.network());
    ++o;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  RoutingTable table;
  Oracle oracle;
  std::size_t i = 0;
  const auto take = [&](std::size_t n) {
    const std::uint8_t* at = data + i;
    i += n;
    return at;
  };
  const auto addr_at = [](const std::uint8_t* b) {
    return Ipv4Address{(std::uint32_t{b[0]} << 24) |
                       (std::uint32_t{b[1]} << 16) |
                       (std::uint32_t{b[2]} << 8) | b[3]};
  };
  while (i < size) {
    const std::uint8_t op = *take(1) % 4;
    if (op == 0 && size - i >= 6) {
      const std::uint8_t* b = take(6);
      const Prefix p(addr_at(b), b[4] % 33);
      const std::uint32_t route = b[5];
      const auto key = std::pair(p.network().value(), p.length());
      const auto it = oracle.find(key);
      const auto previous = table.insert(p, route);
      check(it == oracle.end() ? !previous : previous == it->second, "insert",
            p.network());
      oracle[key] = route;
      check_edges(table, oracle, p);
    } else if (op == 1 && size - i >= 5) {
      const std::uint8_t* b = take(5);
      const Prefix p(addr_at(b), b[4] % 33);
      const bool present = oracle.erase({p.network().value(), p.length()}) > 0;
      check(table.erase(p) == present, "erase", p.network());
      check_edges(table, oracle, p);
    } else if (op == 2 && size - i >= 4) {
      check_lookup(table, oracle, addr_at(take(4)));
    } else if (op == 3 && size - i >= 1) {
      const std::uint8_t index = *take(1);
      if (oracle.empty()) continue;
      const auto it = std::next(
          oracle.begin(), static_cast<std::ptrdiff_t>(index % oracle.size()));
      const Prefix p(Ipv4Address{it->first.first}, it->first.second);
      oracle.erase(it);
      check(table.erase(p), "erase", p.network());
      check_edges(table, oracle, p);
    } else {
      break;  // truncated operation
    }
    check_entries(table, oracle);
  }
  return 0;
}
