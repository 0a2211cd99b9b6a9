// Link descriptions for the multi-link engine (fbm::engine).
//
// A LinkSpec names one monitored backbone link and says which packets
// belong to it. Three match rules, mirroring how a POP actually carves up a
// tapped stream:
//
//   MatchAll      every packet (an aggregate / whole-tap view)
//   MatchPrefixes the destination falls under one of the link's CIDR
//                 prefixes. All prefix links share one net::RoutingTable
//                 inside the engine, so when links claim overlapping
//                 prefixes the longest match wins — exactly the forwarding
//                 decision the router itself makes (paper Section VI-A's
//                 "routable" flow aggregation, applied to link demux).
//   MatchTuple    a 5-tuple predicate: every set field must match
//                 (protocol, ports, src/dst prefixes) — service- or
//                 customer-oriented virtual links.
//
// A packet can feed several links at once (a match-all aggregate plus the
// prefix link that owns it); among prefix links it feeds exactly the
// longest-match winner.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "live/live_config.hpp"
#include "net/five_tuple.hpp"
#include "net/ip.hpp"

namespace fbm::engine {

/// Stable handle for one attached link (assigned by Engine::attach,
/// monotonically increasing, never reused).
using LinkId = std::uint32_t;

struct MatchAll {};

struct MatchPrefixes {
  std::vector<net::Prefix> prefixes;
};

/// Conjunction over the set fields; an empty predicate matches everything.
struct MatchTuple {
  std::optional<std::uint8_t> protocol;
  std::optional<std::uint16_t> src_port;
  std::optional<std::uint16_t> dst_port;
  std::optional<net::Prefix> src_prefix;
  std::optional<net::Prefix> dst_prefix;

  [[nodiscard]] bool matches(const net::FiveTuple& t) const {
    if (protocol && *protocol != t.protocol) return false;
    if (src_port && *src_port != t.src_port) return false;
    if (dst_port && *dst_port != t.dst_port) return false;
    if (src_prefix && !src_prefix->contains(t.src)) return false;
    if (dst_prefix && !dst_prefix->contains(t.dst)) return false;
    return true;
  }
};

using MatchRule = std::variant<MatchAll, MatchPrefixes, MatchTuple>;

/// One link: a unique name (carried on every report), its match rule, and
/// optional per-link configuration overrides. Overrides are *layered*: the
/// engine copies its base config and hands the copy to the mutator, so a
/// link tweaks only what differs (a tighter epsilon, a /24 flow definition)
/// and inherits everything else.
struct LinkSpec {
  std::string name;
  MatchRule rule = MatchAll{};
  /// Batch links read the tuned config's `analysis` only.
  std::function<void(live::LiveConfig&)> tune_live;
};

/// Parses the tools' --link syntax: "NAME=PREFIX[,PREFIX...]" with CIDR
/// prefixes ("10.0.0.0/8"), or "NAME=all" / "NAME=*" for a match-all link.
/// A bare address gets a /32. Throws std::invalid_argument with a message
/// naming the offending token.
[[nodiscard]] LinkSpec parse_link_spec(std::string_view text);

}  // namespace fbm::engine
