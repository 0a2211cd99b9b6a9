// The differential proof behind fbm::engine (ISSUE 5 acceptance): for every
// attached link, the engine's report stream is bit-for-bit identical to
// running the ordinary single-link pipeline on that link's pre-filtered
// packets — across link-set shapes (disjoint prefixes, overlapping prefixes
// with longest-match, predicates + match-all, a 16-link POP, a link detached
// mid-stream), in both batch (api::analyze) and live
// (live::WindowedEstimator) modes, and for any worker-pool size.
//
// The reference filter is computed here by brute force (linear scan over
// every link's prefixes, longest match wins), sharing no code with the
// engine's RoutingTable demux.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "../support/push.hpp"
#include "api/api.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

using testsupport::push_all;

std::vector<net::PacketRecord> seeded_trace(double duration_s = 60.0,
                                            double util_bps = 8e6,
                                            std::uint64_t seed = 515) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = duration_s;
  cfg.apply_defaults();
  cfg.target_utilization_bps(util_bps);
  cfg.seed = seed;
  return trace::generate_packets(cfg);
}

net::Prefix pfx(const char* addr, int len) {
  return net::Prefix(*net::Ipv4Address::parse(addr), len);
}

struct LinkDef {
  std::string name;
  engine::LinkSpec spec;
  /// Reference rule, evaluated by brute force.
  std::vector<net::Prefix> prefixes;  ///< empty + !all => tuple predicate
  bool all = false;
  std::optional<engine::MatchTuple> tuple;
};

LinkDef prefix_link(std::string name, std::vector<net::Prefix> prefixes) {
  LinkDef def;
  def.name = name;
  def.spec.name = std::move(name);
  def.spec.rule = engine::MatchPrefixes{prefixes};
  def.prefixes = std::move(prefixes);
  return def;
}

LinkDef all_link(std::string name) {
  LinkDef def;
  def.name = name;
  def.spec.name = std::move(name);
  def.spec.rule = engine::MatchAll{};
  def.all = true;
  return def;
}

LinkDef tuple_link(std::string name, engine::MatchTuple predicate) {
  LinkDef def;
  def.name = name;
  def.spec.name = std::move(name);
  def.spec.rule = predicate;
  def.tuple = predicate;
  return def;
}

/// Independent demux: every packet goes to each match-all link, to each
/// matching predicate link, and to the one prefix link holding the longest
/// prefix (across ALL links) that contains its destination.
std::map<std::string, std::vector<net::PacketRecord>> reference_split(
    const std::vector<net::PacketRecord>& packets,
    const std::vector<LinkDef>& links) {
  std::map<std::string, std::vector<net::PacketRecord>> out;
  for (const auto& link : links) out[link.name];  // empty streams included
  for (const auto& p : packets) {
    const LinkDef* best = nullptr;
    int best_len = -1;
    for (const auto& link : links) {
      if (link.all) {
        out[link.name].push_back(p);
        continue;
      }
      if (link.tuple) {
        if (link.tuple->matches(p.tuple)) out[link.name].push_back(p);
        continue;
      }
      for (const auto& prefix : link.prefixes) {
        if (prefix.contains(p.tuple.dst) && prefix.length() > best_len) {
          best = &link;
          best_len = prefix.length();
        }
      }
    }
    if (best != nullptr) out[best->name].push_back(p);
  }
  return out;
}

// Link-set shapes the acceptance criterion names. Destinations of the
// synthetic trace live in 10.<0..7>.<16k>.0/24 space.
std::vector<LinkDef> disjoint_links() {
  std::vector<LinkDef> links;
  links.push_back(prefix_link("a", {pfx("10.0.0.0", 15)}));
  links.push_back(prefix_link("b", {pfx("10.2.0.0", 15)}));
  links.push_back(prefix_link("c", {pfx("10.4.0.0", 16), pfx("10.5.0.0", 16)}));
  links.push_back(all_link("tap"));  // aggregate rides along
  return links;
}

std::vector<LinkDef> overlapping_links() {
  // "wide" claims everything; more-specific links carve traffic out of it
  // via longest-match, nesting three levels deep.
  std::vector<LinkDef> links;
  links.push_back(prefix_link("wide", {pfx("10.0.0.0", 8)}));
  links.push_back(prefix_link("mid", {pfx("10.2.0.0", 15)}));
  links.push_back(prefix_link("narrow", {pfx("10.2.64.0", 18)}));
  return links;
}

std::vector<LinkDef> predicate_links() {
  std::vector<LinkDef> links;
  engine::MatchTuple web;
  web.dst_port = 80;
  links.push_back(tuple_link("web", web));
  engine::MatchTuple udp;
  udp.protocol = 17;
  links.push_back(tuple_link("udp", udp));
  links.push_back(prefix_link("lowhalf", {pfx("10.0.0.0", 14)}));
  return links;
}

std::vector<LinkDef> pop_links() {
  // A POP: 16 prefix links over the trace's 128 /24s, several per link
  // (rank r on link r mod 16), with prefixes on every stride level: ranks
  // 120..127 fall through to a /16 on pop15, and a /25 on pop3 carves half
  // of rank 1's /24 out of pop1. A predicate link and a tap ride along.
  std::vector<LinkDef> links;
  for (std::size_t i = 0; i < 16; ++i) {
    std::vector<net::Prefix> prefixes;
    for (std::size_t r = i; r < 120; r += 16) {
      prefixes.push_back(trace::dst_prefix_for_rank(r));
    }
    if (i == 3) prefixes.push_back(pfx("10.0.16.128", 25));
    if (i == 15) prefixes.push_back(pfx("10.7.0.0", 16));
    links.push_back(prefix_link("pop" + std::to_string(i), prefixes));
  }
  engine::MatchTuple web;
  web.dst_port = 80;
  links.push_back(tuple_link("web", web));
  links.push_back(all_link("tap"));
  return links;
}

/// "specific" is detached mid-stream; its traffic then falls back to
/// "cover", except the /25 "deep" keeps.
std::vector<LinkDef> detach_links() {
  std::vector<LinkDef> links;
  links.push_back(prefix_link("cover", {pfx("10.0.0.0", 13)}));
  links.push_back(prefix_link("specific", {pfx("10.2.0.0", 15)}));
  links.push_back(prefix_link("deep", {pfx("10.2.16.0", 25)}));
  links.push_back(all_link("tap"));
  return links;
}

/// Half-way through the trace, with traffic only "specific" carries on both
/// sides of the cut.
std::size_t detach_cut() {
  const auto packets = seeded_trace();
  const auto cut = static_cast<std::ptrdiff_t>(packets.size() / 2);
  const auto specific_only = [](const net::PacketRecord& p) {
    return pfx("10.2.0.0", 15).contains(p.tuple.dst) &&
           !pfx("10.2.16.0", 25).contains(p.tuple.dst);
  };
  EXPECT_TRUE(
      std::any_of(packets.begin(), packets.begin() + cut, specific_only));
  EXPECT_TRUE(std::any_of(packets.begin() + cut, packets.end(), specific_only));
  return static_cast<std::size_t>(cut);
}

/// Per-link report streams, each report rendered as its JSON text.
using Streams = std::map<std::string, std::vector<std::string>>;

/// Runs the engine over `packets` and, when `detach` names a link, detaches
/// it after the first `cut` packets.
Streams engine_streams(const engine::EngineConfig& config,
                       const std::vector<LinkDef>& links,
                       std::span<const net::PacketRecord> packets,
                       std::size_t cut = 0, const std::string& detach = {}) {
  engine::Engine eng(config);
  Streams got;
  eng.set_report_sink([&](engine::LinkReport&& r) {
    got[r.name].push_back(r.interval ? api::to_json(*r.interval)
                                     : live::to_jsonl(*r.window));
  });
  std::map<std::string, engine::LinkId> ids;
  for (const auto& link : links) ids[link.name] = eng.attach(link.spec);
  if (!detach.empty()) {
    push_all(eng, packets.first(cut));
    EXPECT_TRUE(eng.detach(ids.at(detach)));
    packets = packets.subspan(cut);
  }
  push_all(eng, packets);
  eng.finish();
  return got;
}

/// The brute-force split of `packets` with `detach` removed from the link
/// set after the first `cut` packets.
std::map<std::string, std::vector<net::PacketRecord>> reference_split(
    const std::vector<net::PacketRecord>& packets,
    const std::vector<LinkDef>& links, std::size_t cut,
    const std::string& detach) {
  const auto split_at = packets.begin() + static_cast<std::ptrdiff_t>(cut);
  const std::vector<net::PacketRecord> head(packets.begin(), split_at);
  const std::vector<net::PacketRecord> tail(split_at, packets.end());
  std::vector<LinkDef> remaining = links;
  std::erase_if(remaining, [&](const LinkDef& l) { return l.name == detach; });
  auto out = reference_split(head, links);
  for (auto& [name, stream] : reference_split(tail, remaining)) {
    auto& to = out[name];
    to.insert(to.end(), stream.begin(), stream.end());
  }
  return out;
}

// --------------------------------------------------------------- batch ---

api::AnalysisConfig batch_config() {
  api::AnalysisConfig cfg;
  cfg.interval_s(10.0).timeout_s(2.0).min_flows(0);
  return cfg;
}

void run_batch_differential(const std::vector<LinkDef>& links,
                            std::size_t threads, std::size_t cut = 0,
                            const std::string& detach = {}) {
  const auto packets = seeded_trace();
  const auto split = reference_split(packets, links, cut, detach);

  engine::EngineConfig config;
  config.mode = engine::EngineMode::batch;
  config.analysis = batch_config();
  config.threads = threads;
  auto got = engine_streams(config, links, packets, cut, detach);

  for (const auto& link : links) {
    SCOPED_TRACE(link.name);
    const auto& filtered = split.at(link.name);
    const auto expected = api::analyze(filtered, batch_config());
    const auto& actual = got[link.name];
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE(i);
      // Bit-for-bit: the full JSON rendering (shortest-round-trip doubles)
      // must match byte for byte.
      EXPECT_EQ(api::to_json(expected[i]), actual[i]);
    }
  }
}

TEST(EngineDifferential, BatchDisjointPrefixes) {
  run_batch_differential(disjoint_links(), 1);
}

TEST(EngineDifferential, BatchOverlappingPrefixesLongestMatch) {
  run_batch_differential(overlapping_links(), 1);
}

TEST(EngineDifferential, BatchPredicatesAndPrefixes) {
  run_batch_differential(predicate_links(), 1);
}

TEST(EngineDifferential, BatchWorkerPoolMatchesInline) {
  run_batch_differential(disjoint_links(), 3);
  run_batch_differential(overlapping_links(), 3);
}

TEST(EngineDifferential, BatchPopSixteenLinks) {
  run_batch_differential(pop_links(), 1);
  run_batch_differential(pop_links(), 3);
}

TEST(EngineDifferential, BatchDetachFallsBackToCoveringLink) {
  const std::size_t cut = detach_cut();
  run_batch_differential(detach_links(), 1, cut, "specific");
  run_batch_differential(detach_links(), 3, cut, "specific");
}

// ---------------------------------------------------------------- live ---

live::LiveConfig live_config(double width, double stride) {
  live::LiveConfig cfg;
  cfg.window_s = width;
  cfg.stride_s = stride;
  cfg.analysis.timeout_s(2.0);
  return cfg;
}

void run_live_differential(const std::vector<LinkDef>& links, double width,
                           double stride, std::size_t threads,
                           std::size_t cut = 0,
                           const std::string& detach = {}) {
  const auto packets = seeded_trace();
  const auto split = reference_split(packets, links, cut, detach);

  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live = live_config(width, stride);
  config.threads = threads;
  auto got = engine_streams(config, links, packets, cut, detach);

  for (const auto& link : links) {
    SCOPED_TRACE(link.name);
    const auto& filtered = split.at(link.name);
    live::WindowedEstimator reference(live_config(width, stride));
    push_all(reference, filtered, 1);
    reference.finish();
    const auto expected = reference.take_reports();
    const auto& actual = got[link.name];
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(live::to_jsonl(expected[i]), actual[i]);
    }
  }
}

TEST(EngineDifferential, LiveDisjointPrefixesTiling) {
  run_live_differential(disjoint_links(), 7.0, 0.0, 1);
}

TEST(EngineDifferential, LiveOverlappingPrefixesTiling) {
  run_live_differential(overlapping_links(), 7.0, 0.0, 1);
}

TEST(EngineDifferential, LiveOverlappingWindowsAndPrefixes) {
  run_live_differential(overlapping_links(), 9.0, 4.0, 1);
}

TEST(EngineDifferential, LiveWorkerPoolMatchesInline) {
  run_live_differential(disjoint_links(), 7.0, 0.0, 3);
}

TEST(EngineDifferential, LivePopSixteenLinks) {
  run_live_differential(pop_links(), 7.0, 0.0, 1);
  run_live_differential(pop_links(), 7.0, 0.0, 3);
}

TEST(EngineDifferential, LiveDetachFallsBackToCoveringLink) {
  const std::size_t cut = detach_cut();
  run_live_differential(detach_links(), 7.0, 0.0, 1, cut, "specific");
  run_live_differential(detach_links(), 7.0, 0.0, 3, cut, "specific");
}

}  // namespace
}  // namespace fbm
