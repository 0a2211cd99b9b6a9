// The differential proof behind fbm::engine (ISSUE 5 acceptance): for every
// attached link, the engine's report stream is bit-for-bit identical to
// running the ordinary single-link pipeline on that link's pre-filtered
// packets — across link-set shapes (disjoint prefixes, overlapping prefixes
// with longest-match, predicates + match-all), in both batch
// (api::analyze) and live (live::WindowedEstimator) modes, and for any
// worker-pool size.
//
// The reference filter is computed here by brute force (linear scan over
// every link's prefixes, longest match wins), sharing no code with the
// engine's RoutingTable demux.
#include <gtest/gtest.h>

#include <map>
#include <optional>
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

// --------------------------------------------------------------- batch ---

api::AnalysisConfig batch_config() {
  api::AnalysisConfig cfg;
  cfg.interval_s(10.0).timeout_s(2.0).min_flows(0);
  return cfg;
}

void run_batch_differential(const std::vector<LinkDef>& links,
                            std::size_t threads) {
  const auto packets = seeded_trace();
  const auto split = reference_split(packets, links);

  engine::EngineConfig config;
  config.mode = engine::EngineMode::batch;
  config.analysis = batch_config();
  config.threads = threads;
  engine::Engine eng(config);
  std::map<std::string, std::vector<api::AnalysisReport>> got;
  eng.set_report_sink([&](engine::LinkReport&& r) {
    ASSERT_TRUE(r.interval.has_value());
    got[r.name].push_back(std::move(*r.interval));
  });
  for (const auto& link : links) eng.attach(link.spec);
  push_all(eng, packets);
  eng.finish();

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
      EXPECT_EQ(api::to_json(expected[i]), api::to_json(actual[i]));
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

// ---------------------------------------------------------------- live ---

live::LiveConfig live_config(double width, double stride) {
  live::LiveConfig cfg;
  cfg.window_s = width;
  cfg.stride_s = stride;
  cfg.analysis.timeout_s(2.0);
  return cfg;
}

void run_live_differential(const std::vector<LinkDef>& links,
                           double width, double stride, std::size_t threads) {
  const auto packets = seeded_trace();
  const auto split = reference_split(packets, links);

  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live = live_config(width, stride);
  config.threads = threads;
  engine::Engine eng(config);
  std::map<std::string, std::vector<std::string>> got;
  eng.set_report_sink([&](engine::LinkReport&& r) {
    ASSERT_TRUE(r.window.has_value());
    got[r.name].push_back(live::to_jsonl(*r.window));
  });
  for (const auto& link : links) eng.attach(link.spec);
  push_all(eng, packets);
  eng.finish();

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

}  // namespace
}  // namespace fbm
