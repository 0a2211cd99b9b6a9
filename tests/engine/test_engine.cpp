// fbm::engine unit tests: --link spec parsing, match rules, runtime
// attach/detach, per-link config layering, counters, and error paths.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "../support/push.hpp"
#include "api/api.hpp"

namespace fbm {
namespace {

using testsupport::push_one;

net::Prefix pfx(const char* addr, int len) {
  return net::Prefix(*net::Ipv4Address::parse(addr), len);
}

net::PacketRecord packet(double ts, net::Ipv4Address dst,
                         std::uint32_t bytes = 1000,
                         std::uint16_t src_port = 1234) {
  net::PacketRecord p;
  p.timestamp = ts;
  p.tuple.src = net::Ipv4Address(172, 16, 0, 1);
  p.tuple.dst = dst;
  p.tuple.src_port = src_port;
  p.tuple.dst_port = 80;
  p.tuple.protocol = 6;
  p.size_bytes = bytes;
  return p;
}

engine::EngineConfig batch_config() {
  engine::EngineConfig config;
  config.mode = engine::EngineMode::batch;
  config.analysis.interval_s(10.0).timeout_s(1.0).min_flows(0);
  return config;
}

// ---------------------------------------------------------- link specs ---

TEST(LinkSpec, ParsesPrefixList) {
  const auto spec = engine::parse_link_spec("core=10.0.0.0/8,192.168.1.0/24");
  EXPECT_EQ(spec.name, "core");
  const auto& match = std::get<engine::MatchPrefixes>(spec.rule);
  ASSERT_EQ(match.prefixes.size(), 2u);
  EXPECT_EQ(match.prefixes[0].to_string(), "10.0.0.0/8");
  EXPECT_EQ(match.prefixes[1].to_string(), "192.168.1.0/24");
}

TEST(LinkSpec, BareAddressGetsHostPrefix) {
  const auto spec = engine::parse_link_spec("host=192.0.2.7");
  const auto& match = std::get<engine::MatchPrefixes>(spec.rule);
  ASSERT_EQ(match.prefixes.size(), 1u);
  EXPECT_EQ(match.prefixes[0].to_string(), "192.0.2.7/32");
}

TEST(LinkSpec, ParsesMatchAll) {
  EXPECT_TRUE(std::holds_alternative<engine::MatchAll>(
      engine::parse_link_spec("tap=all").rule));
  EXPECT_TRUE(std::holds_alternative<engine::MatchAll>(
      engine::parse_link_spec("tap=*").rule));
}

TEST(LinkSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)engine::parse_link_spec("noequals"),
               std::invalid_argument);
  EXPECT_THROW((void)engine::parse_link_spec("=10.0.0.0/8"),
               std::invalid_argument);
  EXPECT_THROW((void)engine::parse_link_spec("x="), std::invalid_argument);
  EXPECT_THROW((void)engine::parse_link_spec("x=10.0.0.0/33"),
               std::invalid_argument);
  EXPECT_THROW((void)engine::parse_link_spec("x=10.0.0/8"),
               std::invalid_argument);
  EXPECT_THROW((void)engine::parse_link_spec("x=10.0.0.0/8,,10.1.0.0/16"),
               std::invalid_argument);
}

TEST(LinkSpec, TuplePredicateMatchesSetFieldsOnly) {
  engine::MatchTuple rule;
  rule.protocol = 17;
  rule.dst_prefix = pfx("10.0.0.0", 8);
  net::FiveTuple t;
  t.protocol = 17;
  t.dst = net::Ipv4Address(10, 1, 2, 3);
  EXPECT_TRUE(rule.matches(t));
  t.protocol = 6;
  EXPECT_FALSE(rule.matches(t));
  t.protocol = 17;
  t.dst = net::Ipv4Address(11, 1, 2, 3);
  EXPECT_FALSE(rule.matches(t));
  EXPECT_TRUE(engine::MatchTuple{}.matches(t));  // empty predicate
}

// -------------------------------------------------------------- engine ---

TEST(Engine, RejectsBadConfigAndSpecs) {
  {
    // threads == 0 is not bad — it auto-detects the core count (see
    // test_threads_auto.cpp).
    engine::EngineConfig config = batch_config();
    config.threads = 0;
    EXPECT_NO_THROW(engine::Engine e(config));
  }
  engine::Engine eng(batch_config());
  EXPECT_THROW((void)eng.attach({}), std::invalid_argument);  // empty name
  engine::LinkSpec empty_prefixes;
  empty_prefixes.name = "empty";
  empty_prefixes.rule = engine::MatchPrefixes{};
  EXPECT_THROW((void)eng.attach(empty_prefixes), std::invalid_argument);

  (void)eng.attach(engine::parse_link_spec("a=10.0.0.0/8"));
  EXPECT_THROW((void)eng.attach(engine::parse_link_spec("a=11.0.0.0/8")),
               std::invalid_argument);  // duplicate name
  EXPECT_THROW((void)eng.attach(engine::parse_link_spec("b=10.0.0.0/8")),
               std::invalid_argument);  // prefix already claimed
  // The failed attach rolled back: the claim still routes to "a", and "b"
  // can attach with a free prefix.
  (void)eng.attach(engine::parse_link_spec("b=11.0.0.0/8"));
  push_one(eng, packet(0.0, net::Ipv4Address(10, 1, 1, 1)));
  push_one(eng, packet(0.1, net::Ipv4Address(10, 1, 1, 1)));
  eng.finish();
  const auto links = eng.links();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].name, "a");
  EXPECT_EQ(links[0].counters.packets, 2u);
  EXPECT_EQ(links[1].counters.packets, 0u);
}

TEST(Engine, DemuxCountersSplitTraffic) {
  engine::Engine eng(batch_config());
  const auto a = eng.attach(engine::parse_link_spec("a=10.0.0.0/16"));
  const auto b = eng.attach(engine::parse_link_spec("b=10.1.0.0/16"));
  const auto tap = eng.attach(engine::parse_link_spec("tap=all"));
  push_one(eng, packet(0.0, net::Ipv4Address(10, 0, 0, 1), 100));
  push_one(eng, packet(0.1, net::Ipv4Address(10, 1, 0, 1), 200));
  push_one(eng, packet(0.2, net::Ipv4Address(10, 2, 0, 1), 400));  // unmatched
  eng.finish();
  const auto links = eng.links();
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links[0].id, a);
  EXPECT_EQ(links[0].counters.packets, 1u);
  EXPECT_EQ(links[0].counters.bytes, 100u);
  EXPECT_EQ(links[1].id, b);
  EXPECT_EQ(links[1].counters.packets, 1u);
  EXPECT_EQ(links[1].counters.bytes, 200u);
  EXPECT_EQ(links[2].id, tap);
  EXPECT_EQ(links[2].counters.packets, 3u);
  EXPECT_EQ(links[2].counters.bytes, 700u);
  EXPECT_EQ(eng.summary().packets, 3u);
}

TEST(Engine, RuntimeAttachSeesOnlyLaterPackets) {
  engine::Engine eng(batch_config());
  (void)eng.attach(engine::parse_link_spec("early=all"));
  push_one(eng, packet(0.0, net::Ipv4Address(10, 0, 0, 1)));
  (void)eng.attach(engine::parse_link_spec("late=all"));
  push_one(eng, packet(0.5, net::Ipv4Address(10, 0, 0, 1)));
  eng.finish();
  const auto links = eng.links();
  EXPECT_EQ(links[0].counters.packets, 2u);
  EXPECT_EQ(links[1].counters.packets, 1u);
}

TEST(Engine, DetachFinalizesSessionAndStopsRouting) {
  engine::Engine eng(batch_config());
  const auto id = eng.attach(engine::parse_link_spec("a=10.0.0.0/8"));
  (void)eng.attach(engine::parse_link_spec("tap=all"));

  std::vector<engine::LinkReport> reports;
  eng.set_report_sink(
      [&](engine::LinkReport&& r) { reports.push_back(std::move(r)); });

  push_one(eng, packet(0.0, net::Ipv4Address(10, 0, 0, 1)));
  push_one(eng, packet(1.0, net::Ipv4Address(10, 0, 0, 1)));
  ASSERT_TRUE(eng.detach(id));
  // Detach finalized the session: its interval 0 report is already out.
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].name, "a");
  ASSERT_TRUE(reports[0].interval.has_value());
  EXPECT_EQ(reports[0].interval->inputs.flows, 1u);

  EXPECT_FALSE(eng.detach(id));       // already detached
  EXPECT_FALSE(eng.detach(9999));     // unknown id
  EXPECT_EQ(eng.link_count(), 1u);

  push_one(eng, packet(2.0, net::Ipv4Address(10, 0, 0, 1)));
  eng.finish();
  const auto links = eng.links();
  EXPECT_FALSE(links[0].attached);
  EXPECT_EQ(links[0].counters.packets, 2u);  // nothing after detach
  EXPECT_EQ(links[1].counters.packets, 3u);
  // After detach the overlap is gone: a fresh link can claim the prefix.
  // (attach after finish is rejected below instead.)
  EXPECT_THROW((void)eng.attach(engine::parse_link_spec("a2=10.0.0.0/8")),
               std::logic_error);
}

TEST(Engine, DetachedPrefixBecomesClaimable) {
  engine::Engine eng(batch_config());
  const auto id = eng.attach(engine::parse_link_spec("a=10.0.0.0/8"));
  ASSERT_TRUE(eng.detach(id));
  const auto id2 = eng.attach(engine::parse_link_spec("a=10.0.0.0/8"));
  EXPECT_NE(id, id2);  // ids are never reused
  push_one(eng, packet(0.0, net::Ipv4Address(10, 0, 0, 1)));
  eng.finish();
  const auto links = eng.links();
  EXPECT_EQ(links[1].counters.packets, 1u);
}

TEST(Engine, PerLinkOverridesLayerOverBase) {
  engine::EngineConfig config = batch_config();
  config.analysis.min_flows(100);  // base suppresses everything
  engine::Engine eng(config);
  engine::LinkSpec verbose;
  verbose.name = "verbose";
  verbose.rule = engine::MatchAll{};
  verbose.tune_analysis = [](api::AnalysisConfig& cfg) { cfg.min_flows(0); };
  (void)eng.attach(verbose);
  (void)eng.attach(engine::parse_link_spec("quiet=all"));

  push_one(eng, packet(0.0, net::Ipv4Address(10, 0, 0, 1)));
  push_one(eng, packet(1.0, net::Ipv4Address(10, 0, 0, 1)));
  eng.finish();
  const auto reports = eng.take_reports();
  // Only the tuned link reports: the base min_flows(100) still governs the
  // other session.
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].name, "verbose");
}

TEST(Engine, OrderingAndLifecycleErrors) {
  engine::Engine eng(batch_config());
  (void)eng.attach(engine::parse_link_spec("tap=all"));
  push_one(eng, packet(1.0, net::Ipv4Address(10, 0, 0, 1)));
  EXPECT_THROW(push_one(eng, packet(0.5, net::Ipv4Address(10, 0, 0, 1))),
               std::invalid_argument);
  eng.finish();
  eng.finish();  // idempotent
  EXPECT_THROW(push_one(eng, packet(2.0, net::Ipv4Address(10, 0, 0, 1))),
               std::logic_error);
}

TEST(Engine, InvalidLayeredConfigRejectedAtAttach) {
  engine::Engine eng(batch_config());
  engine::LinkSpec broken;
  broken.name = "broken";
  broken.tune_analysis = [](api::AnalysisConfig& cfg) { cfg.timeout_s(-1.0); };
  EXPECT_THROW((void)eng.attach(broken), std::invalid_argument);
  EXPECT_EQ(eng.link_count(), 0u);
}

TEST(Engine, LiveModeEmitsTaggedWindows) {
  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live.window_s = 1.0;
  config.live.analysis.timeout_s(0.5);
  engine::Engine eng(config);
  (void)eng.attach(engine::parse_link_spec("tap=all"));
  for (int i = 0; i < 40; ++i) {
    push_one(eng, packet(0.1 * i, net::Ipv4Address(10, 0, 0, 1)));
  }
  eng.finish();
  const auto reports = eng.take_reports();
  ASSERT_GE(reports.size(), 3u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.name, "tap");
    ASSERT_TRUE(r.window.has_value());
    const std::string line = engine::to_jsonl(r);
    EXPECT_EQ(line.rfind("{\"link\": \"tap\", \"window\": ", 0), 0u) << line;
  }
}

// A session that throws on a pool worker — here its sink, on the first
// report — must not be lost: the error reaches the caller at a later
// push_batch, flush, save_state (live mode) or finish, and the engine still
// shuts down. Returns the message that reached the caller.
std::string pool_failure_reaching_caller(engine::EngineConfig config) {
  config.threads = 2;
  engine::Engine eng(config);
  int reports = 0;  // the engine serializes sink calls
  eng.set_report_sink([&reports](engine::LinkReport&&) {
    if (reports++ == 0) throw std::runtime_error("sink failed");
  });
  (void)eng.attach(engine::parse_link_spec("a=10.0.0.0/8"));
  (void)eng.attach(engine::parse_link_spec("b=192.168.0.0/16"));
  try {
    for (int i = 0; i < 6000; ++i) {
      const auto dst = i % 2 == 0 ? net::Ipv4Address(10, 0, 0, 1 + i % 7)
                                  : net::Ipv4Address(192, 168, 0, 1 + i % 5);
      push_one(eng, packet(0.005 * i, dst, 1000,
                           static_cast<std::uint16_t>(1000 + i % 11)));
    }
    eng.flush();
    if (config.mode == engine::EngineMode::live) (void)eng.save_state();
    eng.finish();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no error reached the caller";
}  // ~Engine must return although one worker died

TEST(EngineFailure, BatchSinkErrorOnAWorkerReachesTheCaller) {
  EXPECT_EQ(pool_failure_reaching_caller(batch_config()), "sink failed");
}

TEST(EngineFailure, LiveSinkErrorOnAWorkerReachesTheCaller) {
  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live.window_s = 1.0;
  config.live.analysis.timeout_s(0.5);
  EXPECT_EQ(pool_failure_reaching_caller(config), "sink failed");
}

}  // namespace
}  // namespace fbm
