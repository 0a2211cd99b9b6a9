// The durability acceptance proof (ISSUE 8): checkpoint → serialize →
// restore → resume reproduces the uninterrupted run's remaining reports
// BYTE-identically (the rendered JSONL lines, not just close values), for
// the single live::WindowedEstimator and the multi-link engine::Engine,
// across window shapes (tiling, overlapping, gapped), both flow
// definitions, and several cut points — including cuts that land mid-window
// with open classifier tables, whose active flows a restore re-inserts
// (their emission order is free: flows land in exact flow sums).
//
// Every snapshot goes through the on-disk codec (write_checkpoint →
// read_checkpoint on a real file), so the differential also proves the
// serialization loses nothing.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "../support/push.hpp"
#include "agg/partial_codec.hpp"
#include "ckpt/checkpoint.hpp"
#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "live/live.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

using testsupport::push_all;

std::vector<net::PacketRecord> seeded_trace(double duration_s = 40.0,
                                            std::uint64_t seed = 4242) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = duration_s;
  cfg.apply_defaults();
  cfg.target_utilization_bps(8e6);
  cfg.seed = seed;
  return trace::generate_packets(cfg);
}

// Per-test-case filenames: ctest -j runs suite cases as concurrent
// processes sharing one TempDir, so a fixed name would race.
std::filesystem::path temp_ckpt(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::filesystem::path(::testing::TempDir()) /
         ("ckpt_" + std::string(info->name()) + "_" + tag + ".fbmc");
}

live::LiveConfig live_config(api::FlowDefinition def, double width,
                             double stride) {
  live::LiveConfig config;
  config.window_s = width;
  config.stride_s = stride;
  config.analysis.flow_definition(def).timeout_s(3.0);
  return config;
}

/// Uninterrupted reference: every report line of the whole trace.
std::vector<std::string> reference_lines(
    const std::vector<net::PacketRecord>& packets,
    const live::LiveConfig& config) {
  live::WindowedEstimator est(config);
  std::vector<std::string> lines;
  est.set_window_sink([&](live::WindowReport&& r) {
    lines.push_back(live::to_jsonl(r));
  });
  push_all(est, packets);
  est.finish();
  return lines;
}

/// Killed-and-resumed run: push `cut` packets, checkpoint through the real
/// file codec, restore into a fresh estimator, push the rest. Returns the
/// concatenation of both processes' lines.
std::vector<std::string> resumed_lines(
    const std::vector<net::PacketRecord>& packets,
    const live::LiveConfig& config, std::size_t cut,
    const std::filesystem::path& path) {
  std::vector<std::string> lines;

  live::WindowedEstimator first(config);
  first.set_window_sink([&](live::WindowReport&& r) {
    lines.push_back(live::to_jsonl(r));
  });
  push_all(first, std::span(packets).first(cut));
  ckpt::write_checkpoint(path, agg::PartialMeta::from_live(config),
                         first.save_state());
  // `first` is abandoned here — the simulated SIGKILL.

  const ckpt::Checkpoint ck = ckpt::read_checkpoint(path);
  EXPECT_EQ(ck.kind, ckpt::CheckpointKind::estimator);
  agg::check_compatible(ck.meta, agg::PartialMeta::from_live(config));
  EXPECT_EQ(ck.packets_consumed(), cut);

  live::WindowedEstimator second(config);
  second.restore_state(ck.estimator);
  second.set_window_sink([&](live::WindowReport&& r) {
    lines.push_back(live::to_jsonl(r));
  });
  push_all(second, std::span(packets).subspan(cut));
  second.finish();
  return lines;
}

void run_estimator_differential(api::FlowDefinition def, double width,
                                double stride) {
  const auto packets = seeded_trace();
  const live::LiveConfig config = live_config(def, width, stride);
  const auto ref = reference_lines(packets, config);
  ASSERT_GT(ref.size(), 4u);

  // Cut early (tables still filling), mid-stream, and late; the exact
  // packet indices land at arbitrary points inside windows.
  for (const std::size_t cut :
       {packets.size() / 5, packets.size() / 2, packets.size() - 3}) {
    const auto got = resumed_lines(packets, config, cut,
                                   temp_ckpt(std::to_string(cut)));
    ASSERT_EQ(ref.size(), got.size()) << "cut at packet " << cut;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << "report " << i << ", cut " << cut;
    }
  }
}

TEST(CheckpointDifferential, TilingFiveTuple) {
  run_estimator_differential(api::FlowDefinition::five_tuple, 4.0, 4.0);
}

TEST(CheckpointDifferential, TilingPrefix24) {
  run_estimator_differential(api::FlowDefinition::prefix24, 4.0, 4.0);
}

TEST(CheckpointDifferential, OverlappingFiveTuple) {
  run_estimator_differential(api::FlowDefinition::five_tuple, 6.0, 2.0);
}

TEST(CheckpointDifferential, OverlappingPrefix24) {
  run_estimator_differential(api::FlowDefinition::prefix24, 6.0, 2.0);
}

TEST(CheckpointDifferential, GappedFiveTuple) {
  run_estimator_differential(api::FlowDefinition::five_tuple, 2.0, 3.0);
}

TEST(CheckpointDifferential, CutExactlyOnWindowBoundary) {
  const auto packets = seeded_trace();
  const auto config =
      live_config(api::FlowDefinition::five_tuple, 4.0, 4.0);
  const auto ref = reference_lines(packets, config);
  // First packet index at/after t = 12.0: the checkpoint lands right after
  // a close cascade, with the freshest window nearly empty.
  std::size_t cut = 0;
  while (cut < packets.size() && packets[cut].timestamp < 12.0) ++cut;
  ASSERT_GT(cut, 0u);
  const auto got = resumed_lines(packets, config, cut + 1, temp_ckpt("b"));
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], got[i]);
}

TEST(CheckpointDifferential, SaveStateRefusesUndrainedReports) {
  const auto packets = seeded_trace(20.0);
  live::WindowedEstimator est(
      live_config(api::FlowDefinition::five_tuple, 4.0, 4.0));
  push_all(est, packets);  // no sink: reports queue up
  ASSERT_TRUE(est.has_report());
  EXPECT_THROW((void)est.save_state(), std::logic_error);
  (void)est.take_reports();
  EXPECT_NO_THROW((void)est.save_state());
}

TEST(CheckpointDifferential, RestoreRefusesUsedEstimator) {
  const auto packets = seeded_trace(20.0);
  const auto config =
      live_config(api::FlowDefinition::five_tuple, 4.0, 4.0);
  live::WindowedEstimator est(config);
  est.set_window_sink([](live::WindowReport&&) {});
  push_all(est, std::span(packets).first(100));
  const auto state = est.save_state();
  EXPECT_THROW(est.restore_state(state), std::logic_error);
}

TEST(CheckpointDifferential, RestoreRefusesMismatchedConfig) {
  const auto packets = seeded_trace(20.0);
  const auto config =
      live_config(api::FlowDefinition::five_tuple, 4.0, 4.0);
  live::WindowedEstimator est(config);
  est.set_window_sink([](live::WindowReport&&) {});
  push_all(est, std::span(packets).first(1000));
  const auto path = temp_ckpt("cfg");
  ckpt::write_checkpoint(path, agg::PartialMeta::from_live(config),
                         est.save_state());
  const auto ck = ckpt::read_checkpoint(path);
  const auto other =
      live_config(api::FlowDefinition::prefix24, 4.0, 4.0);
  EXPECT_THROW(
      agg::check_compatible(ck.meta, agg::PartialMeta::from_live(other)),
      std::runtime_error);
}

// ---------------------------------------------------------------- engine ---

std::vector<engine::LinkSpec> test_links() {
  std::vector<engine::LinkSpec> specs;
  specs.push_back(engine::parse_link_spec("wide=10.0.0.0/8"));
  specs.push_back(engine::parse_link_spec("narrow=10.1.0.0/16"));
  specs.push_back(engine::parse_link_spec("tap=all"));
  return specs;
}

engine::EngineConfig engine_config(std::size_t threads) {
  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live = live_config(api::FlowDefinition::five_tuple, 4.0, 4.0);
  config.threads = threads;
  return config;
}

agg::PartialMeta engine_meta(const engine::EngineConfig& config) {
  agg::PartialMeta meta = agg::PartialMeta::from_live(config.live);
  meta.engine = true;
  const auto specs = test_links();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    meta.links.push_back({static_cast<std::uint32_t>(i), specs[i].name});
  }
  return meta;
}

/// Tagged line stream of an uninterrupted engine run.
std::vector<std::string> engine_reference(
    const std::vector<net::PacketRecord>& packets, std::size_t threads) {
  engine::Engine eng(engine_config(threads));
  for (auto& spec : test_links()) (void)eng.attach(std::move(spec));
  std::vector<std::string> lines;
  eng.set_report_sink([&](engine::LinkReport&& r) {
    lines.push_back(engine::to_jsonl(r));
  });
  push_all(eng, packets);
  eng.finish();
  return lines;
}

std::vector<std::string> engine_resumed(
    const std::vector<net::PacketRecord>& packets, std::size_t threads,
    std::size_t cut, const std::filesystem::path& path) {
  std::vector<std::string> lines;
  const engine::EngineConfig config = engine_config(threads);
  {
    engine::Engine first(config);
    for (auto& spec : test_links()) (void)first.attach(std::move(spec));
    first.set_report_sink([&](engine::LinkReport&& r) {
      lines.push_back(engine::to_jsonl(r));
    });
    push_all(first, std::span(packets).first(cut));
    ckpt::write_checkpoint(path, engine_meta(config), first.save_state());
    // Abandoned unfinished — ~Engine joins the pool like a dying process.
  }

  const ckpt::Checkpoint ck = ckpt::read_checkpoint(path);
  EXPECT_EQ(ck.kind, ckpt::CheckpointKind::engine);
  agg::check_compatible(ck.meta, engine_meta(config));
  EXPECT_EQ(ck.packets_consumed(), cut);

  engine::Engine second(config);
  for (auto& spec : test_links()) (void)second.attach(std::move(spec));
  second.restore_state(ck.engine);
  second.set_report_sink([&](engine::LinkReport&& r) {
    lines.push_back(engine::to_jsonl(r));
  });
  push_all(second, std::span(packets).subspan(cut));
  second.finish();
  return lines;
}

/// The per-link subsequence of a tagged line stream: pool scheduling may
/// interleave different links' reports differently, but each link's own
/// stream is pinned.
std::vector<std::string> link_lines(const std::vector<std::string>& lines,
                                    const std::string& name) {
  const std::string tag = "\"link\": \"" + name + "\"";
  std::vector<std::string> out;
  for (const auto& l : lines) {
    if (l.find(tag) != std::string::npos) out.push_back(l);
  }
  return out;
}

TEST(CheckpointDifferential, EngineInlineSessions) {
  const auto packets = seeded_trace();
  const auto ref = engine_reference(packets, 1);
  ASSERT_GT(ref.size(), 10u);
  for (const std::size_t cut : {packets.size() / 3, packets.size() / 2}) {
    const auto got =
        engine_resumed(packets, 1, cut, temp_ckpt(std::to_string(cut)));
    // threads == 1: report order is fully deterministic — whole-stream
    // byte identity.
    ASSERT_EQ(ref.size(), got.size()) << "cut at packet " << cut;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << "report " << i << ", cut " << cut;
    }
  }
}

TEST(CheckpointDifferential, EngineWorkerPool) {
  const auto packets = seeded_trace();
  const auto ref = engine_reference(packets, 1);
  const auto got = engine_resumed(packets, 3, packets.size() / 2,
                                  temp_ckpt("pool"));
  // Pool mode pins per-link streams, not the interleaving.
  ASSERT_EQ(ref.size(), got.size());
  for (const char* name : {"wide", "narrow", "tap"}) {
    const auto want = link_lines(ref, name);
    const auto have = link_lines(got, name);
    ASSERT_EQ(want.size(), have.size()) << "link " << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], have[i]) << "link " << name << ", report " << i;
    }
  }
}

TEST(CheckpointDifferential, EngineRestoreRefusesWrongLinks) {
  const auto packets = seeded_trace(20.0);
  const engine::EngineConfig config = engine_config(1);
  const auto path = temp_ckpt("links");
  {
    engine::Engine eng(config);
    for (auto& spec : test_links()) (void)eng.attach(std::move(spec));
    eng.set_report_sink([](engine::LinkReport&&) {});
    push_all(eng, std::span(packets).first(2000));
    ckpt::write_checkpoint(path, engine_meta(config), eng.save_state());
  }
  const auto ck = ckpt::read_checkpoint(path);

  {  // missing link
    engine::Engine eng(config);
    (void)eng.attach(engine::parse_link_spec("wide=10.0.0.0/8"));
    EXPECT_THROW(eng.restore_state(ck.engine), std::runtime_error);
  }
  {  // renamed link
    engine::Engine eng(config);
    (void)eng.attach(engine::parse_link_spec("wide=10.0.0.0/8"));
    (void)eng.attach(engine::parse_link_spec("other=10.1.0.0/16"));
    (void)eng.attach(engine::parse_link_spec("tap=all"));
    EXPECT_THROW(eng.restore_state(ck.engine), std::runtime_error);
  }
}

TEST(CheckpointDifferential, EngineSaveStateRefusesBatchMode) {
  engine::EngineConfig config;
  config.mode = engine::EngineMode::batch;
  engine::Engine eng(config);
  EXPECT_THROW((void)eng.save_state(), std::logic_error);
}

}  // namespace
}  // namespace fbm
