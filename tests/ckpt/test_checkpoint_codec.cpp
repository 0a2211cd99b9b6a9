// Checkpoint codec under hostile input (mirrors tests/agg/
// test_partial_codec.cpp): truncation at every byte boundary, flipped bits,
// wrong magic, future versions, trailing garbage, a missing end frame, a
// mismatched frame count — every defect is rejected with a one-line
// diagnostic naming the file, never silently restored. A checkpoint is
// end-framed (unlike the report store): a torn tail is a hard error, the
// previous checkpoint file is the recovery path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../support/push.hpp"
#include "ckpt/checkpoint.hpp"
#include "live/live.hpp"
#include "trace/synthetic.hpp"

namespace fbm::ckpt {
namespace {

using testsupport::push_all;

std::filesystem::path temp_path(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::filesystem::path(::testing::TempDir()) /
         ("ckpt_codec_" + std::string(info->name()) + "_" + tag + ".fbmc");
}

std::vector<char> slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::filesystem::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

live::LiveConfig sample_config() {
  live::LiveConfig config;
  config.window_s = 4.0;
  config.stride_s = 2.0;
  config.analysis.timeout_s(3.0);
  return config;
}

/// A checkpoint with real mid-stream state: open windows, active flows,
/// forecast history.
std::filesystem::path write_sample(const std::string& tag) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 30.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(6e6);
  cfg.seed = 99;
  const auto packets = trace::generate_packets(cfg);

  const live::LiveConfig config = sample_config();
  live::WindowedEstimator est(config);
  est.set_window_sink([](live::WindowReport&&) {});
  push_all(est, std::span(packets).first(packets.size() / 2));

  const auto path = temp_path(tag);
  write_checkpoint(path, agg::PartialMeta::from_live(config),
                   est.save_state());
  return path;
}

void expect_rejected(const std::filesystem::path& path,
                     const std::string& needle) {
  try {
    (void)read_checkpoint(path);
    FAIL() << "expected rejection mentioning \"" << needle << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
    EXPECT_NE(std::string(e.what()).find(path.filename().string()),
              std::string::npos)
        << "diagnostic must name the file: " << e.what();
  }
}

TEST(CheckpointCodec, RoundTripsState) {
  const auto path = write_sample("rt");
  const Checkpoint ck = read_checkpoint(path);
  EXPECT_EQ(ck.kind, CheckpointKind::estimator);
  EXPECT_GT(ck.estimator.counters.packets, 0u);
  EXPECT_FALSE(ck.estimator.open.empty());
  // Restoring and resuming must work (the differential test proves the
  // output; here we just prove the codec hands back usable state).
  live::WindowedEstimator est(sample_config());
  EXPECT_NO_THROW(est.restore_state(ck.estimator));
  EXPECT_EQ(est.counters().packets, ck.estimator.counters.packets);
}

TEST(CheckpointCodec, AtomicRename_NoTmpLeftBehind) {
  const auto path = write_sample("atomic");
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}

TEST(CheckpointCodec, RejectsMissingFile) {
  expect_rejected(temp_path("nonexistent"), "cannot open");
}

TEST(CheckpointCodec, RejectsBadMagic) {
  const auto path = write_sample("magic");
  auto bytes = slurp(path);
  bytes[0] ^= 0x01;
  spit(path, bytes);
  expect_rejected(path, "not a checkpoint (bad magic)");
}

TEST(CheckpointCodec, RejectsFutureVersion) {
  const auto path = write_sample("ver");
  auto bytes = slurp(path);
  bytes[4] = 0x7f;
  spit(path, bytes);
  expect_rejected(path, "unsupported version");
}

TEST(CheckpointCodec, RefusesVersionOneNamingIt) {
  // Version 1 stored flow records and table slots; it must never be read
  // as flow sums.
  const auto path = write_sample("v1");
  auto bytes = slurp(path);
  const std::uint32_t v = 1;
  std::memcpy(bytes.data() + 4, &v, sizeof v);
  spit(path, bytes);
  expect_rejected(path, "unsupported version 1");
}

TEST(CheckpointCodec, RejectsTruncationAtEveryBoundary) {
  const auto path = write_sample("trunc");
  const auto bytes = slurp(path);
  // A dense sweep near the header plus coarse cuts through the body keeps
  // runtime reasonable while still hitting frame-header, payload and
  // checksum cuts.
  const auto probe = temp_path("trunc_probe");
  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut < 64 ? 1 : 97)) {
    spit(probe, std::vector<char>(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut)));
    EXPECT_THROW((void)read_checkpoint(probe), std::runtime_error)
        << "cut at byte " << cut << " must not parse";
  }
}

/// Byte ranges the checksums deliberately do not cover: the file header's
/// u64 reserved and each frame header's u32 reserved. Everything else must
/// be flip-detected.
std::vector<std::pair<std::size_t, std::size_t>> reserved_ranges(
    const std::vector<char>& bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.emplace_back(8, 16);
  std::size_t pos = 16;
  while (pos + 16 <= bytes.size()) {
    out.emplace_back(pos + 4, pos + 8);
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos + 8, sizeof(len));
    pos += 16 + len + 8;
  }
  return out;
}

TEST(CheckpointCodec, RejectsFlippedBitAnywhere) {
  const auto path = write_sample("flip");
  const auto bytes = slurp(path);
  const auto reserved = reserved_ranges(bytes);
  const auto probe = temp_path("flip_probe");
  // Flip one bit in every 53rd byte (coprime stride covers all regions:
  // frame headers, payloads, checksums), skipping unchecksummed reserved
  // padding.
  for (std::size_t at = 16; at < bytes.size(); at += 53) {
    bool is_reserved = false;
    for (const auto& [lo, hi] : reserved) {
      if (at >= lo && at < hi) is_reserved = true;
    }
    if (is_reserved) continue;
    auto corrupt = bytes;
    corrupt[at] ^= 0x10;
    spit(probe, corrupt);
    EXPECT_THROW((void)read_checkpoint(probe), std::runtime_error)
        << "flipped bit at byte " << at << " must not parse";
  }
}

TEST(CheckpointCodec, RejectsTrailingGarbage) {
  const auto path = write_sample("trail");
  auto bytes = slurp(path);
  for (int i = 0; i < 24; ++i) bytes.push_back(static_cast<char>(i));
  spit(path, bytes);
  expect_rejected(path, "trailing data");
}

TEST(CheckpointCodec, RejectsMissingEndFrame) {
  const auto path = write_sample("noend");
  auto bytes = slurp(path);
  // The end frame is the last 40 bytes: 16-byte frame header + 16-byte
  // payload (frame count + packet total) + 8-byte checksum.
  bytes.resize(bytes.size() - 40);
  spit(path, bytes);
  expect_rejected(path, "truncated");
}

TEST(CheckpointCodec, EngineCheckpointRoundTrips) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 20.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(6e6);
  cfg.seed = 7;
  const auto packets = trace::generate_packets(cfg);

  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live = sample_config();
  engine::Engine eng(config);
  (void)eng.attach(engine::parse_link_spec("a=10.0.0.0/8"));
  (void)eng.attach(engine::parse_link_spec("tap=all"));
  eng.set_report_sink([](engine::LinkReport&&) {});
  push_all(eng, std::span(packets).first(packets.size() / 2));

  agg::PartialMeta meta = agg::PartialMeta::from_live(config.live);
  meta.engine = true;
  meta.links = {{0, "a"}, {1, "tap"}};
  const auto path = temp_path("engine");
  write_checkpoint(path, meta, eng.save_state());

  const Checkpoint ck = read_checkpoint(path);
  EXPECT_EQ(ck.kind, CheckpointKind::engine);
  ASSERT_EQ(ck.engine.sessions.size(), 2u);
  EXPECT_EQ(ck.engine.sessions[0].name, "a");
  EXPECT_EQ(ck.engine.sessions[1].name, "tap");
  EXPECT_TRUE(ck.engine.sessions[0].has_live);
  EXPECT_GT(ck.packets_consumed(), 0u);
}

TEST(CheckpointCodec, EngineRejectsSpliceDroppedSessionFrame) {
  // Remove the final session frame: the reader must notice the engine
  // frame declared more sessions than arrived.
  trace::SyntheticConfig cfg;
  cfg.duration_s = 12.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(4e6);
  cfg.seed = 3;
  const auto packets = trace::generate_packets(cfg);

  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live = sample_config();
  engine::Engine eng(config);
  (void)eng.attach(engine::parse_link_spec("a=10.0.0.0/8"));
  (void)eng.attach(engine::parse_link_spec("tap=all"));
  eng.set_report_sink([](engine::LinkReport&&) {});
  push_all(eng, std::span(packets).first(packets.size() / 2));

  agg::PartialMeta meta = agg::PartialMeta::from_live(config.live);
  meta.engine = true;
  meta.links = {{0, "a"}, {1, "tap"}};
  const auto path = temp_path("splice");
  write_checkpoint(path, meta, eng.save_state());

  // Splice the last session frame out wholesale (checksum intact, end
  // frame intact): the end frame's frame-count cross-check must notice.
  const auto bytes = slurp(path);
  std::size_t pos = 16;
  std::size_t frame_start = 0;
  std::size_t frame_end = 0;
  while (pos + 16 <= bytes.size()) {
    std::uint32_t type = 0;
    std::uint64_t len = 0;
    std::memcpy(&type, bytes.data() + pos, sizeof(type));
    std::memcpy(&len, bytes.data() + pos + 8, sizeof(len));
    const std::size_t next = pos + 16 + len + 8;
    if (type == 4) {  // session frame
      frame_start = pos;
      frame_end = next;
    }
    pos = next;
  }
  ASSERT_GT(frame_end, frame_start);
  std::vector<char> spliced(bytes.begin(),
                            bytes.begin() + static_cast<long>(frame_start));
  spliced.insert(spliced.end(),
                 bytes.begin() + static_cast<long>(frame_end), bytes.end());
  spit(path, spliced);
  expect_rejected(path, "mismatch");
}

}  // namespace
}  // namespace fbm::ckpt
