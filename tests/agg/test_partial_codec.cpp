// PartialReport codec: write → read round-trips every field bit for bit,
// and every way a file can lie — truncation, bit flips, wrong magic, a
// future version, garbage after the end frame, a spliced-out window frame —
// is rejected with a diagnostic naming the file, never silently folded.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "agg/partial_codec.hpp"

namespace fbm::agg {
namespace {

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::path(::testing::TempDir()) / name;
}

std::vector<char> slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::filesystem::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A deterministic pseudo-random window: integral byte bins (the only kind
/// the pipelines produce) and the sums of a handful of flow records.
api::WindowPartial make_window(std::int64_t index, double start, double width,
                               double delta, std::uint64_t seed,
                               int nflows = 17) {
  std::mt19937_64 rng(seed);
  stats::RateBinner bins(start, start + width, delta);
  std::uniform_real_distribution<double> ts(start, start + width);
  std::uniform_int_distribution<int> sz(40, 1500);
  for (int i = 0; i < 200; ++i) bins.add(ts(rng), sz(rng));
  flow::FlowSums sums;
  std::uniform_real_distribution<double> dur(0.01, width / 2);
  for (int i = 0; i < nflows; ++i) {
    flow::FlowRecord f;
    f.start = ts(rng);
    f.end = f.start + dur(rng);
    f.size_bytes = static_cast<std::uint64_t>(sz(rng)) * 10;
    f.packets = 10;
    f.continued = i % 3 == 0;
    sums.add(f);
  }
  return api::WindowPartial{.index = static_cast<std::int64_t>(index),
                            .packets = seed * 3,
                            .bytes = seed * 7,
                            .discards = seed % 5,
                            .sums = sums,
                            .bins = std::move(bins)};
}

PartialMeta batch_meta(api::FlowDefinition def) {
  api::AnalysisConfig cfg;
  cfg.flow_definition(def).timeout_s(2.0).interval_s(10.0).min_flows(3);
  return PartialMeta::from_batch(cfg);
}

/// Writes a small but fully-populated file: meta, two windows, totals.
std::filesystem::path write_sample(const std::string& name,
                                   api::FlowDefinition def =
                                       api::FlowDefinition::five_tuple) {
  const auto path = temp_path(name);
  PartialWriter writer(path, batch_meta(def));
  writer.add(0, make_window(0, 0.0, 10.0, 0.2, 11));
  writer.add(0, make_window(1, 10.0, 10.0, 0.2, 12));
  trace::TraceSummary s;
  s.packets = 3400;
  s.total_bytes = 1900000;
  s.first_ts = 0.004;
  s.last_ts = 19.2;
  writer.finish({s, {}});
  return path;
}

void expect_rejected(const std::filesystem::path& path,
                     const std::string& needle) {
  try {
    (void)read_partial_file(path);
    FAIL() << "expected rejection mentioning \"" << needle << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
    EXPECT_NE(std::string(e.what()).find(path.filename().string()),
              std::string::npos)
        << "diagnostic must name the file: " << e.what();
  }
}

TEST(PartialCodec, RoundTripsEveryFieldBitForBit) {
  for (const auto def :
       {api::FlowDefinition::five_tuple, api::FlowDefinition::prefix24}) {
    for (std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
      const auto path = temp_path("roundtrip.fbmp");
      const PartialMeta meta = batch_meta(def);
      const auto w0 = make_window(0, 0.0, 10.0, 0.2, seed);
      const auto w1 = make_window(3, 30.0, 10.0, 0.2, seed + 1);
      trace::TraceSummary s;
      s.packets = 100 + seed;
      s.total_bytes = 5000 * seed;
      s.first_ts = 0.25;
      s.last_ts = 39.75;
      {
        PartialWriter writer(path, meta);
        writer.add(0, w0);
        writer.add(0, w1);
        EXPECT_EQ(writer.windows_written(), 2u);
        writer.finish({s, {}});
      }

      const PartialFile file = read_partial_file(path);
      EXPECT_EQ(file.meta.kind, PartialKind::batch);
      EXPECT_EQ(file.meta.flow_def, def);
      EXPECT_EQ(file.meta.timeout_s, 2.0);
      EXPECT_EQ(file.meta.interval_s, 10.0);
      EXPECT_EQ(file.meta.min_flows, 3u);
      EXPECT_FALSE(file.meta.engine);
      ASSERT_EQ(file.windows.size(), 2u);
      EXPECT_EQ(file.totals.summary.packets, s.packets);
      EXPECT_EQ(file.totals.summary.total_bytes, s.total_bytes);
      EXPECT_EQ(file.totals.summary.first_ts, s.first_ts);
      EXPECT_EQ(file.totals.summary.last_ts, s.last_ts);

      for (std::size_t i = 0; i < 2; ++i) {
        const auto& want = i == 0 ? w0 : w1;
        const auto& got = file.windows[i].window;
        EXPECT_EQ(file.windows[i].link_id, 0u);
        EXPECT_EQ(got.index, want.index);
        EXPECT_EQ(got.packets, want.packets);
        EXPECT_EQ(got.bytes, want.bytes);
        EXPECT_EQ(got.discards, want.discards);
        EXPECT_EQ(got.sums.n, want.sums.n);
        EXPECT_EQ(got.sums.continued, want.sums.continued);
        EXPECT_EQ(got.sums.size_bytes, want.sums.size_bytes);
        EXPECT_TRUE(got.sums.size_bytes_sq == want.sums.size_bytes_sq);
        EXPECT_TRUE(got.sums.s2_over_d == want.sums.s2_over_d);
        EXPECT_TRUE(got.sums.duration == want.sums.duration);
        EXPECT_TRUE(got.sums.duration_sq == want.sums.duration_sq);
        EXPECT_TRUE(got.sums.rate == want.sums.rate);
        EXPECT_EQ(got.bins.grid_start(), want.bins.grid_start());
        EXPECT_EQ(got.bins.grid_end(), want.bins.grid_end());
        EXPECT_EQ(got.bins.grid_delta(), want.bins.grid_delta());
        EXPECT_EQ(got.bins.dropped(), want.bins.dropped());
        EXPECT_EQ(got.bins.total_bytes(), want.bins.total_bytes());
        ASSERT_EQ(got.bins.bin_bytes().size(), want.bins.bin_bytes().size());
        for (std::size_t k = 0; k < want.bins.bin_bytes().size(); ++k) {
          EXPECT_EQ(got.bins.bin_bytes()[k], want.bins.bin_bytes()[k]);
        }
      }
    }
  }
}

TEST(PartialCodec, RoundTripsLiveEngineMetaAndLinkTotals) {
  const auto path = temp_path("engine_live.fbmp");
  live::LiveConfig cfg;
  cfg.window_s = 8.0;
  cfg.stride_s = 4.0;
  cfg.analysis.flow_definition(api::FlowDefinition::prefix24).timeout_s(3.0);
  PartialMeta meta = PartialMeta::from_live(cfg);
  meta.engine = true;
  meta.links = {{0, "core"}, {1, "edge"}};
  {
    PartialWriter writer(path, meta);
    writer.add(1, make_window(0, 0.0, 8.0, 0.2, 4));
    trace::TraceSummary s;
    s.packets = 12;
    s.total_bytes = 9000;
    s.first_ts = 0.5;
    s.last_ts = 7.5;
    writer.finish({s, {{0, 5, 4000}, {1, 7, 5000}}});
  }
  const PartialFile file = read_partial_file(path);
  EXPECT_EQ(file.meta.kind, PartialKind::live);
  EXPECT_EQ(file.meta.window_s, 8.0);
  EXPECT_EQ(file.meta.stride_s, 4.0);
  EXPECT_TRUE(file.meta.engine);
  ASSERT_EQ(file.meta.links.size(), 2u);
  EXPECT_EQ(file.meta.links[1].name, "edge");
  ASSERT_EQ(file.windows.size(), 1u);
  EXPECT_EQ(file.windows[0].link_id, 1u);
  ASSERT_EQ(file.totals.links.size(), 2u);
  EXPECT_EQ(file.totals.links[0].packets, 5u);
  EXPECT_EQ(file.totals.links[1].bytes, 5000u);
}

TEST(PartialCodec, RejectsMissingAndEmptyFiles) {
  expect_rejected(temp_path("nope.fbmp"), "partial file");
  const auto empty = temp_path("empty.fbmp");
  spit(empty, {});
  expect_rejected(empty, "truncated");
}

TEST(PartialCodec, RejectsWrongMagic) {
  const auto path = write_sample("magic.fbmp");
  auto bytes = slurp(path);
  bytes[0] ^= 0x01;
  spit(path, bytes);
  expect_rejected(path, "bad magic");
}

TEST(PartialCodec, RejectsFutureVersion) {
  const auto path = write_sample("version.fbmp");
  auto bytes = slurp(path);
  const std::uint32_t v = kPartialVersion + 1;
  std::memcpy(bytes.data() + 4, &v, sizeof v);
  spit(path, bytes);
  expect_rejected(path, "unsupported version");
}

TEST(PartialCodec, RefusesVersionOneNamingIt) {
  // Version 1 shipped flow records; its window frames must never be read
  // as sums.
  const auto path = write_sample("v1.fbmp");
  auto bytes = slurp(path);
  const std::uint32_t v = 1;
  std::memcpy(bytes.data() + 4, &v, sizeof v);
  spit(path, bytes);
  expect_rejected(path, "unsupported version 1");
}

TEST(PartialCodec, WindowFrameSizeDoesNotDependOnFlowCount) {
  const auto frame_lengths = [](const std::filesystem::path& path) {
    const auto bytes = slurp(path);
    std::vector<std::uint64_t> lengths;
    for (std::size_t pos = 16; pos + 16 <= bytes.size();) {
      std::uint32_t type = 0;
      std::uint64_t len = 0;
      std::memcpy(&type, bytes.data() + pos, 4);
      std::memcpy(&len, bytes.data() + pos + 8, 8);
      if (type == 2) lengths.push_back(len);
      pos += 16 + len + 8;
    }
    return lengths;
  };
  const auto path = temp_path("fixed_size.fbmp");
  {
    PartialWriter writer(path, batch_meta(api::FlowDefinition::five_tuple));
    writer.add(0, make_window(0, 0.0, 10.0, 0.2, 5, /*nflows=*/0));
    writer.add(0, make_window(1, 10.0, 10.0, 0.2, 6, /*nflows=*/1));
    writer.add(0, make_window(2, 20.0, 10.0, 0.2, 7, /*nflows=*/50000));
    writer.finish({});
  }
  const auto lengths = frame_lengths(path);
  ASSERT_EQ(lengths.size(), 3u);
  EXPECT_EQ(lengths[0], lengths[1]);
  EXPECT_EQ(lengths[0], lengths[2]);
  EXPECT_EQ(read_partial_file(path).windows[2].window.sums.n, 50000u);
}

TEST(PartialCodec, RejectsTruncationAtEveryBoundary) {
  const auto path = write_sample("trunc.fbmp");
  const auto bytes = slurp(path);
  // Cut inside the header, inside a frame header, inside a payload, and
  // just before the end frame — all must fail, with distinct diagnostics
  // but the same outcome.
  for (const std::size_t keep :
       {std::size_t{7}, std::size_t{20}, bytes.size() / 2,
        bytes.size() - 40, bytes.size() - 1}) {
    const auto cut = temp_path("trunc_cut.fbmp");
    spit(cut, std::vector<char>(bytes.begin(),
                                bytes.begin() + static_cast<long>(keep)));
    expect_rejected(cut, "truncated");
  }
}

TEST(PartialCodec, RejectsEveryFlippedPayloadBit) {
  const auto path = write_sample("flip.fbmp");
  const auto bytes = slurp(path);
  // Flip a byte in several payload regions (past the 16-byte file header
  // and the 16-byte frame header — inside the meta payload, and deep
  // inside window payloads).
  for (const std::size_t at : {std::size_t{40}, bytes.size() / 3,
                               2 * bytes.size() / 3, bytes.size() - 30}) {
    auto corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
    const auto cut = temp_path("flip_bit.fbmp");
    spit(cut, corrupt);
    // Depending on the byte hit, the checksum catches it, the payload
    // bounds checks catch it, or the frame walk detects truncation — but
    // a flipped bit must never read back successfully.
    EXPECT_THROW((void)read_partial_file(cut), std::runtime_error)
        << "flipping byte " << at << " was not rejected";
  }
}

TEST(PartialCodec, RejectsTrailingGarbage) {
  const auto path = write_sample("trailing.fbmp");
  auto bytes = slurp(path);
  bytes.push_back('x');
  spit(path, bytes);
  expect_rejected(path, "trailing");
}

TEST(PartialCodec, RejectsSplicedOutWindowFrame) {
  // Remove one complete, checksum-valid window frame: every remaining frame
  // still verifies, so only the end frame's window count can catch it.
  const auto path = write_sample("splice.fbmp");
  auto bytes = slurp(path);
  // Walk the frames to find the first window frame (type 2).
  std::size_t pos = 16;  // past the file header
  while (pos + 16 <= bytes.size()) {
    std::uint32_t type = 0;
    std::uint64_t len = 0;
    std::memcpy(&type, bytes.data() + pos, 4);
    std::memcpy(&len, bytes.data() + pos + 8, 8);
    const std::size_t frame = 16 + len + 8;  // header + payload + checksum
    if (type == 2) {
      bytes.erase(bytes.begin() + static_cast<long>(pos),
                  bytes.begin() + static_cast<long>(pos + frame));
      break;
    }
    pos += frame;
  }
  spit(path, bytes);
  expect_rejected(path, "window");
}

TEST(PartialCodec, CheckCompatibleNamesTheMismatch) {
  const PartialMeta a = batch_meta(api::FlowDefinition::five_tuple);
  PartialMeta b = a;
  EXPECT_NO_THROW(check_compatible(a, b));

  b.timeout_s = 9.0;
  EXPECT_THROW(check_compatible(a, b), std::runtime_error);

  b = a;
  b.flow_def = api::FlowDefinition::prefix24;
  EXPECT_THROW(check_compatible(a, b), std::runtime_error);

  b = a;
  b.kind = PartialKind::live;
  EXPECT_THROW(check_compatible(a, b), std::runtime_error);

  b = a;
  b.engine = true;
  b.links = {{0, "core"}};
  EXPECT_THROW(check_compatible(a, b), std::runtime_error);
}

}  // namespace
}  // namespace fbm::agg
