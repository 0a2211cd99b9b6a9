// TraceSource::reset() (windowed replay and the differential harnesses
// rewind sources instead of silently reading an exhausted one) and the
// streaming pcap path (open_trace on .pcap no longer materializes the whole
// capture; records stream out identical to the batch importer's).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "../support/model_spec.hpp"
#include "api/api.hpp"
#include "scenario/source.hpp"
#include "stats/rng.hpp"
#include "trace/pcap.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"

namespace fbm {
namespace {

namespace fs = std::filesystem;

class TraceSourceResetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-case directory: gtest_discover_tests runs each case as its
    // own process under ctest -j, and a shared directory would race with
    // TearDown's remove_all in a sibling case.
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("fbm_source_reset_test_" + std::string(info->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  [[nodiscard]] fs::path file(const std::string& name) const {
    return dir_ / name;
  }
  fs::path dir_;
};

std::vector<net::PacketRecord> sample_packets(int n, std::uint64_t seed = 7) {
  stats::Rng rng(seed);
  std::vector<net::PacketRecord> out;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(200.0);
    net::PacketRecord r;
    r.timestamp = t;
    r.tuple.src = net::Ipv4Address(10, 1, 0, 1);
    r.tuple.dst = net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(0, ~0u)));
    r.tuple.src_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    r.tuple.dst_port = 443;
    r.tuple.protocol = rng.bernoulli(0.7) ? 6 : 17;
    r.size_bytes = static_cast<std::uint32_t>(rng.uniform_int(40, 1500));
    out.push_back(r);
  }
  return out;
}

using api::read_all;

void expect_same(const std::vector<net::PacketRecord>& a,
                 const std::vector<net::PacketRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp) << i;
    EXPECT_EQ(a[i].size_bytes, b[i].size_bytes) << i;
    EXPECT_EQ(a[i].tuple.src_port, b[i].tuple.src_port) << i;
  }
}

void expect_replays(api::TraceSource& source) {
  const auto first = read_all(source);
  EXPECT_FALSE(first.empty());
  net::PacketBatch batch;
  EXPECT_EQ(source.next_batch(batch, 16), 0u);  // exhausted
  ASSERT_TRUE(source.reset());
  const auto second = read_all(source);
  expect_same(first, second);
}

TEST_F(TraceSourceResetTest, VectorSourceReplays) {
  api::VectorTraceSource source(sample_packets(50));
  expect_replays(source);
}

TEST_F(TraceSourceResetTest, FileSourceReplays) {
  const auto path = file("t.fbmt");
  trace::write_trace(path, sample_packets(50));
  api::FileTraceSource source(path);
  expect_replays(source);
}

TEST_F(TraceSourceResetTest, PcapSourceReplays) {
  const auto path = file("t.pcap");
  trace::export_pcap(path, sample_packets(50));
  api::PcapTraceSource source(path);
  expect_replays(source);
}

TEST_F(TraceSourceResetTest, SyntheticSourceReplays) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 5.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(2e6);
  cfg.seed = 11;
  api::SyntheticTraceSource source(cfg);
  expect_replays(source);
}

TEST_F(TraceSourceResetTest, ModelSourceReplays) {
  scenario::ScenarioTraceSource source(testsupport::model_spec(
      5.0, 30.0, std::log(3e4), 1.0, std::log(0.4), 0.8, 13));
  expect_replays(source);
}

TEST_F(TraceSourceResetTest, BaseContractIsSinglePass) {
  // A TraceSource that does not override reset() stays single-pass and says
  // so, instead of silently replaying garbage.
  struct OnceSource final : api::TraceSource {
    int left = 3;
    std::size_t next_batch(net::PacketBatch& out, std::size_t) override {
      out.clear();
      if (left == 0) return 0;
      --left;
      net::PacketRecord p;
      p.timestamp = static_cast<double>(3 - left);
      out.push_back(p);
      return 1;
    }
  } source;
  EXPECT_EQ(read_all(source).size(), 3u);
  EXPECT_FALSE(source.reset());
}

// ------------------------------------------------------ streaming pcap ---

TEST_F(TraceSourceResetTest, PcapStreamsIdenticalToBatchImport) {
  const auto path = file("stream.pcap");
  const auto packets = sample_packets(200);
  trace::export_pcap(path, packets);

  const auto batch = trace::import_pcap(path);
  auto source = api::open_trace(path);
  const auto streamed = read_all(*source);
  ASSERT_EQ(batch.size(), streamed.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].timestamp, streamed[i].timestamp) << i;
    EXPECT_EQ(batch[i].size_bytes, streamed[i].size_bytes) << i;
    EXPECT_EQ(batch[i].tuple.src.value(), streamed[i].tuple.src.value()) << i;
    EXPECT_EQ(batch[i].tuple.dst.value(), streamed[i].tuple.dst.value()) << i;
  }
}

TEST_F(TraceSourceResetTest, OpenTraceServesPcapWithoutMaterializing) {
  const auto path = file("typed.pcap");
  trace::export_pcap(path, sample_packets(10));
  auto source = api::open_trace(path);
  // A pcap opens as the streaming reader, not as an imported vector.
  EXPECT_NE(dynamic_cast<api::PcapTraceSource*>(source.get()), nullptr);
}

TEST_F(TraceSourceResetTest, FollowPollsAppendedRecords) {
  // tail -f semantics on a growing .fbmt: EOF means "no data yet", and
  // records appended later stream out on subsequent next_batch() calls.
  const auto path = file("follow.fbmt");
  const auto packets = sample_packets(20);
  {
    trace::TraceWriter writer(path);
    for (std::size_t i = 0; i < 10; ++i) writer.append(packets[i]);
    writer.close();

    api::FileTraceSource source(path, /*follow=*/true);
    EXPECT_EQ(read_all(source).size(), 10u);
    net::PacketBatch batch;
    EXPECT_EQ(source.next_batch(batch, 4), 0u);  // nothing yet — no throw

    // Append the rest (a fresh writer truncates, so re-write everything;
    // the reader keeps its own offset and must pick up records 10..19).
    trace::TraceWriter writer2(path);
    // Re-writing would clobber the reader's offset; append via raw stream
    // is what a live capture does, so emulate it: write a longer file.
    writer2.append_all(packets);
    writer2.close();

    // The reader sits at record offset 10 of the (now longer) file.
    const auto tail = read_all(source);
    ASSERT_EQ(tail.size(), 10u);
    for (std::size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i].timestamp, packets[10 + i].timestamp) << i;
    }
  }
}

TEST_F(TraceSourceResetTest, FollowRejectsCsv) {
  const auto path = file("x.csv");
  std::ofstream(path) << "timestamp,src,dst,sport,dport,proto,bytes\n";
  EXPECT_THROW((void)api::open_trace(path, /*follow=*/true),
               std::invalid_argument);
}

}  // namespace
}  // namespace fbm
