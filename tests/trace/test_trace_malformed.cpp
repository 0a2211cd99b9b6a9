// Malformed-input hardening for the trace readers: truncated headers,
// zero-length packets, out-of-order timestamps and assorted garbage must
// produce a clean error (or a well-defined skip) — never a crash, hang or
// silently wrong analysis. Exercised through trace::TraceReader /
// import_pcap directly and through the api::open_trace → pipeline path the
// tools use.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_format.hpp"

namespace fbm {
namespace {

class TraceMalformedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-case directory: gtest_discover_tests runs each case as its
    // own process under ctest -j, and a shared directory would race with
    // TearDown's remove_all in a sibling case.
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("fbm_malformed_" + std::string(info->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::filesystem::path path(const std::string& name) const {
    return dir_ / name;
  }

  void write_bytes(const std::filesystem::path& p,
                   const std::vector<char>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

net::PacketRecord packet(double ts, std::uint32_t size_bytes,
                         std::uint16_t sport = 1000) {
  net::PacketRecord p;
  p.timestamp = ts;
  p.tuple.src = net::Ipv4Address(10, 0, 0, 1);
  p.tuple.dst = net::Ipv4Address(10, 0, 0, 2);
  p.tuple.src_port = sport;
  p.tuple.dst_port = 80;
  p.tuple.protocol = 6;
  p.size_bytes = size_bytes;
  return p;
}

// ------------------------------------------------------------ .fbmt files ---

TEST_F(TraceMalformedTest, FbmtTruncatedHeaderThrows) {
  // Shorter than the 24-byte header, starting with valid magic bytes.
  write_bytes(path("trunc.fbmt"), {'F', 'B', 'M', 'T', 1, 0});
  EXPECT_THROW(trace::TraceReader reader(path("trunc.fbmt")),
               std::runtime_error);
  EXPECT_THROW((void)api::open_trace(path("trunc.fbmt")), std::runtime_error);
}

TEST_F(TraceMalformedTest, FbmtEmptyFileThrows) {
  write_bytes(path("empty.fbmt"), {});
  EXPECT_THROW(trace::TraceReader reader(path("empty.fbmt")),
               std::runtime_error);
}

TEST_F(TraceMalformedTest, FbmtTruncatedRecordThrowsMidStream) {
  trace::write_trace(path("cut.fbmt"), std::vector<net::PacketRecord>{
                                           packet(0.0, 500),
                                           packet(1.0, 600),
                                       });
  // Chop the last record in half.
  std::filesystem::resize_file(path("cut.fbmt"),
                               std::filesystem::file_size(path("cut.fbmt")) -
                                   trace::kRecordSize / 2);
  auto source = api::open_trace(path("cut.fbmt"));
  EXPECT_TRUE(source->next().has_value());  // first record still fine
  EXPECT_THROW((void)source->next(), std::runtime_error);
}

TEST_F(TraceMalformedTest, FbmtZeroLengthPacketSurvivesAnalysis) {
  // A zero-byte datagram is odd but representable; the pipeline must carry
  // it (0 bytes contributed) rather than crash or miscount.
  std::vector<net::PacketRecord> recs{packet(0.0, 0), packet(0.5, 0),
                                      packet(1.0, 700, 2000),
                                      packet(1.5, 700, 2000)};
  trace::write_trace(path("zero.fbmt"), recs);
  auto source = api::open_trace(path("zero.fbmt"));
  api::AnalysisConfig config;
  config.interval_s(2.0).timeout_s(10.0);
  api::AnalysisPipeline pipeline(config);
  pipeline.consume(*source);
  EXPECT_EQ(pipeline.summary().packets, 4u);
  EXPECT_EQ(pipeline.summary().total_bytes, 1400u);
  const auto reports = pipeline.take_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].inputs.flows, 2u);  // the zero-size flow counts too
}

TEST_F(TraceMalformedTest, FbmtOutOfOrderTimestampsErrorNeverCrash) {
  // The writer refuses out-of-order input, so craft the file by hand:
  // valid header, two records with decreasing timestamps.
  std::vector<net::PacketRecord> recs{packet(5.0, 500)};
  trace::write_trace(path("ooo.fbmt"), recs);
  {
    // Append a second record with an earlier timestamp, bypassing the
    // writer's ordering check, and patch the header count to 2.
    std::ofstream out(path("ooo.fbmt"),
                      std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(0, std::ios::end);
    const auto early = packet(1.0, 500);
    const double ts = early.timestamp;
    const std::uint32_t src = early.tuple.src.value();
    const std::uint32_t dst = early.tuple.dst.value();
    const std::uint16_t sport = early.tuple.src_port;
    const std::uint16_t dport = early.tuple.dst_port;
    const std::uint8_t proto = early.tuple.protocol;
    const std::uint8_t pad8 = 0;
    const std::uint16_t pad16 = 0;
    const std::uint32_t size = early.size_bytes;
    out.write(reinterpret_cast<const char*>(&ts), 8);
    out.write(reinterpret_cast<const char*>(&src), 4);
    out.write(reinterpret_cast<const char*>(&dst), 4);
    out.write(reinterpret_cast<const char*>(&sport), 2);
    out.write(reinterpret_cast<const char*>(&dport), 2);
    out.write(reinterpret_cast<const char*>(&proto), 1);
    out.write(reinterpret_cast<const char*>(&pad8), 1);
    out.write(reinterpret_cast<const char*>(&pad16), 2);
    out.write(reinterpret_cast<const char*>(&size), 4);
    const std::uint64_t count = 2;
    out.seekp(8);
    out.write(reinterpret_cast<const char*>(&count), 8);
  }

  // The reader streams what the file says; the pipelines are the ordering
  // gate and must reject, not crash — serial and sharded alike.
  {
    auto source = api::open_trace(path("ooo.fbmt"));
    api::AnalysisPipeline pipeline(api::AnalysisConfig{});
    EXPECT_THROW(pipeline.consume(*source), std::invalid_argument);
  }
  {
    auto source = api::open_trace(path("ooo.fbmt"));
    api::AnalysisPipeline pipeline(api::AnalysisConfig{}.threads(3));
    EXPECT_THROW(pipeline.consume(*source), std::invalid_argument);
  }
}

TEST_F(TraceMalformedTest, CsvGarbageFieldsThrowCleanly) {
  {
    std::ofstream out(path("bad.csv"));
    out << "timestamp,src,dst,sport,dport,proto,bytes\n";
    out << "0.5,10.0.0.1,10.0.0.2,80,81,6,not_a_number\n";
  }
  EXPECT_THROW((void)trace::import_csv(path("bad.csv")), std::runtime_error);
}

// ------------------------------------------------------------- .pcap files ---

TEST_F(TraceMalformedTest, PcapTruncatedGlobalHeaderThrows) {
  write_bytes(path("trunc.pcap"),
              {'\xd4', '\xc3', '\xb2', '\xa1', 2, 0});  // LE magic, then EOF
  EXPECT_THROW((void)trace::import_pcap(path("trunc.pcap")),
               std::runtime_error);
}

TEST_F(TraceMalformedTest, PcapGarbageMagicThrows) {
  write_bytes(path("junk.pcap"),
              std::vector<char>(64, '\x5a'));  // plausible length, junk bytes
  EXPECT_THROW((void)trace::import_pcap(path("junk.pcap")),
               std::runtime_error);
}

TEST_F(TraceMalformedTest, PcapTruncatedPacketRecordThrows) {
  std::vector<net::PacketRecord> recs{packet(0.0, 500), packet(1.0, 600)};
  trace::export_pcap(path("cut.pcap"), recs);
  std::filesystem::resize_file(
      path("cut.pcap"), std::filesystem::file_size(path("cut.pcap")) - 10);
  EXPECT_THROW((void)trace::import_pcap(path("cut.pcap")),
               std::runtime_error);
}

TEST_F(TraceMalformedTest, DiagnosticsNameTheOffendingFile) {
  // Every reader error must carry the path — a fleet operator staring at
  // one line of stderr from a 40-trace batch job needs to know which input
  // died (ISSUE 6 satellite: reader error-path hardening).
  const auto expect_names = [](const auto& fn, const std::string& file) {
    try {
      fn();
      FAIL() << "expected a throw naming " << file;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(file), std::string::npos)
          << "diagnostic \"" << e.what() << "\" does not name " << file;
    }
  };

  // .fbmt: truncated mid-record (the header errors already name the file).
  std::vector<net::PacketRecord> recs{packet(0.0, 500), packet(0.5, 700)};
  trace::write_trace(path("cutrec.fbmt"), recs);
  std::filesystem::resize_file(
      path("cutrec.fbmt"),
      std::filesystem::file_size(path("cutrec.fbmt")) - 3);
  expect_names(
      [&] {
        trace::TraceReader reader(path("cutrec.fbmt"));
        while (reader.next()) {
        }
      },
      "cutrec.fbmt");

  // pcap: truncated global header, wrong magic, truncated record.
  write_bytes(path("hdr.pcap"), std::vector<char>(10, 0));
  expect_names([&] { (void)trace::import_pcap(path("hdr.pcap")); },
               "hdr.pcap");
  write_bytes(path("magic.pcap"), std::vector<char>(24, 'x'));
  expect_names([&] { (void)trace::import_pcap(path("magic.pcap")); },
               "magic.pcap");
  trace::export_pcap(path("cutrec.pcap"), recs);
  std::filesystem::resize_file(
      path("cutrec.pcap"),
      std::filesystem::file_size(path("cutrec.pcap")) - 5);
  expect_names([&] { (void)trace::import_pcap(path("cutrec.pcap")); },
               "cutrec.pcap");
}

TEST_F(TraceMalformedTest, PcapZeroLengthPacketRoundTrips) {
  // orig_len = Ethernet header only (zero-byte IP payload reported by the
  // wire): the importer must keep the record with size 0, not crash or
  // underflow.
  std::vector<net::PacketRecord> recs{packet(0.0, 0), packet(0.25, 1200)};
  trace::export_pcap(path("zero.pcap"), recs);
  const auto back = trace::import_pcap(path("zero.pcap"));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].size_bytes, 0u);
  EXPECT_EQ(back[1].size_bytes, 1200u);
}

}  // namespace
}  // namespace fbm
