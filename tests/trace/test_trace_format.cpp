#include "trace/trace_format.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "stats/rng.hpp"

namespace fbm::trace {
namespace {

namespace fs = std::filesystem;

class TraceFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-case directory: gtest_discover_tests runs each case as its
    // own process under ctest -j, and a shared directory would race with
    // TearDown's remove_all in a sibling case.
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("fbm_trace_test_" + std::string(info->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] fs::path file(const std::string& name) const {
    return dir_ / name;
  }

  [[nodiscard]] static std::vector<net::PacketRecord> sample_packets(int n) {
    stats::Rng rng(17);
    std::vector<net::PacketRecord> out;
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
      t += rng.exponential(1000.0);
      net::PacketRecord r;
      r.timestamp = t;
      r.tuple.src = net::Ipv4Address(
          static_cast<std::uint32_t>(rng.uniform_int(0, ~0u)));
      r.tuple.dst = net::Ipv4Address(
          static_cast<std::uint32_t>(rng.uniform_int(0, ~0u)));
      r.tuple.src_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
      r.tuple.dst_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
      r.tuple.protocol = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      r.size_bytes = static_cast<std::uint32_t>(rng.uniform_int(40, 1500));
      out.push_back(r);
    }
    return out;
  }

  fs::path dir_;
};

TEST_F(TraceFormatTest, RoundTripPreservesEveryField) {
  const auto packets = sample_packets(500);
  write_trace(file("a.fbmt"), packets);
  const auto back = read_trace(file("a.fbmt"));
  ASSERT_EQ(back.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(back[i], packets[i]) << i;
  }
}

TEST_F(TraceFormatTest, HeaderCountMatches) {
  const auto packets = sample_packets(123);
  write_trace(file("b.fbmt"), packets);
  TraceReader r(file("b.fbmt"));
  EXPECT_EQ(r.header_count(), 123u);
}

TEST_F(TraceFormatTest, EmptyTrace) {
  write_trace(file("empty.fbmt"), {});
  const auto back = read_trace(file("empty.fbmt"));
  EXPECT_TRUE(back.empty());
  TraceReader r(file("empty.fbmt"));
  EXPECT_EQ(r.header_count(), 0u);
  EXPECT_FALSE(r.next().has_value());
}

TEST_F(TraceFormatTest, StreamingReaderCountsRecords) {
  write_trace(file("c.fbmt"), sample_packets(50));
  TraceReader r(file("c.fbmt"));
  std::size_t n = 0;
  while (r.next()) ++n;
  EXPECT_EQ(n, 50u);
  EXPECT_EQ(r.read_so_far(), 50u);
}

TEST_F(TraceFormatTest, WriterRejectsOutOfOrderTimestamps) {
  TraceWriter w(file("d.fbmt"));
  net::PacketRecord r;
  r.timestamp = 2.0;
  w.append(r);
  r.timestamp = 1.0;
  EXPECT_THROW(w.append(r), std::invalid_argument);
}

TEST_F(TraceFormatTest, WriterRejectsAppendAfterClose) {
  TraceWriter w(file("e.fbmt"));
  w.close();
  net::PacketRecord r;
  EXPECT_THROW(w.append(r), std::runtime_error);
}

TEST_F(TraceFormatTest, ReaderRejectsBadMagic) {
  std::ofstream out(file("bad.fbmt"), std::ios::binary);
  out << "NOT A TRACE FILE AT ALL........";
  out.close();
  EXPECT_THROW(TraceReader{file("bad.fbmt")}, std::runtime_error);
}

TEST_F(TraceFormatTest, ReaderRejectsMissingFile) {
  EXPECT_THROW(TraceReader{file("missing.fbmt")}, std::runtime_error);
}

TEST_F(TraceFormatTest, ReaderDetectsTruncatedRecord) {
  write_trace(file("f.fbmt"), sample_packets(10));
  // Truncate mid-record.
  const auto full = fs::file_size(file("f.fbmt"));
  fs::resize_file(file("f.fbmt"), full - 5);
  TraceReader r(file("f.fbmt"));
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(r.next().has_value());
  EXPECT_THROW((void)r.next(), std::runtime_error);
}

TEST_F(TraceFormatTest, CsvRoundTrip) {
  const auto packets = sample_packets(100);
  export_csv(file("g.csv"), packets);
  const auto back = import_csv(file("g.csv"));
  ASSERT_EQ(back.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_NEAR(back[i].timestamp, packets[i].timestamp, 1e-6);
    EXPECT_EQ(back[i].tuple, packets[i].tuple) << i;
    EXPECT_EQ(back[i].size_bytes, packets[i].size_bytes);
  }
}

TEST_F(TraceFormatTest, CsvImportRejectsGarbage) {
  std::ofstream out(file("h.csv"));
  out << "timestamp,src,dst,sport,dport,proto,bytes\n";
  out << "not,a,valid,line\n";
  out.close();
  EXPECT_THROW((void)import_csv(file("h.csv")), std::runtime_error);
}

/// The unbuffered writer as it was before TraceWriter buffered its records,
/// frozen as the byte-level reference: header with the unknown-count marker,
/// one ofstream::write per field of every record, then the count patched in.
void write_reference(const fs::path& path,
                     const std::vector<net::PacketRecord>& recs) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto put = [&out](auto v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(kTraceMagic);
  put(kTraceVersion);
  put(kUnknownCount);
  put(std::uint64_t{0});
  for (const auto& r : recs) {
    put(r.timestamp);
    put(r.tuple.src.value());
    put(r.tuple.dst.value());
    put(r.tuple.src_port);
    put(r.tuple.dst_port);
    put(r.tuple.protocol);
    put(std::uint8_t{0});
    put(std::uint16_t{0});
    put(r.size_bytes);
  }
  out.seekp(8);
  put(static_cast<std::uint64_t>(recs.size()));
}

[[nodiscard]] std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Field extremes in timestamp order: signed zero, subnormals, huge values,
/// ports 0/65535, protocol 0/255, sizes 0 and UINT32_MAX.
[[nodiscard]] std::vector<net::PacketRecord> extreme_packets() {
  const double stamps[] = {
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      1e-310,
      std::numeric_limits<double>::min(),
      1.0,
      1e15,
      1e300,
      std::numeric_limits<double>::max(),
  };
  std::vector<net::PacketRecord> out;
  std::uint32_t k = 0;
  for (const double ts : stamps) {
    for (int v = 0; v < 2; ++v, ++k) {
      net::PacketRecord r;
      r.timestamp = ts;
      r.tuple.src = net::Ipv4Address(v == 0 ? 0u : ~0u);
      r.tuple.dst = net::Ipv4Address(v == 0 ? ~0u - k : k);
      r.tuple.src_port = v == 0 ? 0 : 65535;
      r.tuple.dst_port = v == 0 ? 65535 : 0;
      r.tuple.protocol = v == 0 ? 255 : 0;
      r.size_bytes = v == 0 ? std::numeric_limits<std::uint32_t>::max() : 0;
      out.push_back(r);
    }
  }
  return out;
}

TEST_F(TraceFormatTest, BufferedWriterMatchesPerRecordReference) {
  // Record counts on both sides of each buffer boundary.
  const std::size_t b = TraceWriter::kBufferRecords;
  const std::size_t counts[] = {0, 1, b - 1, b, b + 1, 2 * b, 3 * b + 17};
  for (const std::size_t n : counts) {
    SCOPED_TRACE(std::to_string(n) + " records");
    const auto packets = sample_packets(static_cast<int>(n));
    write_reference(file("ref.fbmt"), packets);
    const std::string expected = file_bytes(file("ref.fbmt"));
    ASSERT_EQ(expected.size(), kHeaderSize + n * kRecordSize);

    write_trace(file("all.fbmt"), packets);  // append_all
    EXPECT_EQ(file_bytes(file("all.fbmt")), expected);

    {
      TraceWriter w(file("one.fbmt"));
      for (const auto& p : packets) w.append(p);
      w.close();
    }
    EXPECT_EQ(file_bytes(file("one.fbmt")), expected);

    {
      // Mixed entry points; the destructor alone flushes the buffered
      // records and seals the header.
      TraceWriter w(file("mix.fbmt"));
      const std::size_t half = n / 2;
      w.append_all(std::span(packets).first(half));
      for (std::size_t i = half; i < n; ++i) w.append(packets[i]);
      EXPECT_EQ(w.written(), n);
    }
    EXPECT_EQ(file_bytes(file("mix.fbmt")), expected);
  }
}

TEST_F(TraceFormatTest, BufferedWriterMatchesReferenceOnFieldExtremes) {
  const auto packets = extreme_packets();
  write_reference(file("ref.fbmt"), packets);
  write_trace(file("w.fbmt"), packets);
  EXPECT_EQ(file_bytes(file("w.fbmt")), file_bytes(file("ref.fbmt")));
  const auto back = read_trace(file("w.fbmt"));
  ASSERT_EQ(back.size(), packets.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    const auto got = std::bit_cast<std::uint64_t>(back[i].timestamp);
    const auto want = std::bit_cast<std::uint64_t>(packets[i].timestamp);
    EXPECT_EQ(got, want) << i;
    EXPECT_EQ(back[i].tuple, packets[i].tuple) << i;
    EXPECT_EQ(back[i].size_bytes, packets[i].size_bytes) << i;
  }
}

TEST_F(TraceFormatTest, BatchDecodeMatchesNextAndIgnoresPadding) {
  // next_batch decodes fields straight into the batch arrays; it must agree
  // with next() record for record, at every batch size, and — like next() —
  // ignore whatever the pad bytes hold.
  auto packets = extreme_packets();
  const auto more = sample_packets(1500);
  const double base = packets.back().timestamp;
  for (auto p : more) {
    p.timestamp = base;  // keep the order after DBL_MAX
    packets.push_back(p);
  }
  write_trace(file("p.fbmt"), packets);
  {
    std::fstream f(file("p.fbmt"),
                   std::ios::binary | std::ios::in | std::ios::out);
    for (std::size_t i = 0; i < packets.size(); i += 3) {
      f.seekp(static_cast<std::streamoff>(kHeaderSize + i * kRecordSize + 21));
      const char pad[3] = {'\x5a', '\xff', '\x01'};
      f.write(pad, sizeof(pad));
    }
  }
  const auto expected = read_trace(file("p.fbmt"));
  ASSERT_EQ(expected, packets);
  for (const std::size_t batch_size : {1u, 7u, 1024u}) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    TraceReader r(file("p.fbmt"));
    net::PacketBatch batch;
    std::vector<net::PacketRecord> got;
    while (r.next_batch(batch, batch_size) > 0) {
      ASSERT_LE(batch.size(), batch_size);
      ASSERT_EQ(batch.tuples.size(), batch.size());
      ASSERT_EQ(batch.sizes.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        got.push_back(batch.record(i));
      }
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(r.read_so_far(), packets.size());
  }
}

TEST_F(TraceFormatTest, RecordSizeIsStable) {
  // On-disk format is a contract: header 24 bytes + 28 per record.
  const auto packets = sample_packets(7);
  write_trace(file("i.fbmt"), packets);
  EXPECT_EQ(fs::file_size(file("i.fbmt")), kHeaderSize + 7 * kRecordSize);
}

}  // namespace
}  // namespace fbm::trace
