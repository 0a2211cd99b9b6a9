// Binary packet-trace format (".fbmt").
//
// Stand-in for the Sprint monitoring infrastructure's capture files (44-byte
// header snapshots + timestamps). Fixed-size little-endian records keep the
// reader trivial and fast:
//
//   header:  magic "FBMT" | u32 version | u64 record count | u64 reserved
//   record:  f64 timestamp | u32 src | u32 dst | u16 sport | u16 dport
//            | u8 proto | u8 pad | u16 pad | u32 size_bytes      (28 bytes)
//
// The record count in the header is written on close(); a count of ~0 marks
// a truncated/unclosed file, which the reader still accepts (streaming until
// EOF) but reports via `header_count()`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_batch.hpp"

namespace fbm::trace {

inline constexpr std::uint32_t kTraceMagic = 0x544d4246;  // "FBMT" LE
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::uint64_t kUnknownCount = ~std::uint64_t{0};
inline constexpr std::size_t kRecordSize = 28;
inline constexpr std::size_t kHeaderSize = 24;

/// Streaming writer. Records must be appended in non-decreasing timestamp
/// order (checked as ts >= last, like net::check_order, so a NaN is refused
/// too; throws std::invalid_argument on violation). append()
/// encodes into an internal buffer that goes to the file in one write when
/// it holds kBufferRecords records, and at close(); an ofstream::write per
/// record cost more than the encoding. The file's bytes are the same.
class TraceWriter {
 public:
  explicit TraceWriter(const std::filesystem::path& path);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const net::PacketRecord& rec);
  void append_all(std::span<const net::PacketRecord> recs);

  /// Seals the header with the final record count. Called by the destructor
  /// if not called explicitly; explicit close() surfaces IO errors.
  void close();

  [[nodiscard]] std::uint64_t written() const { return count_; }

  /// Records buffered between writes to the file (~64 KiB).
  static constexpr std::size_t kBufferRecords = 2340;

 private:
  void flush_buffer();

  std::ofstream out_;
  std::filesystem::path path_;
  std::vector<char> buffer_;  ///< encoded records not yet written
  std::uint64_t count_ = 0;
  double last_ts_ = -1.0;
  bool closed_ = false;
};

/// Streaming reader.
class TraceReader {
 public:
  explicit TraceReader(const std::filesystem::path& path);

  /// Next record, or nullopt at end of file. Throws std::runtime_error on a
  /// truncated record.
  [[nodiscard]] std::optional<net::PacketRecord> next();

  /// Like next(), but treats a partial trailing record as "not written yet":
  /// rewinds to the record start, clears the stream state and returns
  /// nullopt so a later call retries — tail -f semantics for traces that are
  /// still being appended to (fbm_live --follow).
  [[nodiscard]] std::optional<net::PacketRecord> poll();

  /// Reads up to `max_n` records into `out` (cleared first) with a single
  /// bulk read instead of one ifstream::read per record, decoding each
  /// field straight into the batch's arrays; returns the count, 0 at end of
  /// file. Throws std::runtime_error on a truncated record, like next().
  std::size_t next_batch(net::PacketBatch& out, std::size_t max_n);

  /// Record count from the header; kUnknownCount for unclosed files.
  [[nodiscard]] std::uint64_t header_count() const { return header_count_; }
  [[nodiscard]] std::uint64_t read_so_far() const { return read_; }

 private:
  std::ifstream in_;
  std::filesystem::path path_;  ///< for diagnostics — every error names it
  std::vector<char> bulk_;      ///< next_batch read buffer, reused
  std::uint64_t header_count_ = kUnknownCount;
  std::uint64_t read_ = 0;
};

/// Whole-file helpers.
void write_trace(const std::filesystem::path& path,
                 std::span<const net::PacketRecord> recs);
[[nodiscard]] std::vector<net::PacketRecord> read_trace(
    const std::filesystem::path& path);

/// CSV interop ("timestamp,src,dst,sport,dport,proto,bytes"), for inspecting
/// traces with external tooling. Import tolerates a header line.
void export_csv(const std::filesystem::path& path,
                std::span<const net::PacketRecord> recs);
[[nodiscard]] std::vector<net::PacketRecord> import_csv(
    const std::filesystem::path& path);

}  // namespace fbm::trace
