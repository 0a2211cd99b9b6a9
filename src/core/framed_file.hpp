// Framed binary files (fbm::core) — the one framing discipline every
// on-disk format in this repo shares.
//
// Layout (all little-endian, like trace/trace_format.hpp):
//
//   header  : u32 magic | u32 version | u64 reserved
//   frames  : u32 type | u32 reserved | u64 payload_len
//             | payload | u64 fnv1a64(payload)
//
// agg::partial_codec ("FBMP"), ckpt::checkpoint ("FBMC") and
// store::report_store ("FBMS") all write through FrameWriter and read
// through FrameReader, so truncation, bit flips, bad magic and future
// versions fail with the same one-line diagnostics naming the file in
// every format. FrameReader can optionally *recover* a torn final frame
// (a crash mid-append) instead of rejecting it — the append-only store
// needs that; end-framed formats keep strict mode.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace fbm::core {

static_assert(std::endian::native == std::endian::little,
              "framed formats assume a little-endian host");

/// FNV-1a 64-bit — the frame payload checksum.
[[nodiscard]] std::uint64_t fnv1a64(const char* data, std::size_t n);

/// Append-only scratch buffer a frame payload is serialized into.
struct ByteBuffer {
  std::vector<char> bytes;

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = bytes.size();
    bytes.resize(at + sizeof(v));
    std::memcpy(bytes.data() + at, &v, sizeof(v));
  }
  void put_string(const std::string& s) {
    put(static_cast<std::uint32_t>(s.size()));
    const std::size_t at = bytes.size();
    bytes.resize(at + s.size());
    if (!s.empty()) std::memcpy(bytes.data() + at, s.data(), s.size());
  }
};

/// Bounds-checked cursor over one verified frame payload. Every overrun is
/// a corruption diagnostic, never UB.
struct ByteCursor {
  const char* data;
  std::size_t size;
  std::size_t at = 0;
  const std::string& where;  ///< diagnostic prefix, e.g. "partial file x"

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size - at < sizeof(T)) {
      throw std::runtime_error(where + ": malformed frame payload");
    }
    T v;
    std::memcpy(&v, data + at, sizeof(v));
    at += sizeof(v);
    return v;
  }
  [[nodiscard]] std::string get_string() {
    const auto n = get<std::uint32_t>();
    if (size - at < n) {
      throw std::runtime_error(where + ": malformed frame payload");
    }
    std::string s(data + at, n);
    at += n;
    return s;
  }
  void expect_done() const {
    if (at != size) {
      throw std::runtime_error(where + ": malformed frame payload");
    }
  }
};

/// Streaming frame writer: header at construction, one checksummed frame
/// per write_frame(). In append mode an existing non-empty file keeps its
/// bytes and frames are added at the end (the caller is responsible for
/// having truncated any torn tail first — see FrameReader).
class FrameWriter {
 public:
  /// Throws std::runtime_error ("<context>: cannot open <path>") on failure.
  FrameWriter(const std::filesystem::path& path, std::uint32_t magic,
              std::uint32_t version, std::string context, bool append = false);

  void write_frame(std::uint32_t type, const ByteBuffer& body);

  /// Flushes and throws std::runtime_error
  /// ("<context>: write failed for <path>") if any write failed.
  void flush();
  void close();

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::ofstream out_;
  std::filesystem::path path_;
  std::string context_;
};

/// Streaming frame reader: validates the header at construction, then
/// yields one checksum-verified frame per next() until clean EOF (nullopt).
///
/// Strict mode (default) throws std::runtime_error naming the file for any
/// defect: unreadable, bad magic, future version, truncated frame header or
/// payload, checksum mismatch. With tolerate_torn_tail, a *final* frame cut
/// short by EOF (or whose checksum fails right at EOF — a crash mid-append)
/// is not an error: next() returns nullopt, torn_tail() reports it, and
/// torn_offset() is the file offset the valid prefix ends at, ready for
/// truncation. Corruption that is not at the tail still throws.
class FrameReader {
 public:
  struct Options {
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::string format_name;  ///< "a partial report" → "... (bad magic)"
    std::string where;        ///< diagnostic prefix, e.g. "partial file x"
    bool tolerate_torn_tail = false;
  };
  struct Frame {
    std::uint32_t type = 0;
    std::vector<char> payload;
    std::uint64_t offset = 0;  ///< file offset of the frame header
  };

  FrameReader(const std::filesystem::path& path, Options opt);

  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] bool torn_tail() const { return torn_tail_; }
  [[nodiscard]] std::uint64_t torn_offset() const { return torn_offset_; }
  [[nodiscard]] std::uint64_t remaining() const { return remaining_; }
  [[nodiscard]] const std::string& where() const { return opt_.where; }

 private:
  std::ifstream in_;
  Options opt_;
  std::uint64_t pos_ = 0;        ///< file offset of the next unread byte
  std::uint64_t remaining_ = 0;  ///< bytes between pos_ and EOF
  bool torn_tail_ = false;
  std::uint64_t torn_offset_ = 0;
};

}  // namespace fbm::core
