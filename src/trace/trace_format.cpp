#include "trace/trace_format.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace fbm::trace {

namespace {

static_assert(std::endian::native == std::endian::little,
              "trace format assumes a little-endian host");

template <typename T>
void put(std::ofstream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
[[nodiscard]] bool get(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(in);
}

void encode_record(char* p, const net::PacketRecord& rec) {
  const auto put_raw = [&p](const void* src, std::size_t n) {
    std::memcpy(p, src, n);
    p += n;
  };
  const double ts = rec.timestamp;
  const std::uint32_t src = rec.tuple.src.value();
  const std::uint32_t dst = rec.tuple.dst.value();
  const std::uint16_t sport = rec.tuple.src_port;
  const std::uint16_t dport = rec.tuple.dst_port;
  const std::uint8_t proto = rec.tuple.protocol;
  const std::uint8_t pad8 = 0;
  const std::uint16_t pad16 = 0;
  const std::uint32_t size = rec.size_bytes;
  put_raw(&ts, 8);
  put_raw(&src, 4);
  put_raw(&dst, 4);
  put_raw(&sport, 2);
  put_raw(&dport, 2);
  put_raw(&proto, 1);
  put_raw(&pad8, 1);
  put_raw(&pad16, 2);
  put_raw(&size, 4);
}

/// The read side's one copy of the record layout. Bytes 21-23 are padding
/// and are never read.
void decode_fields(const char* p, double& ts, net::FiveTuple& tuple,
                   std::uint32_t& size) {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::memcpy(&ts, p, 8);
  std::memcpy(&src, p + 8, 4);
  std::memcpy(&dst, p + 12, 4);
  std::memcpy(&tuple.src_port, p + 16, 2);
  std::memcpy(&tuple.dst_port, p + 18, 2);
  std::memcpy(&tuple.protocol, p + 20, 1);
  std::memcpy(&size, p + 24, 4);
  tuple.src = net::Ipv4Address{src};
  tuple.dst = net::Ipv4Address{dst};
}

[[nodiscard]] net::PacketRecord decode_record(const char* p) {
  net::PacketRecord rec;
  decode_fields(p, rec.timestamp, rec.tuple, rec.size_bytes);
  return rec;
}

}  // namespace

TraceWriter::TraceWriter(const std::filesystem::path& path)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
  if (!out_) {
    throw std::runtime_error("TraceWriter: cannot open " + path.string());
  }
  put(out_, kTraceMagic);
  put(out_, kTraceVersion);
  put(out_, kUnknownCount);  // patched by close()
  put(out_, std::uint64_t{0});  // reserved
}

TraceWriter::~TraceWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; an explicit close() reports errors.
  }
}

void TraceWriter::append(const net::PacketRecord& rec) {
  if (closed_) throw std::runtime_error("TraceWriter: already closed");
  if (!(rec.timestamp >= last_ts_)) {  // refuses NaN too
    throw std::invalid_argument("TraceWriter: timestamps must be ordered");
  }
  last_ts_ = rec.timestamp;
  const std::size_t used = buffer_.size();
  buffer_.resize(used + kRecordSize);
  encode_record(buffer_.data() + used, rec);
  ++count_;
  if (buffer_.size() >= kBufferRecords * kRecordSize) flush_buffer();
}

void TraceWriter::append_all(std::span<const net::PacketRecord> recs) {
  for (const auto& r : recs) append(r);
}

void TraceWriter::flush_buffer() {
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

void TraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  flush_buffer();
  out_.seekp(8);  // magic + version
  put(out_, count_);
  out_.flush();
  if (!out_) {
    throw std::runtime_error("TraceWriter: write failed for " +
                             path_.string());
  }
  out_.close();
}

TraceReader::TraceReader(const std::filesystem::path& path)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) {
    throw std::runtime_error("TraceReader: cannot open " + path.string());
  }
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  std::uint64_t reserved = 0;
  if (!get(in_, magic) || !get(in_, version) || !get(in_, count) ||
      !get(in_, reserved)) {
    throw std::runtime_error("TraceReader: truncated header in " +
                             path.string());
  }
  if (magic != kTraceMagic) {
    throw std::runtime_error("TraceReader: bad magic in " + path.string());
  }
  if (version != kTraceVersion) {
    throw std::runtime_error("TraceReader: unsupported version in " +
                             path.string());
  }
  header_count_ = count;
}

std::optional<net::PacketRecord> TraceReader::next() {
  std::array<char, kRecordSize> buf;
  in_.read(buf.data(), buf.size());
  if (in_.gcount() == 0) return std::nullopt;
  if (static_cast<std::size_t>(in_.gcount()) != buf.size()) {
    throw std::runtime_error("TraceReader: truncated record in " +
                             path_.string());
  }
  ++read_;
  return decode_record(buf.data());
}

std::optional<net::PacketRecord> TraceReader::poll() {
  in_.clear();  // a prior next()/poll() may have left eofbit set
  const std::streampos rec_start = in_.tellg();
  std::array<char, kRecordSize> buf;
  in_.read(buf.data(), buf.size());
  if (static_cast<std::size_t>(in_.gcount()) != buf.size()) {
    // End of file, or a record the writer has not finished appending:
    // rewind so the next poll retries once more bytes have landed.
    in_.clear();
    in_.seekg(rec_start);
    return std::nullopt;
  }
  ++read_;
  return decode_record(buf.data());
}

std::size_t TraceReader::next_batch(net::PacketBatch& out, std::size_t max_n) {
  out.clear();
  if (max_n == 0) return 0;
  bulk_.resize(max_n * kRecordSize);
  in_.read(bulk_.data(), static_cast<std::streamsize>(bulk_.size()));
  const std::size_t got = static_cast<std::size_t>(in_.gcount());
  if (got == 0) return 0;
  if (got % kRecordSize != 0) {
    throw std::runtime_error("TraceReader: truncated record in " +
                             path_.string());
  }
  // Decode straight into the SoA arrays, sized once: the timestamp and size
  // land in place and each tuple is stored whole from a local. Going through
  // a PacketRecord and PacketBatch::push_back cost nearly twice as much.
  const std::size_t n = got / kRecordSize;
  out.timestamps.resize(n);
  out.tuples.resize(n);
  out.sizes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::FiveTuple tuple;
    decode_fields(bulk_.data() + i * kRecordSize, out.timestamps[i], tuple,
                  out.sizes[i]);
    out.tuples[i] = tuple;
  }
  read_ += n;
  return n;
}

void write_trace(const std::filesystem::path& path,
                 std::span<const net::PacketRecord> recs) {
  TraceWriter w(path);
  w.append_all(recs);
  w.close();
}

std::vector<net::PacketRecord> read_trace(const std::filesystem::path& path) {
  TraceReader r(path);
  std::vector<net::PacketRecord> out;
  if (r.header_count() != kUnknownCount) out.reserve(r.header_count());
  while (auto rec = r.next()) out.push_back(*rec);
  return out;
}

void export_csv(const std::filesystem::path& path,
                std::span<const net::PacketRecord> recs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("export_csv: cannot open " + path.string());
  }
  out << "timestamp,src,dst,sport,dport,proto,bytes\n";
  out.precision(9);
  out.setf(std::ios::fixed);
  for (const auto& r : recs) {
    out << r.timestamp << ',' << r.tuple.src.to_string() << ','
        << r.tuple.dst.to_string() << ',' << r.tuple.src_port << ','
        << r.tuple.dst_port << ',' << static_cast<unsigned>(r.tuple.protocol)
        << ',' << r.size_bytes << '\n';
  }
  if (!out) {
    throw std::runtime_error("export_csv: write failed for " + path.string());
  }
}

std::vector<net::PacketRecord> import_csv(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("import_csv: cannot open " + path.string());
  }
  std::vector<net::PacketRecord> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (lineno == 1 && line.rfind("timestamp", 0) == 0) continue;  // header
    std::istringstream ls(line);
    std::string field;
    net::PacketRecord rec;
    const auto bad = [&] {
      return std::runtime_error("import_csv: malformed line " +
                                std::to_string(lineno) + " in " +
                                path.string());
    };
    try {
      if (!std::getline(ls, field, ',')) throw bad();
      rec.timestamp = std::stod(field);
      if (!std::getline(ls, field, ',')) throw bad();
      auto src = net::Ipv4Address::parse(field);
      if (!src) throw bad();
      rec.tuple.src = *src;
      if (!std::getline(ls, field, ',')) throw bad();
      auto dst = net::Ipv4Address::parse(field);
      if (!dst) throw bad();
      rec.tuple.dst = *dst;
      if (!std::getline(ls, field, ',')) throw bad();
      rec.tuple.src_port = static_cast<std::uint16_t>(std::stoul(field));
      if (!std::getline(ls, field, ',')) throw bad();
      rec.tuple.dst_port = static_cast<std::uint16_t>(std::stoul(field));
      if (!std::getline(ls, field, ',')) throw bad();
      rec.tuple.protocol = static_cast<std::uint8_t>(std::stoul(field));
      if (!std::getline(ls, field, ',')) throw bad();
      rec.size_bytes = static_cast<std::uint32_t>(std::stoul(field));
    } catch (const std::runtime_error&) {
      throw;  // already our error
    } catch (const std::exception&) {
      throw bad();  // stod/stoul conversion failures
    }
    out.push_back(rec);
  }
  return out;
}

}  // namespace fbm::trace
