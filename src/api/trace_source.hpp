// Streaming packet sources (fbm::api, stage 1 of the pipeline).
//
// A TraceSource delivers packets in non-decreasing timestamp order, a batch
// at a time (next_batch fills a net::PacketBatch), so consumers — every
// analysis stage takes packet batches only — never need a whole trace in
// memory. read_batches() below is the one read loop they all drain a source
// with. Implementations wrap the ways this repository reads packets:
//
//   FileTraceSource       .fbmt files, truly streaming (O(1) memory)
//   PcapTraceSource       .pcap captures, truly streaming (O(1) memory)
//   VectorTraceSource     any in-memory vector (also serves csv, whose
//                         reader is batch; the memory cost is explicit)
//   SyntheticTraceSource  the trace/synthetic generator
//
// Packets synthesized from the shot-noise model itself come from
// scenario::ScenarioTraceSource: a spec with one baseline segment is the
// stationary model source (Poisson arrivals, power-shot pacing).
//
// open_trace() picks the right reader from the file extension. Every source
// built here supports reset() (rewind to the first packet), which windowed
// replay and the differential test harnesses rely on; sources that cannot
// rewind return false and stay single-pass.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "trace/pcap.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"

namespace fbm::api {

/// Pull-based packet stream. Timestamps are non-decreasing.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Fills `out` (cleared first) with up to `max_n` packets and returns the
  /// count; 0 means end of stream (or, in follow mode, nothing available
  /// yet). The delivered sequence is the same for every max_n.
  [[nodiscard]] virtual std::size_t next_batch(net::PacketBatch& out,
                                               std::size_t max_n) = 0;

  /// Rewinds to the first packet so the stream can be replayed; returns
  /// false when the source cannot rewind (the default — a TraceSource is
  /// single-pass unless it says otherwise). After a successful reset the
  /// source delivers exactly the same packet sequence again.
  [[nodiscard]] virtual bool reset() { return false; }
};

using TraceSourcePtr = std::unique_ptr<TraceSource>;

/// The read loop behind every stage's consume(): pulls batches of up to
/// `max_n` packets — timed as the source-read stage, counted in the source
/// metrics — and hands each to `push` until the source runs dry. Returns
/// the packets read.
std::uint64_t read_batches(TraceSource& source, std::size_t max_n,
                           const std::function<void(net::PacketBatch&)>& push);

/// Drains what is left of `source` into memory (whole-trace tools and
/// format exports).
[[nodiscard]] std::vector<net::PacketRecord> read_all(TraceSource& source);

/// Serves an in-memory vector (must already be timestamp-sorted).
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<net::PacketRecord> packets);

  [[nodiscard]] std::size_t next_batch(net::PacketBatch& out,
                                       std::size_t max_n) override;
  [[nodiscard]] bool reset() override {
    pos_ = 0;
    return true;
  }

 private:
  std::vector<net::PacketRecord> packets_;
  std::size_t pos_ = 0;
};

/// Streams a native .fbmt file (O(1) memory). With `follow`, end of file
/// means "no data yet": next_batch returns 0 but a later call picks up
/// records appended in the meantime (fbm_live --follow).
class FileTraceSource final : public TraceSource {
 public:
  explicit FileTraceSource(const std::filesystem::path& path,
                           bool follow = false);

  [[nodiscard]] std::size_t next_batch(net::PacketBatch& out,
                                       std::size_t max_n) override;
  [[nodiscard]] bool reset() override;

 private:
  std::filesystem::path path_;
  bool follow_;
  trace::TraceReader reader_;
};

/// Streams a .pcap capture packet by packet (O(1) memory) — no more
/// materializing multi-GB captures through a vector. `follow` has
/// FileTraceSource semantics.
class PcapTraceSource final : public TraceSource {
 public:
  explicit PcapTraceSource(const std::filesystem::path& path,
                           bool follow = false);

  [[nodiscard]] std::size_t next_batch(net::PacketBatch& out,
                                       std::size_t max_n) override;
  [[nodiscard]] bool reset() override;

  /// Non-IPv4/TCP/UDP packets skipped so far.
  [[nodiscard]] std::size_t skipped() const { return reader_.skipped(); }

 private:
  std::filesystem::path path_;
  bool follow_;
  trace::PcapReader reader_;
};

/// Wraps the synthetic backbone generator. Generation happens eagerly in
/// the constructor (the generator sorts globally), then packets stream out.
class SyntheticTraceSource final : public TraceSource {
 public:
  explicit SyntheticTraceSource(const trace::SyntheticConfig& config);

  [[nodiscard]] std::size_t next_batch(net::PacketBatch& out,
                                       std::size_t max_n) override {
    return inner_.next_batch(out, max_n);
  }
  [[nodiscard]] bool reset() override { return inner_.reset(); }

  /// What the generator actually produced.
  [[nodiscard]] const trace::GenerationReport& report() const {
    return report_;
  }

 private:
  trace::GenerationReport report_;
  VectorTraceSource inner_;
};

/// Opens a trace file by extension: .fbmt and .pcap stream with O(1)
/// memory; .csv still goes through the batch importer and is served from
/// memory. `follow` requests tail -f semantics (.fbmt/.pcap only; throws
/// std::invalid_argument for .csv). Throws std::runtime_error for
/// unreadable files.
[[nodiscard]] TraceSourcePtr open_trace(const std::filesystem::path& path,
                                        bool follow = false);

/// Factory helper, for symmetry with open_trace().
[[nodiscard]] TraceSourcePtr make_vector_source(
    std::vector<net::PacketRecord> packets);

}  // namespace fbm::api
