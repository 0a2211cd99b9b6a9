// Streaming packet sources (fbm::api, stage 1 of the pipeline).
//
// A TraceSource delivers packets in non-decreasing timestamp order, a batch
// at a time (next_batch fills a net::PacketBatch), so consumers — every
// analysis stage takes packet batches only — never need a whole trace in
// memory. read_batches() below is the one read loop they all drain a source
// with. Implementations wrap every way this repository can produce packets:
//
//   FileTraceSource       .fbmt files, truly streaming (O(1) memory)
//   PcapTraceSource       .pcap captures, truly streaming (O(1) memory)
//   VectorTraceSource     any in-memory vector (also serves csv, whose
//                         reader is batch; the memory cost is explicit)
//   SyntheticTraceSource  the trace/synthetic generator
//   ModelTraceSource      packets synthesized from the shot-noise model
//                         itself (Poisson arrivals, power-shot pacing),
//                         streaming with O(active flows) memory
//
// open_trace() picks the right reader from the file extension, mirroring
// what tools/fbm_analyze did by hand. Every source built here supports
// reset() (rewind to the first packet), which windowed replay and the
// differential test harnesses rely on; sources that cannot rewind return
// false and stay single-pass.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"
#include "trace/pcap.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"

namespace fbm::api {

/// Pull-based packet stream. Timestamps are non-decreasing.
class TraceSource {
 public:
  static constexpr std::uint64_t kUnknownCount = ~std::uint64_t{0};

  virtual ~TraceSource() = default;

  /// Next packet, or nullopt at end of stream.
  [[nodiscard]] virtual std::optional<net::PacketRecord> next() = 0;

  /// Fills `out` (cleared first) with up to `max_n` packets and returns the
  /// count; 0 means end of stream (or, in follow mode, nothing available
  /// yet). The default implementation loops next(); file-backed sources
  /// override it with bulk reads so the per-packet virtual call and
  /// optional<> shuffle disappear from the hot path. The delivered sequence
  /// is identical to calling next() repeatedly, for every max_n.
  [[nodiscard]] virtual std::size_t next_batch(net::PacketBatch& out,
                                               std::size_t max_n) {
    out.clear();
    while (out.size() < max_n) {
      const auto p = next();
      if (!p) break;
      out.push_back(*p);
    }
    return out.size();
  }

  /// Total packets this source will deliver, when knowable up front
  /// (kUnknownCount otherwise). A hint, not a contract.
  [[nodiscard]] virtual std::uint64_t count_hint() const {
    return kUnknownCount;
  }

  /// Rewinds to the first packet so the stream can be replayed; returns
  /// false when the source cannot rewind (the default — a TraceSource is
  /// single-pass unless it says otherwise). After a successful reset the
  /// source delivers exactly the same packet sequence again.
  [[nodiscard]] virtual bool reset() { return false; }

  /// Drains the stream through `fn(const net::PacketRecord&)`; returns the
  /// number of packets delivered.
  template <typename F>
  std::uint64_t for_each(F&& fn) {
    std::uint64_t n = 0;
    while (auto p = next()) {
      fn(*p);
      ++n;
    }
    return n;
  }
};

using TraceSourcePtr = std::unique_ptr<TraceSource>;

/// The read loop behind every stage's consume(): pulls batches of up to
/// `max_n` packets — timed as the source-read stage, counted in the source
/// metrics — and hands each to `push` until the source runs dry. Returns
/// the packets read.
std::uint64_t read_batches(TraceSource& source, std::size_t max_n,
                           const std::function<void(net::PacketBatch&)>& push);

/// Serves an in-memory vector (must already be timestamp-sorted).
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<net::PacketRecord> packets);

  [[nodiscard]] std::optional<net::PacketRecord> next() override;
  [[nodiscard]] std::size_t next_batch(net::PacketBatch& out,
                                       std::size_t max_n) override;
  [[nodiscard]] std::uint64_t count_hint() const override {
    return packets_.size();
  }
  [[nodiscard]] bool reset() override {
    pos_ = 0;
    return true;
  }

 private:
  std::vector<net::PacketRecord> packets_;
  std::size_t pos_ = 0;
};

/// Streams a native .fbmt file record by record (O(1) memory). With
/// `follow`, end of file means "no data yet": next() returns nullopt but a
/// later call picks up records appended in the meantime (fbm_live --follow).
class FileTraceSource final : public TraceSource {
 public:
  explicit FileTraceSource(const std::filesystem::path& path,
                           bool follow = false);

  [[nodiscard]] std::optional<net::PacketRecord> next() override;
  [[nodiscard]] std::size_t next_batch(net::PacketBatch& out,
                                       std::size_t max_n) override;
  [[nodiscard]] std::uint64_t count_hint() const override;
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

  [[nodiscard]] std::optional<net::PacketRecord> next() override;
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

  [[nodiscard]] std::optional<net::PacketRecord> next() override;
  [[nodiscard]] std::size_t next_batch(net::PacketBatch& out,
                                       std::size_t max_n) override {
    return inner_.next_batch(out, max_n);
  }
  [[nodiscard]] std::uint64_t count_hint() const override;
  [[nodiscard]] bool reset() override { return inner_.reset(); }

  /// What the generator actually produced.
  [[nodiscard]] const trace::GenerationReport& report() const {
    return report_;
  }

 private:
  trace::GenerationReport report_;
  VectorTraceSource inner_;
};

/// Model-driven source: simulates the paper's shot-noise model directly and
/// packetizes it. Flows arrive as a Poisson process; each draws (S, D)
/// either from parametric distributions or jointly from an empirical
/// resample pool (preserving the S-D correlation, as gen::generate does for
/// the fluid process); packets are paced so the cumulative bits sent at age
/// u follow the power shot S * (u/D)^(b+1).
///
/// Unlike gen::generate (a fluid RateSeries), this emits discrete packets,
/// so the full analysis pipeline — classification included — can run on
/// model output. Memory is O(active flows): a heap of per-flow cursors.
struct ModelSourceConfig {
  double duration_s = 60.0;
  double lambda = 100.0;        ///< flow arrivals per second
  double shot_b = 1.0;          ///< power-shot pacing (0 rect, 1 triangle)

  /// Parametric source: size (bits) and duration (s) drawn independently.
  stats::DistributionPtr size_bits;
  stats::DistributionPtr duration_s_dist;
  /// Empirical source: when non-empty, (S, D) resampled jointly from here
  /// and the parametric distributions are ignored.
  std::vector<core::FlowSample> resample_pool;

  std::uint32_t packet_bytes = 1000;  ///< packetization quantum
  std::size_t prefix_pool = 128;      ///< distinct /24 destination prefixes
  std::uint64_t seed = stats::Rng::default_seed;
};

class ModelTraceSource final : public TraceSource {
 public:
  /// Throws std::invalid_argument on inconsistent configuration.
  explicit ModelTraceSource(ModelSourceConfig config);

  /// Convenience: drive the source with a fitted model's lambda, empirical
  /// population, and (power) shot.
  ModelTraceSource(const core::ShotNoiseModel& model, double duration_s,
                   double shot_b);

  [[nodiscard]] std::optional<net::PacketRecord> next() override;
  /// Native SoA fill: the same sequence as next() (bit-pinned by
  /// tests/api/test_batch_differential.cpp) without the per-packet virtual
  /// dispatch and optional<> shuffle of the default path.
  [[nodiscard]] std::size_t next_batch(net::PacketBatch& out,
                                       std::size_t max_n) override;
  /// Restarts the simulation from its seed: the replay is identical.
  [[nodiscard]] bool reset() override;

  [[nodiscard]] std::uint64_t flows_started() const { return flows_; }

 private:
  struct ActiveFlow {
    double start = 0.0;
    double size_bits = 0.0;
    double duration_s = 0.0;
    std::uint64_t bytes_left = 0;
    std::uint64_t packets_sent = 0;
    double next_packet_ts = 0.0;
    net::FiveTuple tuple;
  };
  struct ByNextPacket {
    [[nodiscard]] bool operator()(const ActiveFlow& a,
                                  const ActiveFlow& b) const {
      return a.next_packet_ts > b.next_packet_ts;  // min-heap
    }
  };

  /// Core generator behind next()/next_batch(): the next packet into
  /// (ts, tuple, size); false at end of stream.
  bool step(double& ts, net::FiveTuple& tuple, std::uint32_t& size);
  void start_flow(double t0);
  void schedule_next_packet(ActiveFlow& f) const;

  ModelSourceConfig config_;
  stats::Rng rng_;
  double next_arrival_ = 0.0;
  bool arrivals_done_ = false;
  std::uint64_t flows_ = 0;
  std::priority_queue<ActiveFlow, std::vector<ActiveFlow>, ByNextPacket>
      active_;
};

/// Opens a trace file by extension: .fbmt and .pcap stream with O(1)
/// memory; .csv still goes through the batch importer and is served from
/// memory. `follow` requests tail -f semantics (.fbmt/.pcap only; throws
/// std::invalid_argument for .csv). Throws std::runtime_error for
/// unreadable files.
[[nodiscard]] TraceSourcePtr open_trace(const std::filesystem::path& path,
                                        bool follow = false);

/// Factory helpers, for symmetry with open_trace().
[[nodiscard]] TraceSourcePtr make_vector_source(
    std::vector<net::PacketRecord> packets);
[[nodiscard]] TraceSourcePtr make_synthetic_source(
    const trace::SyntheticConfig& config);
[[nodiscard]] TraceSourcePtr make_model_source(ModelSourceConfig config);

}  // namespace fbm::api
