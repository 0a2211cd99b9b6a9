#include "api/trace_source.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/catalog.hpp"
#include "trace/pcap.hpp"

namespace fbm::api {

// ------------------------------------------------------ VectorTraceSource ---

VectorTraceSource::VectorTraceSource(std::vector<net::PacketRecord> packets)
    : packets_(std::move(packets)) {}

std::size_t VectorTraceSource::next_batch(net::PacketBatch& out,
                                          std::size_t max_n) {
  const std::size_t n = std::min(max_n, packets_.size() - pos_);
  out.assign({packets_.data() + pos_, n});
  pos_ += n;
  return n;
}

// -------------------------------------------------------- FileTraceSource ---

FileTraceSource::FileTraceSource(const std::filesystem::path& path,
                                 bool follow)
    : path_(path), follow_(follow), reader_(path) {}

std::size_t FileTraceSource::next_batch(net::PacketBatch& out,
                                        std::size_t max_n) {
  // The plain path bulk-reads whole batches in one ifstream::read; follow
  // mode polls record by record, keeping poll()'s rewind over a record that
  // is still being written.
  if (!follow_) return reader_.next_batch(out, max_n);
  out.clear();
  while (out.size() < max_n) {
    const auto p = reader_.poll();
    if (!p) break;
    out.push_back(*p);
  }
  return out.size();
}

bool FileTraceSource::reset() {
  reader_ = trace::TraceReader(path_);
  return true;
}

// -------------------------------------------------------- PcapTraceSource ---

PcapTraceSource::PcapTraceSource(const std::filesystem::path& path,
                                 bool follow)
    : path_(path), follow_(follow),
      reader_(path, trace::kPcapDefaultEpoch, follow) {}

std::size_t PcapTraceSource::next_batch(net::PacketBatch& out,
                                        std::size_t max_n) {
  // Parsing dominates pcap reads; batching drops the per-packet virtual
  // dispatch seen by consumers.
  out.clear();
  while (out.size() < max_n) {
    const auto p = reader_.next();
    if (!p) break;
    out.push_back(*p);
  }
  return out.size();
}

bool PcapTraceSource::reset() {
  reader_ = trace::PcapReader(path_, trace::kPcapDefaultEpoch, follow_);
  return true;
}

// -------------------------------------------------------------- factories ---

TraceSourcePtr open_trace(const std::filesystem::path& path, bool follow) {
  const std::string s = path.string();
  if (s.ends_with(".pcap")) {
    return std::make_unique<PcapTraceSource>(path, follow);
  }
  if (s.ends_with(".csv")) {
    if (follow) {
      throw std::invalid_argument("open_trace: --follow needs .fbmt or .pcap");
    }
    return std::make_unique<VectorTraceSource>(trace::import_csv(path));
  }
  return std::make_unique<FileTraceSource>(path, follow);
}

TraceSourcePtr make_vector_source(std::vector<net::PacketRecord> packets) {
  return std::make_unique<VectorTraceSource>(std::move(packets));
}

std::uint64_t read_batches(
    TraceSource& source, std::size_t max_n,
    const std::function<void(net::PacketBatch&)>& push) {
  net::PacketBatch batch;
  batch.reserve(max_n);
  obs::Histogram& read_seconds = obs::stage_seconds(obs::kStageSourceRead);
  std::uint64_t total = 0;
  for (;;) {
    std::size_t n;
    {
      obs::StageSpan span(read_seconds);
      n = source.next_batch(batch, max_n);
    }
    if (n == 0) return total;
    if (obs::enabled()) {
      obs::source_packets().add(n);
      obs::source_batches().add(1);
    }
    total += n;
    push(batch);
  }
}

std::vector<net::PacketRecord> read_all(TraceSource& source) {
  std::vector<net::PacketRecord> out;
  net::PacketBatch batch;
  while (source.next_batch(batch, 4096) > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out.push_back(batch.record(i));
    }
  }
  return out;
}

}  // namespace fbm::api
