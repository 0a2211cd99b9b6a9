#include "api/trace_source.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/catalog.hpp"
#include "trace/pcap.hpp"

namespace fbm::api {

// ------------------------------------------------------ VectorTraceSource ---

VectorTraceSource::VectorTraceSource(std::vector<net::PacketRecord> packets)
    : packets_(std::move(packets)) {}

std::optional<net::PacketRecord> VectorTraceSource::next() {
  if (pos_ >= packets_.size()) return std::nullopt;
  return packets_[pos_++];
}

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

std::optional<net::PacketRecord> FileTraceSource::next() {
  return follow_ ? reader_.poll() : reader_.next();
}

std::size_t FileTraceSource::next_batch(net::PacketBatch& out,
                                        std::size_t max_n) {
  // Follow mode keeps poll()'s per-record rewind semantics; the plain path
  // bulk-reads whole batches in one ifstream::read.
  if (follow_) return TraceSource::next_batch(out, max_n);
  return reader_.next_batch(out, max_n);
}

std::uint64_t FileTraceSource::count_hint() const {
  const std::uint64_t n = reader_.header_count();
  return n == trace::kUnknownCount ? kUnknownCount : n;
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

std::optional<net::PacketRecord> PcapTraceSource::next() {
  return reader_.next();
}

std::size_t PcapTraceSource::next_batch(net::PacketBatch& out,
                                        std::size_t max_n) {
  // Parsing dominates pcap reads; batching still drops the per-packet
  // virtual dispatch and optional<> shuffle seen by consumers.
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

// --------------------------------------------------- SyntheticTraceSource ---

SyntheticTraceSource::SyntheticTraceSource(const trace::SyntheticConfig& config)
    : inner_([&] {
        trace::GenerationReport rep;
        auto packets = trace::generate_packets(config, &rep);
        report_ = rep;
        return packets;
      }()) {}

std::optional<net::PacketRecord> SyntheticTraceSource::next() {
  return inner_.next();
}

std::uint64_t SyntheticTraceSource::count_hint() const {
  return inner_.count_hint();
}

// ------------------------------------------------------- ModelTraceSource ---

ModelTraceSource::ModelTraceSource(ModelSourceConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (!(config_.duration_s > 0.0)) {
    throw std::invalid_argument("ModelTraceSource: duration <= 0");
  }
  if (!(config_.lambda > 0.0)) {
    throw std::invalid_argument("ModelTraceSource: lambda <= 0");
  }
  if (!(config_.shot_b >= 0.0)) {
    throw std::invalid_argument("ModelTraceSource: shot_b < 0");
  }
  if (config_.packet_bytes == 0) {
    throw std::invalid_argument("ModelTraceSource: packet_bytes == 0");
  }
  if (config_.resample_pool.empty() &&
      (!config_.size_bits || !config_.duration_s_dist)) {
    throw std::invalid_argument(
        "ModelTraceSource: need either a resample pool or size+duration "
        "distributions");
  }
  next_arrival_ = rng_.exponential(config_.lambda);
}

ModelTraceSource::ModelTraceSource(const core::ShotNoiseModel& model,
                                   double duration_s, double shot_b)
    : ModelTraceSource([&] {
        ModelSourceConfig cfg;
        cfg.duration_s = duration_s;
        cfg.lambda = model.lambda();
        cfg.shot_b = shot_b;
        cfg.resample_pool = model.samples();
        return cfg;
      }()) {}

void ModelTraceSource::start_flow(double t0) {
  ActiveFlow f;
  f.start = t0;
  if (!config_.resample_pool.empty()) {
    const auto idx = static_cast<std::size_t>(
        rng_.uniform_int(0, config_.resample_pool.size() - 1));
    f.size_bits = config_.resample_pool[idx].size_bits;
    f.duration_s = config_.resample_pool[idx].duration_s;
  } else {
    f.size_bits = config_.size_bits->sample(rng_);
    f.duration_s = config_.duration_s_dist->sample(rng_);
  }
  f.size_bits = std::max(1.0, f.size_bits);
  f.duration_s = std::max(1e-3, f.duration_s);
  f.bytes_left = static_cast<std::uint64_t>(std::ceil(f.size_bits / 8.0));

  const std::size_t rank = config_.prefix_pool > 0
                               ? static_cast<std::size_t>(rng_.uniform_int(
                                     0, config_.prefix_pool - 1))
                               : 0;
  f.tuple.dst = trace::dst_address_for_rank(
      rank, static_cast<std::uint8_t>(rng_.uniform_int(1, 254)));
  f.tuple.src = net::Ipv4Address(
      0x0a800000u | static_cast<std::uint32_t>(rng_.uniform_int(1, 0x7ffffe)));
  f.tuple.src_port =
      static_cast<std::uint16_t>(rng_.uniform_int(1024, 65535));
  f.tuple.dst_port = static_cast<std::uint16_t>(rng_.uniform_int(1, 1023));
  f.tuple.protocol = static_cast<std::uint8_t>(net::Protocol::tcp);

  ++flows_;
  schedule_next_packet(f);
  active_.push(std::move(f));
}

void ModelTraceSource::schedule_next_packet(ActiveFlow& f) const {
  // Pace packets so the cumulative bits sent at age u follow the power
  // shot's integral S * (u/D)^(b+1): packet j leaves when its last bit has
  // been transmitted.
  const double total_bytes =
      static_cast<double>(f.bytes_left) +
      static_cast<double>(f.packets_sent) *
          static_cast<double>(config_.packet_bytes);
  const double sent_after =
      static_cast<double>(f.packets_sent + 1) *
      static_cast<double>(config_.packet_bytes);
  const double fraction = std::min(1.0, sent_after / total_bytes);
  const double age =
      f.duration_s * std::pow(fraction, 1.0 / (config_.shot_b + 1.0));
  f.next_packet_ts = f.start + age;
}

bool ModelTraceSource::reset() {
  rng_ = stats::Rng(config_.seed);
  next_arrival_ = rng_.exponential(config_.lambda);
  arrivals_done_ = false;
  flows_ = 0;
  active_ = {};
  return true;
}

bool ModelTraceSource::step(double& ts, net::FiveTuple& tuple,
                            std::uint32_t& size) {
  while (true) {
    // Admit every arrival up to the next pending packet so the merged
    // stream leaves in global timestamp order.
    while (!arrivals_done_ &&
           (active_.empty() || next_arrival_ <= active_.top().next_packet_ts)) {
      if (next_arrival_ >= config_.duration_s) {
        arrivals_done_ = true;
        break;
      }
      const double t0 = next_arrival_;
      next_arrival_ += rng_.exponential(config_.lambda);
      start_flow(t0);
    }
    if (active_.empty()) return false;

    ActiveFlow f = active_.top();
    active_.pop();
    if (f.next_packet_ts >= config_.duration_s) {
      // The capture stops at the horizon: the flow's tail is dropped.
      continue;
    }
    size = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(f.bytes_left, config_.packet_bytes));
    ts = f.next_packet_ts;
    tuple = f.tuple;
    f.bytes_left -= size;
    ++f.packets_sent;
    if (f.bytes_left > 0) {
      schedule_next_packet(f);
      active_.push(std::move(f));
    }
    return true;
  }
}

std::optional<net::PacketRecord> ModelTraceSource::next() {
  net::PacketRecord out;
  if (!step(out.timestamp, out.tuple, out.size_bytes)) return std::nullopt;
  return out;
}

std::size_t ModelTraceSource::next_batch(net::PacketBatch& out,
                                         std::size_t max_n) {
  out.clear();
  double ts = 0.0;
  net::FiveTuple tuple;
  std::uint32_t size = 0;
  while (out.size() < max_n && step(ts, tuple, size)) {
    out.emplace_back(ts, tuple, size);
  }
  return out.size();
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

TraceSourcePtr make_synthetic_source(const trace::SyntheticConfig& config) {
  return std::make_unique<SyntheticTraceSource>(config);
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

TraceSourcePtr make_model_source(ModelSourceConfig config) {
  return std::make_unique<ModelTraceSource>(std::move(config));
}

}  // namespace fbm::api
