#include "trace/trace_stats.hpp"

#include <cmath>
#include <sstream>

#include "trace/trace_format.hpp"

namespace fbm::trace {

namespace {

void accumulate(TraceSummary& s, const net::PacketRecord& r) {
  if (s.packets == 0) {
    s.first_ts = r.timestamp;
    s.last_ts = r.timestamp;
  } else {
    s.last_ts = std::max(s.last_ts, r.timestamp);
    s.first_ts = std::min(s.first_ts, r.timestamp);
  }
  ++s.packets;
  s.total_bytes += r.size_bytes;
}

}  // namespace

void TraceSummary::add(const net::PacketBatch& batch) {
  if (packets == 0) first_ts = batch.timestamps.front();
  last_ts = batch.timestamps.back();
  packets += batch.size();
  for (const std::uint32_t size : batch.sizes) total_bytes += size;
}

TraceSummary summarize(std::span<const net::PacketRecord> recs) {
  TraceSummary s;
  for (const auto& r : recs) accumulate(s, r);
  return s;
}

TraceSummary summarize_file(const std::filesystem::path& path) {
  TraceReader reader(path);
  TraceSummary s;
  while (auto rec = reader.next()) accumulate(s, *rec);
  return s;
}

std::string format_duration(double seconds) {
  std::ostringstream os;
  if (seconds < 60.0) {
    os << std::llround(seconds) << "s";
    return os.str();
  }
  const auto total_m = static_cast<long>(std::llround(seconds / 60.0));
  const long h = total_m / 60;
  const long m = total_m % 60;
  if (h > 0) {
    os << h << "h";
    if (m > 0) os << " " << m << "m";
  } else {
    os << m << "m";
  }
  return os.str();
}

}  // namespace fbm::trace
