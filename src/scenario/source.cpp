#include "scenario/source.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "trace/synthetic.hpp"

namespace fbm::scenario {

namespace {

/// The spec allows a CV of 0 (constant sizes or durations), but a lognormal
/// needs sigma = sqrt(log(1 + cv^2)) > 0: this is the smallest CV whose
/// sigma survives that expression in doubles with room to spare.
constexpr double kMinCv = 1e-6;

[[nodiscard]] double envelope_lambda(const ScenarioSpec& spec) {
  double peak = 1.0;
  for (const auto& s : spec.segments) {
    peak = std::max(peak, s.lambda_peak_x());
  }
  return spec.lambda * peak;
}

}  // namespace

ScenarioTraceSource::ScenarioTraceSource(ScenarioSpec spec)
    : spec_([&] {
        spec.validate();
        return std::move(spec);
      }()),
      size_dist_(stats::LogNormal::from_mean_cv(
          spec_.size_mean_bits, std::max(kMinCv, spec_.size_cv))),
      duration_dist_(stats::LogNormal::from_mean_cv(
          spec_.duration_mean_s, std::max(kMinCv, spec_.duration_cv))),
      rng_(spec_.seed),
      arrivals_(envelope_lambda(spec_)) {
  segment_start_.reserve(spec_.segments.size());
  double t = 0.0;
  for (const auto& s : spec_.segments) {
    segment_start_.push_back(t);
    t += s.duration_s;
  }
  total_duration_s_ = t;
  advance_arrival();
}

const Segment& ScenarioTraceSource::segment_at(double t) const {
  // First segment whose start exceeds t, then step back one.
  auto it = std::upper_bound(segment_start_.begin(), segment_start_.end(),
                             t);
  const std::size_t i =
      it == segment_start_.begin()
          ? 0
          : static_cast<std::size_t>(it - segment_start_.begin()) - 1;
  return spec_.segments[std::min(i, spec_.segments.size() - 1)];
}

double ScenarioTraceSource::lambda_at(double t) const {
  const auto& seg = segment_at(t);
  double rate = spec_.lambda * seg.lambda_x;
  if (seg.kind == SegmentKind::diurnal && seg.amplitude > 0.0) {
    const std::size_t i =
        static_cast<std::size_t>(&seg - spec_.segments.data());
    const double phase = (t - segment_start_[i]) / seg.period_s;
    rate *= 1.0 + seg.amplitude *
                      std::sin(2.0 * std::numbers::pi * phase);
  }
  return std::max(rate, 0.0);
}

void ScenarioTraceSource::advance_arrival() {
  const double t = arrivals_.next(rng_, total_duration_s_,
                                  [this](double u) { return lambda_at(u); });
  if (t >= total_duration_s_) {
    arrivals_done_ = true;
  } else {
    next_arrival_ = t;
  }
}

void ScenarioTraceSource::start_flow(double t0) {
  const auto& seg = segment_at(t0);
  const bool event_segment = seg.kind == SegmentKind::ddos ||
                             seg.kind == SegmentKind::flash_crowd;
  // The intensity during an event segment is base*lambda_x; the extra
  // arrivals beyond the base rate are the attack/crowd class, so each
  // arrival is one with probability 1 - 1/lambda_x.
  const bool attack = event_segment && seg.lambda_x > 1.0 &&
                      rng_.bernoulli(1.0 - 1.0 / seg.lambda_x);

  ActiveFlow f;
  f.start = t0;
  double size_bits = size_dist_.sample(rng_);
  double duration_s = duration_dist_.sample(rng_);
  if (attack) {
    size_bits *= seg.size_x;
    duration_s *= seg.duration_x;
  }
  size_bits = std::max(1.0, size_bits);
  f.duration_s = std::max(1e-3, duration_s);
  f.packet_bytes = attack && seg.kind == SegmentKind::ddos
                       ? spec_.attack_packet_bytes
                       : spec_.packet_bytes;
  f.bytes_left =
      static_cast<std::uint64_t>(std::ceil(size_bits / 8.0));
  if (attack && seg.kind == SegmentKind::ddos) {
    // Keep flood flows at >= 2 packets: single-packet flows are discarded
    // by the paper's filtering rule and never reach the measured rate.
    f.bytes_left = std::max<std::uint64_t>(
        f.bytes_left, 2ull * f.packet_bytes);
  }

  std::size_t rank = attack && seg.prefixes.set
                         ? seg.prefixes.lo +
                               static_cast<std::size_t>(rng_.uniform_int(
                                   0, seg.prefixes.span() - 1))
                         : static_cast<std::size_t>(rng_.uniform_int(
                               0, spec_.prefix_pool - 1));
  if (seg.kind == SegmentKind::reroute && seg.prefixes.contains(rank)) {
    rank = seg.to_prefixes.lo +
           (rank - seg.prefixes.lo) % seg.to_prefixes.span();
  }
  f.tuple.dst = trace::dst_address_for_rank(
      rank, static_cast<std::uint8_t>(rng_.uniform_int(1, 254)));
  f.tuple.src = net::Ipv4Address(
      0x0a800000u |
      static_cast<std::uint32_t>(rng_.uniform_int(1, 0x7ffffe)));
  f.tuple.src_port =
      static_cast<std::uint16_t>(rng_.uniform_int(1024, 65535));
  f.tuple.dst_port = static_cast<std::uint16_t>(rng_.uniform_int(1, 1023));
  f.tuple.protocol = static_cast<std::uint8_t>(
      attack && seg.kind == SegmentKind::ddos ? net::Protocol::udp
                                              : net::Protocol::tcp);

  ++flows_;
  if (attack) ++attack_flows_;
  schedule_next_packet(f);
  active_.push(std::move(f));
}

void ScenarioTraceSource::schedule_next_packet(ActiveFlow& f) const {
  // Power-shot pacing: the cumulative bits sent at age u follow
  // S * (u/D)^(b+1); packet j leaves when its last bit has been
  // transmitted.
  const double total_bytes =
      static_cast<double>(f.bytes_left) +
      static_cast<double>(f.packets_sent) *
          static_cast<double>(f.packet_bytes);
  const double sent_after = static_cast<double>(f.packets_sent + 1) *
                            static_cast<double>(f.packet_bytes);
  const double fraction = std::min(1.0, sent_after / total_bytes);
  const double age =
      f.duration_s * std::pow(fraction, 1.0 / (spec_.shot_b + 1.0));
  f.next_packet_ts = f.start + age;
}

bool ScenarioTraceSource::step(double& ts, net::FiveTuple& tuple,
                               std::uint32_t& size) {
  while (true) {
    // Admit every arrival up to the next pending packet so the merged
    // stream leaves in global timestamp order.
    while (!arrivals_done_ &&
           (active_.empty() ||
            next_arrival_ <= active_.top().next_packet_ts)) {
      const double t0 = next_arrival_;
      start_flow(t0);
      advance_arrival();
    }
    if (active_.empty()) return false;

    ActiveFlow f = active_.top();
    active_.pop();
    if (f.next_packet_ts >= total_duration_s_) {
      // The capture stops at the horizon: the flow's tail is dropped.
      continue;
    }
    size = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(f.bytes_left, f.packet_bytes));
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

std::size_t ScenarioTraceSource::next_batch(net::PacketBatch& out,
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

bool ScenarioTraceSource::reset() {
  rng_ = stats::Rng(spec_.seed);
  arrivals_.reset();
  next_arrival_ = 0.0;
  arrivals_done_ = false;
  flows_ = 0;
  attack_flows_ = 0;
  active_ = {};
  advance_arrival();
  return true;
}

}  // namespace fbm::scenario
