#include "ckpt/checkpoint.hpp"

#include <stdexcept>
#include <utility>

#include "obs/catalog.hpp"

namespace fbm::ckpt {

namespace {

using core::ByteBuffer;
using core::ByteCursor;

constexpr std::uint32_t kFrameMeta = 1;       ///< kind + agg::PartialMeta
constexpr std::uint32_t kFrameEstimator = 2;  ///< live::EstimatorState
constexpr std::uint32_t kFrameEngine = 3;     ///< stream totals + link count
constexpr std::uint32_t kFrameSession = 4;    ///< one per link, attach order
constexpr std::uint32_t kFrameEnd = 5;        ///< frame count + packet total
constexpr std::uint32_t kFrameShard = 6;  ///< shards 1..K-1 of the last link

// ------------------------------------------------------------- serializing ---

void put_flow(ByteBuffer& b, const flow::FlowRecord& f) {
  b.put(f.start);
  b.put(f.end);
  b.put(f.size_bytes);
  b.put(f.packets);
  b.put(static_cast<std::uint64_t>(f.continued ? 1 : 0));
}

void put_classifier(ByteBuffer& b, const api::ClassifierState& s) {
  b.put(static_cast<std::uint64_t>(s.active.size()));
  for (const auto& a : s.active) {
    b.put(a.key.src.value());
    b.put(a.key.dst.value());
    b.put(static_cast<std::uint32_t>(a.key.src_port));
    b.put(static_cast<std::uint32_t>(a.key.dst_port));
    b.put(static_cast<std::uint32_t>(a.key.protocol));
    b.put(std::uint32_t{0});  // reserved
    put_flow(b, a.record);
    b.put(a.start_index);
  }
  b.put(s.counters.packets);
  b.put(s.counters.flows_emitted);
  b.put(s.counters.single_packet_discards);
  b.put(s.counters.boundary_splits);
  b.put(s.last_ts);
}

void put_estimator(ByteBuffer& b, const live::EstimatorState& s) {
  b.put(s.counters.packets);
  b.put(s.counters.bytes);
  b.put(s.counters.windows);
  b.put(s.counters.flows);
  b.put(s.last_ts);
  b.put(s.next_expire);
  b.put(s.next_close);
  b.put(s.max_window);
  b.put(s.cur_kmax);
  b.put(static_cast<std::uint64_t>(s.forecast_history.size()));
  for (const double v : s.forecast_history) b.put(v);
  b.put(s.monitor_consecutive);
  b.put(s.monitor_last_kind);
  b.put(std::uint32_t{0});  // reserved
  b.put(static_cast<std::uint64_t>(s.open.size()));
  for (const auto& w : s.open) {
    b.put(static_cast<std::uint32_t>(w ? 1 : 0));
    b.put(std::uint32_t{0});  // reserved
    if (!w) continue;
    put_classifier(b, w->classifier);
    agg::encode_window(b, w->window);
  }
}

[[nodiscard]] ByteBuffer encode_meta_frame(CheckpointKind kind,
                                           const agg::PartialMeta& meta) {
  ByteBuffer b;
  b.put(static_cast<std::uint32_t>(kind));
  b.put(std::uint32_t{0});  // reserved
  agg::encode_meta(b, meta);
  return b;
}

[[nodiscard]] ByteBuffer encode_end(std::uint64_t frames,
                                    std::uint64_t packets) {
  ByteBuffer b;
  b.put(frames);
  b.put(packets);
  return b;
}

// --------------------------------------------------------------- deserializing

void check_count(const ByteCursor& c, std::uint64_t count,
                 std::size_t min_bytes_each) {
  if (count > (c.size - c.at) / min_bytes_each) {
    throw std::runtime_error(c.where + ": malformed frame payload");
  }
}

[[nodiscard]] flow::FlowRecord get_flow(ByteCursor& c) {
  flow::FlowRecord f;
  f.start = c.get<double>();
  f.end = c.get<double>();
  f.size_bytes = c.get<std::uint64_t>();
  f.packets = c.get<std::uint64_t>();
  f.continued = c.get<std::uint64_t>() != 0;
  return f;
}

[[nodiscard]] api::ClassifierState get_classifier(ByteCursor& c) {
  api::ClassifierState s;
  const auto active = c.get<std::uint64_t>();
  check_count(c, active, 72);  // key + record + start_index
  s.active.reserve(active);
  for (std::uint64_t i = 0; i < active; ++i) {
    api::ClassifierState::ActiveFlow a;
    a.key.src = net::Ipv4Address(c.get<std::uint32_t>());
    a.key.dst = net::Ipv4Address(c.get<std::uint32_t>());
    a.key.src_port = static_cast<std::uint16_t>(c.get<std::uint32_t>());
    a.key.dst_port = static_cast<std::uint16_t>(c.get<std::uint32_t>());
    a.key.protocol = static_cast<std::uint8_t>(c.get<std::uint32_t>());
    (void)c.get<std::uint32_t>();  // reserved
    a.record = get_flow(c);
    a.start_index = c.get<std::int64_t>();
    s.active.push_back(a);
  }
  s.counters.packets = c.get<std::uint64_t>();
  s.counters.flows_emitted = c.get<std::uint64_t>();
  s.counters.single_packet_discards = c.get<std::uint64_t>();
  s.counters.boundary_splits = c.get<std::uint64_t>();
  s.last_ts = c.get<double>();
  return s;
}

[[nodiscard]] live::EstimatorState get_estimator(ByteCursor& c) {
  live::EstimatorState s;
  s.counters.packets = c.get<std::uint64_t>();
  s.counters.bytes = c.get<std::uint64_t>();
  s.counters.windows = c.get<std::uint64_t>();
  s.counters.flows = c.get<std::uint64_t>();
  s.last_ts = c.get<double>();
  s.next_expire = c.get<double>();
  s.next_close = c.get<std::int64_t>();
  s.max_window = c.get<std::int64_t>();
  s.cur_kmax = c.get<std::int64_t>();
  const auto history = c.get<std::uint64_t>();
  check_count(c, history, sizeof(double));
  s.forecast_history.reserve(history);
  for (std::uint64_t i = 0; i < history; ++i) {
    s.forecast_history.push_back(c.get<double>());
  }
  s.monitor_consecutive = c.get<std::uint64_t>();
  s.monitor_last_kind = c.get<std::uint32_t>();
  (void)c.get<std::uint32_t>();  // reserved
  const auto open = c.get<std::uint64_t>();
  check_count(c, open, 8);
  s.open.reserve(open);
  for (std::uint64_t i = 0; i < open; ++i) {
    const bool present = c.get<std::uint32_t>() != 0;
    (void)c.get<std::uint32_t>();  // reserved
    if (!present) {
      s.open.emplace_back(std::nullopt);
      continue;
    }
    api::ClassifierState classifier = get_classifier(c);
    s.open.push_back(live::EstimatorState::OpenWindow{
        std::move(classifier), agg::decode_window(c)});
  }
  return s;
}

// ------------------------------------------------------------------ writing --

/// One body frame: its type and payload.
struct Frame {
  std::uint32_t type;
  ByteBuffer payload;
};

void write_frames(const std::filesystem::path& path, CheckpointKind kind,
                  const agg::PartialMeta& meta, std::uint64_t packets,
                  const std::vector<Frame>& body) {
  static obs::Histogram& ckpt_seconds =
      obs::stage_seconds(obs::kStageCheckpoint);
  obs::StageSpan span(ckpt_seconds);  // encode + write + fsync + rename
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    core::FrameWriter out(tmp, kCheckpointMagic, kCheckpointVersion,
                          "checkpoint");
    out.write_frame(kFrameMeta, encode_meta_frame(kind, meta));
    for (const auto& f : body) out.write_frame(f.type, f.payload);
    out.write_frame(kFrameEnd,
                    encode_end(1 + body.size() + 1, packets));
    out.flush();
    out.close();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("checkpoint: cannot rename " + tmp.string() +
                             " to " + path.string() + ": " + ec.message());
  }
  if (obs::enabled()) {
    obs::checkpoint_writes().add(1);
    std::error_code size_ec;
    const auto bytes = std::filesystem::file_size(path, size_ec);
    if (!size_ec) {
      obs::checkpoint_last_bytes().set(static_cast<double>(bytes));
    }
  }
}

}  // namespace

void write_checkpoint(const std::filesystem::path& path,
                      const agg::PartialMeta& meta,
                      const live::EstimatorState& state) {
  std::vector<Frame> body(1, Frame{kFrameEstimator, {}});
  put_estimator(body.front().payload, state);
  write_frames(path, CheckpointKind::estimator, meta, state.counters.packets,
               body);
}

void write_checkpoint(const std::filesystem::path& path,
                      const agg::PartialMeta& meta,
                      const engine::EngineState& state) {
  std::vector<Frame> body;
  {
    ByteBuffer b;
    b.put(state.summary.packets);
    b.put(state.summary.total_bytes);
    b.put(state.summary.first_ts);
    b.put(state.summary.last_ts);
    b.put(state.last_ts);
    b.put(static_cast<std::uint64_t>(state.sessions.size()));
    body.push_back({kFrameEngine, std::move(b)});
  }
  for (const auto& s : state.sessions) {
    ByteBuffer b;
    b.put_string(s.name);
    b.put(static_cast<std::uint32_t>(s.attached ? 1 : 0));
    b.put(static_cast<std::uint32_t>(s.shards.empty() ? 0 : 1));
    b.put(s.counters.packets);
    b.put(s.counters.bytes);
    b.put(s.counters.reports);
    if (!s.shards.empty()) put_estimator(b, s.shards.front());
    body.push_back({kFrameSession, std::move(b)});
    for (std::size_t k = 1; k < s.shards.size(); ++k) {
      body.push_back({kFrameShard, {}});
      put_estimator(body.back().payload, s.shards[k]);
    }
  }
  write_frames(path, CheckpointKind::engine, meta, state.summary.packets,
               body);
}

Checkpoint read_checkpoint(const std::filesystem::path& path) {
  const std::string where = "checkpoint " + path.string();
  core::FrameReader reader(
      path, {kCheckpointMagic, kCheckpointVersion, "a checkpoint", where,
             /*tolerate_torn_tail=*/false});

  Checkpoint ck;
  std::uint64_t frames = 0;
  std::uint64_t expected_sessions = 0;
  bool saw_meta = false;
  bool saw_body = false;
  bool saw_end = false;

  while (auto frame = reader.next()) {
    ++frames;
    ByteCursor c{frame->payload.data(), frame->payload.size(), 0, where};
    switch (frame->type) {
      case kFrameMeta: {
        if (saw_meta) {
          throw std::runtime_error(where + ": duplicate meta frame");
        }
        saw_meta = true;
        const auto kind = c.get<std::uint32_t>();
        (void)c.get<std::uint32_t>();  // reserved
        if (kind != static_cast<std::uint32_t>(CheckpointKind::estimator) &&
            kind != static_cast<std::uint32_t>(CheckpointKind::engine)) {
          throw std::runtime_error(where + ": unknown checkpoint kind " +
                                   std::to_string(kind));
        }
        ck.kind = static_cast<CheckpointKind>(kind);
        ck.meta = agg::decode_meta(c);
        c.expect_done();
        break;
      }
      case kFrameEstimator: {
        if (!saw_meta || ck.kind != CheckpointKind::estimator || saw_body) {
          throw std::runtime_error(where + ": unexpected estimator frame");
        }
        saw_body = true;
        ck.estimator = get_estimator(c);
        c.expect_done();
        break;
      }
      case kFrameEngine: {
        if (!saw_meta || ck.kind != CheckpointKind::engine || saw_body) {
          throw std::runtime_error(where + ": unexpected engine frame");
        }
        saw_body = true;
        ck.engine.summary.packets = c.get<std::uint64_t>();
        ck.engine.summary.total_bytes = c.get<std::uint64_t>();
        ck.engine.summary.first_ts = c.get<double>();
        ck.engine.summary.last_ts = c.get<double>();
        ck.engine.last_ts = c.get<double>();
        expected_sessions = c.get<std::uint64_t>();
        c.expect_done();
        break;
      }
      case kFrameSession: {
        if (!saw_body || ck.kind != CheckpointKind::engine) {
          throw std::runtime_error(where + ": unexpected session frame");
        }
        if (ck.engine.sessions.size() >= expected_sessions) {
          throw std::runtime_error(where + ": more session frames than " +
                                   "the engine frame declared");
        }
        engine::EngineSessionState ss;
        ss.name = c.get_string();
        ss.attached = c.get<std::uint32_t>() != 0;
        const bool has_live = c.get<std::uint32_t>() != 0;
        ss.counters.packets = c.get<std::uint64_t>();
        ss.counters.bytes = c.get<std::uint64_t>();
        ss.counters.reports = c.get<std::uint64_t>();
        if (has_live) ss.shards.push_back(get_estimator(c));
        c.expect_done();
        ck.engine.sessions.push_back(std::move(ss));
        break;
      }
      case kFrameShard: {
        if (ck.engine.sessions.empty() ||
            ck.engine.sessions.back().shards.empty()) {
          throw std::runtime_error(where + ": unexpected shard frame");
        }
        ck.engine.sessions.back().shards.push_back(get_estimator(c));
        c.expect_done();
        break;
      }
      case kFrameEnd: {
        if (!saw_body) {
          throw std::runtime_error(where + ": end frame before state");
        }
        const auto declared_frames = c.get<std::uint64_t>();
        const auto declared_packets = c.get<std::uint64_t>();
        c.expect_done();
        if (declared_frames != frames) {
          throw std::runtime_error(where + ": frame count mismatch");
        }
        if (declared_packets != ck.packets_consumed()) {
          throw std::runtime_error(where + ": packet total mismatch");
        }
        saw_end = true;
        break;
      }
      default:
        throw std::runtime_error(where + ": unknown frame type " +
                                 std::to_string(frame->type));
    }
    if (saw_end) break;
  }

  if (!saw_end) {
    throw std::runtime_error(where + ": truncated (missing end frame)");
  }
  if (ck.kind == CheckpointKind::engine &&
      ck.engine.sessions.size() != expected_sessions) {
    throw std::runtime_error(where + ": missing session frames");
  }
  if (reader.remaining() != 0) {
    throw std::runtime_error(where + ": trailing data after end frame");
  }
  return ck;
}

}  // namespace fbm::ckpt
