#include "agg/partial_codec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace fbm::agg {

namespace {

using core::ByteBuffer;
using core::ByteCursor;

constexpr std::uint32_t kFrameMeta = 1;
constexpr std::uint32_t kFrameWindow = 2;
constexpr std::uint32_t kFrameEnd = 3;

// ------------------------------------------------------------- serializing ---

[[nodiscard]] ByteBuffer encode_end(std::uint64_t windows,
                                    const PartialTotals& t) {
  ByteBuffer b;
  b.put(windows);
  b.put(t.summary.packets);
  b.put(t.summary.total_bytes);
  b.put(t.summary.first_ts);
  b.put(t.summary.last_ts);
  b.put(static_cast<std::uint32_t>(t.links.size()));
  b.put(std::uint32_t{0});
  for (const auto& link : t.links) {
    b.put(link.id);
    b.put(std::uint32_t{0});
    b.put(link.packets);
    b.put(link.bytes);
  }
  return b;
}

// --------------------------------------------------------------- deserializing

void put_sum(ByteBuffer& b, const core::ExactSum& sum) {
  const core::ExactSum::Cells cells = sum.canonical_cells();
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
    b.put(static_cast<std::uint32_t>(cells[i]));
  }
  b.put(cells.back());
}

[[nodiscard]] core::ExactSum get_sum(ByteCursor& c) {
  core::ExactSum::Cells cells{};
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
    cells[i] = c.get<std::uint32_t>();
  }
  cells.back() = c.get<std::int64_t>();
  try {
    return core::ExactSum::from_canonical(cells);
  } catch (const std::invalid_argument&) {
    throw std::runtime_error(c.where + ": malformed frame payload");
  }
}

[[nodiscard]] std::pair<std::uint64_t, PartialTotals> decode_end(
    ByteCursor& c) {
  const auto windows = c.get<std::uint64_t>();
  PartialTotals t;
  t.summary.packets = c.get<std::uint64_t>();
  t.summary.total_bytes = c.get<std::uint64_t>();
  t.summary.first_ts = c.get<double>();
  t.summary.last_ts = c.get<double>();
  const auto nlinks = c.get<std::uint32_t>();
  (void)c.get<std::uint32_t>();  // reserved
  t.links.reserve(nlinks);
  for (std::uint32_t i = 0; i < nlinks; ++i) {
    LinkTotals link;
    link.id = c.get<std::uint32_t>();
    (void)c.get<std::uint32_t>();
    link.packets = c.get<std::uint64_t>();
    link.bytes = c.get<std::uint64_t>();
    t.links.push_back(link);
  }
  c.expect_done();
  return {windows, std::move(t)};
}

}  // namespace

// --------------------------------------------------------- window codec ---

void encode_window(ByteBuffer& b, const api::WindowPartial& w) {
  b.put(w.index);
  b.put(w.packets);
  b.put(w.bytes);
  b.put(w.discards);
  b.put(w.bins.grid_start());
  b.put(w.bins.grid_end());
  b.put(w.bins.grid_delta());
  b.put(static_cast<std::uint64_t>(w.bins.dropped()));
  b.put(w.bins.total_bytes());
  const auto bins = w.bins.bin_bytes();
  b.put(static_cast<std::uint64_t>(bins.size()));
  for (const double v : bins) b.put(v);
  const flow::FlowSums& f = w.sums;
  b.put(f.n);
  b.put(f.continued);
  b.put(f.size_bytes);
  b.put(f.size_bytes_sq);
  put_sum(b, f.s2_over_d);
  put_sum(b, f.duration);
  put_sum(b, f.duration_sq);
  put_sum(b, f.rate);
}

api::WindowPartial decode_window(ByteCursor& c) {
  const auto index = c.get<std::int64_t>();
  const auto packets = c.get<std::uint64_t>();
  const auto bytes = c.get<std::uint64_t>();
  const auto discards = c.get<std::uint64_t>();
  const double grid_start = c.get<double>();
  const double grid_end = c.get<double>();
  const double grid_delta = c.get<double>();
  const auto dropped = c.get<std::uint64_t>();
  const double total_bytes = c.get<double>();
  const auto bin_count = c.get<std::uint64_t>();
  if (bin_count > (c.size - c.at) / sizeof(double)) {
    throw std::runtime_error(c.where + ": malformed frame payload");
  }
  std::vector<double> bins;
  bins.reserve(bin_count);
  for (std::uint64_t i = 0; i < bin_count; ++i) bins.push_back(c.get<double>());
  api::WindowPartial w{
      .index = index,
      .packets = packets,
      .bytes = bytes,
      .discards = discards,
      .bins = [&] {
        try {
          return stats::RateBinner(grid_start, grid_end, grid_delta,
                                   std::move(bins),
                                   static_cast<std::size_t>(dropped),
                                   total_bytes);
        } catch (const std::invalid_argument&) {
          throw std::runtime_error(c.where + ": window bins do not match grid");
        }
      }()};
  flow::FlowSums& f = w.sums;
  f.n = c.get<std::uint64_t>();
  f.continued = c.get<std::uint64_t>();
  f.size_bytes = c.get<std::uint64_t>();
  f.size_bytes_sq = c.get<unsigned __int128>();
  f.s2_over_d = get_sum(c);
  f.duration = get_sum(c);
  f.duration_sq = get_sum(c);
  f.rate = get_sum(c);
  return w;
}

// ----------------------------------------------------------- meta codec ---

void encode_meta(core::ByteBuffer& b, const PartialMeta& m) {
  b.put(static_cast<std::uint32_t>(m.kind));
  b.put(static_cast<std::uint32_t>(m.flow_def));
  b.put(m.timeout_s);
  b.put(m.interval_s);
  b.put(m.delta_s);
  b.put(m.eps);
  b.put(m.min_flows);
  b.put(m.fixed_b);
  b.put(m.fallback_b);
  b.put(m.window_s);
  b.put(m.stride_s);
  b.put(m.forecast_max_order);
  b.put(m.forecast_history);
  b.put(m.band_k_sigma);
  b.put(m.alert_min_consecutive);
  b.put(m.bin_k_sigma);
  b.put(m.bin_min_consecutive);
  b.put(static_cast<std::uint32_t>(m.engine ? 1 : 0));
  b.put(static_cast<std::uint32_t>(m.links.size()));
  for (const auto& link : m.links) {
    b.put(link.id);
    b.put_string(link.name);
  }
}

PartialMeta decode_meta(core::ByteCursor& c) {
  PartialMeta m;
  const auto kind = c.get<std::uint32_t>();
  if (kind != static_cast<std::uint32_t>(PartialKind::batch) &&
      kind != static_cast<std::uint32_t>(PartialKind::live)) {
    throw std::runtime_error(c.where + ": unknown partial kind");
  }
  m.kind = static_cast<PartialKind>(kind);
  const auto def = c.get<std::uint32_t>();
  if (def > 1) {
    throw std::runtime_error(c.where + ": unknown flow definition");
  }
  m.flow_def = def == 0 ? api::FlowDefinition::five_tuple
                        : api::FlowDefinition::prefix24;
  m.timeout_s = c.get<double>();
  m.interval_s = c.get<double>();
  m.delta_s = c.get<double>();
  m.eps = c.get<double>();
  m.min_flows = c.get<std::uint64_t>();
  m.fixed_b = c.get<double>();
  m.fallback_b = c.get<double>();
  m.window_s = c.get<double>();
  m.stride_s = c.get<double>();
  m.forecast_max_order = c.get<std::uint64_t>();
  m.forecast_history = c.get<std::uint64_t>();
  m.band_k_sigma = c.get<double>();
  m.alert_min_consecutive = c.get<std::uint64_t>();
  m.bin_k_sigma = c.get<double>();
  m.bin_min_consecutive = c.get<std::uint64_t>();
  m.engine = c.get<std::uint32_t>() != 0;
  const auto nlinks = c.get<std::uint32_t>();
  m.links.reserve(nlinks);
  for (std::uint32_t i = 0; i < nlinks; ++i) {
    LinkDecl link;
    link.id = c.get<std::uint32_t>();
    link.name = c.get_string();
    m.links.push_back(std::move(link));
  }
  if (m.engine != !m.links.empty()) {
    throw std::runtime_error(c.where + ": inconsistent link declarations");
  }
  return m;
}

// ------------------------------------------------------------ PartialMeta ---

PartialMeta PartialMeta::from_batch(const api::AnalysisConfig& cfg) {
  PartialMeta m;
  m.kind = PartialKind::batch;
  m.flow_def = cfg.flow_definition();
  m.timeout_s = cfg.timeout_s();
  m.interval_s = cfg.interval_s();
  m.delta_s = cfg.delta_s();
  m.eps = cfg.epsilon();
  m.min_flows = cfg.min_flows();
  m.fixed_b = cfg.has_fixed_shot_b() ? cfg.fixed_shot_b() : -1.0;
  m.fallback_b = cfg.fallback_shot_b();
  return m;
}

PartialMeta PartialMeta::from_live(const live::LiveConfig& cfg) {
  PartialMeta m = from_batch(cfg.analysis);
  m.kind = PartialKind::live;
  m.interval_s = 0.0;  // the window is the analysis interval
  m.window_s = cfg.window_s;
  m.stride_s = cfg.stride_s;
  m.forecast_max_order = cfg.forecast_max_order;
  m.forecast_history = cfg.forecast_history;
  m.band_k_sigma = cfg.band_k_sigma;
  m.alert_min_consecutive = cfg.alert_min_consecutive;
  m.bin_k_sigma = cfg.bin_k_sigma;
  m.bin_min_consecutive = cfg.bin_min_consecutive;
  return m;
}

api::AnalysisConfig PartialMeta::analysis_config() const {
  api::AnalysisConfig cfg;
  cfg.flow_definition(flow_def)
      .timeout_s(timeout_s)
      .delta_s(delta_s)
      .epsilon(eps)
      .min_flows(static_cast<std::size_t>(min_flows))
      .fallback_shot_b(fallback_b);
  if (kind == PartialKind::batch) cfg.interval_s(interval_s);
  if (fixed_b >= 0.0) cfg.fixed_shot_b(fixed_b);
  return cfg;
}

live::LiveConfig PartialMeta::live_config() const {
  live::LiveConfig cfg;
  cfg.analysis = analysis_config();
  cfg.window_s = window_s;
  cfg.stride_s = stride_s;
  cfg.forecast_max_order = static_cast<std::size_t>(forecast_max_order);
  cfg.forecast_history = static_cast<std::size_t>(forecast_history);
  cfg.band_k_sigma = band_k_sigma;
  cfg.alert_min_consecutive = static_cast<std::size_t>(alert_min_consecutive);
  cfg.bin_k_sigma = bin_k_sigma;
  cfg.bin_min_consecutive = static_cast<std::size_t>(bin_min_consecutive);
  return cfg;
}

void check_compatible(const PartialMeta& a, const PartialMeta& b) {
  const auto fail = [](const char* what) {
    throw std::runtime_error(std::string("partial files disagree on ") +
                             what + " and cannot be merged");
  };
  if (a.kind != b.kind) fail("kind (batch vs live)");
  if (a.flow_def != b.flow_def) fail("flow definition");
  if (a.timeout_s != b.timeout_s) fail("timeout");
  if (a.interval_s != b.interval_s) fail("analysis interval");
  if (a.delta_s != b.delta_s) fail("delta");
  if (a.eps != b.eps) fail("epsilon");
  if (a.min_flows != b.min_flows) fail("min-flows");
  if (a.fixed_b != b.fixed_b) fail("fixed shot b");
  if (a.fallback_b != b.fallback_b) fail("fallback shot b");
  if (a.window_s != b.window_s) fail("window");
  if (a.stride_s != b.stride_s) fail("stride");
  if (a.forecast_max_order != b.forecast_max_order) fail("forecast order");
  if (a.forecast_history != b.forecast_history) fail("forecast history");
  if (a.band_k_sigma != b.band_k_sigma) fail("band k-sigma");
  if (a.alert_min_consecutive != b.alert_min_consecutive) {
    fail("alert consecutive-window threshold");
  }
  if (a.bin_k_sigma != b.bin_k_sigma) fail("bin k-sigma");
  if (a.bin_min_consecutive != b.bin_min_consecutive) {
    fail("bin consecutive threshold");
  }
  if (a.engine != b.engine) fail("engine mode");
  if (a.links.size() != b.links.size()) fail("link set");
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    if (a.links[i].id != b.links[i].id ||
        a.links[i].name != b.links[i].name) {
      fail("link set");
    }
  }
}

// ----------------------------------------------------------- PartialWriter ---

PartialWriter::PartialWriter(const std::filesystem::path& path,
                             PartialMeta meta)
    : out_(path, kPartialMagic, kPartialVersion, "PartialWriter") {
  ByteBuffer b;
  encode_meta(b, meta);
  out_.write_frame(kFrameMeta, b);
}

PartialWriter::~PartialWriter() = default;

void PartialWriter::add(std::uint32_t link_id,
                        const api::WindowPartial& window) {
  if (finished_) {
    throw std::logic_error("PartialWriter: add after finish");
  }
  ByteBuffer b;
  b.put(link_id);
  b.put(std::uint32_t{0});  // reserved
  encode_window(b, window);
  out_.write_frame(kFrameWindow, b);
  ++windows_;
}

void PartialWriter::finish(const PartialTotals& totals) {
  if (finished_) return;
  finished_ = true;
  out_.write_frame(kFrameEnd, encode_end(windows_, totals));
  out_.close();
}

// ------------------------------------------------------- read_partial_file ---

PartialFile read_partial_file(const std::filesystem::path& path) {
  const std::string where = "partial file " + path.string();
  core::FrameReader reader(
      path, {kPartialMagic, kPartialVersion, "a partial report", where,
             /*tolerate_torn_tail=*/false});

  PartialFile file;
  bool have_meta = false;
  bool have_end = false;
  std::uint64_t declared_windows = 0;

  while (!have_end) {
    auto frame = reader.next();
    if (!frame) {
      throw std::runtime_error(where + ": truncated (missing end frame)");
    }
    ByteCursor c{frame->payload.data(), frame->payload.size(), 0, where};
    if (!have_meta) {
      if (frame->type != kFrameMeta) {
        throw std::runtime_error(where + ": first frame is not a meta frame");
      }
      file.meta = decode_meta(c);
      c.expect_done();
      have_meta = true;
      continue;
    }
    switch (frame->type) {
      case kFrameMeta:
        throw std::runtime_error(where + ": duplicate meta frame");
      case kFrameWindow: {
        const auto link_id = c.get<std::uint32_t>();
        (void)c.get<std::uint32_t>();  // reserved
        file.windows.push_back({link_id, decode_window(c)});
        c.expect_done();
        break;
      }
      case kFrameEnd: {
        auto [windows, totals] = decode_end(c);
        declared_windows = windows;
        file.totals = std::move(totals);
        have_end = true;
        break;
      }
      default:
        throw std::runtime_error(where + ": unknown frame type " +
                                 std::to_string(frame->type));
    }
  }
  if (reader.remaining() != 0) {
    throw std::runtime_error(where + ": trailing data after end frame");
  }
  if (declared_windows != file.windows.size()) {
    throw std::runtime_error(
        where + ": window count mismatch (end frame says " +
        std::to_string(declared_windows) + ", file holds " +
        std::to_string(file.windows.size()) + ")");
  }
  for (const auto& w : file.windows) {
    const bool known =
        !file.meta.engine
            ? w.link_id == 0
            : std::any_of(file.meta.links.begin(), file.meta.links.end(),
                          [&](const LinkDecl& l) { return l.id == w.link_id; });
    if (!known) {
      throw std::runtime_error(where + ": window frame for undeclared link");
    }
  }
  return file;
}

}  // namespace fbm::agg
