#include "scenario/spec.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace fbm::scenario {

namespace {

[[noreturn]] void fail(std::string_view origin, std::size_t line,
                       const std::string& what) {
  std::ostringstream msg;
  msg << "scenario spec " << origin << ":" << line << ": " << what;
  throw std::invalid_argument(msg.str());
}

[[nodiscard]] double parse_double(std::string_view origin, std::size_t line,
                                  const std::string& key,
                                  const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    fail(origin, line, key + " wants a number, got \"" + value + "\"");
  }
}

/// Reads all of `value` as an unsigned integer no greater than `max`,
/// exactly: no sign, no whitespace, no wrap-around.
[[nodiscard]] std::uint64_t parse_u64(
    std::string_view origin, std::size_t line, const std::string& key,
    const std::string& value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, v);
  if (value.empty() || ec != std::errc{} || end != last || v > max) {
    fail(origin, line,
         key + " wants an unsigned integer <= " + std::to_string(max) +
             ", got \"" + value + "\"");
  }
  return v;
}

[[nodiscard]] std::uint32_t parse_u32(std::string_view origin,
                                      std::size_t line,
                                      const std::string& key,
                                      const std::string& value) {
  return static_cast<std::uint32_t>(
      parse_u64(origin, line, key, value,
                std::numeric_limits<std::uint32_t>::max()));
}

[[nodiscard]] PrefixRange parse_range(std::string_view origin,
                                      std::size_t line,
                                      const std::string& key,
                                      const std::string& value) {
  PrefixRange r;
  const auto dash = value.find('-');
  if (dash == std::string::npos) {
    r.lo = r.hi = static_cast<std::size_t>(parse_u64(origin, line, key,
                                                     value));
  } else {
    r.lo = static_cast<std::size_t>(
        parse_u64(origin, line, key, value.substr(0, dash)));
    r.hi = static_cast<std::size_t>(
        parse_u64(origin, line, key, value.substr(dash + 1)));
  }
  if (r.hi < r.lo) fail(origin, line, key + ": range hi < lo");
  r.set = true;
  return r;
}

/// Per-kind defaults for multipliers the spec leaves unset, chosen so the
/// bundled regimes carry the paper's signatures (ddos: lambda up, E[S]
/// down; flash crowd: both up) and are detectable out of the box.
void apply_kind_defaults(Segment& s, bool lambda_set, bool size_set,
                         bool duration_set, bool amplitude_set) {
  switch (s.kind) {
    case SegmentKind::ddos:
      if (!lambda_set) s.lambda_x = 30.0;
      if (!size_set) s.size_x = 0.05;
      if (!duration_set) s.duration_x = 0.3;
      break;
    case SegmentKind::flash_crowd:
      if (!lambda_set) s.lambda_x = 3.0;
      if (!size_set) s.size_x = 2.5;
      break;
    case SegmentKind::diurnal:
      if (!amplitude_set) s.amplitude = 0.3;
      break;
    case SegmentKind::baseline:
    case SegmentKind::reroute:
      break;
  }
}

}  // namespace

std::string_view to_string(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::baseline: return "baseline";
    case SegmentKind::diurnal: return "diurnal";
    case SegmentKind::flash_crowd: return "flash-crowd";
    case SegmentKind::ddos: return "ddos";
    case SegmentKind::reroute: return "reroute";
  }
  return "baseline";
}

SegmentKind segment_kind_from_string(std::string_view name) {
  if (name == "baseline") return SegmentKind::baseline;
  if (name == "diurnal") return SegmentKind::diurnal;
  if (name == "flash-crowd" || name == "flash_crowd") {
    return SegmentKind::flash_crowd;
  }
  if (name == "ddos") return SegmentKind::ddos;
  if (name == "reroute") return SegmentKind::reroute;
  throw std::invalid_argument("unknown segment kind \"" + std::string(name) +
                              "\"");
}

double ScenarioSpec::total_duration_s() const {
  double total = 0.0;
  for (const auto& s : segments) total += s.duration_s;
  return total;
}

double ScenarioSpec::segment_start_s(std::size_t i) const {
  double start = 0.0;
  for (std::size_t k = 0; k < i && k < segments.size(); ++k) {
    start += segments[k].duration_s;
  }
  return start;
}

void ScenarioSpec::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("ScenarioSpec: " + what);
  };
  // Every number must be finite: an infinite segment never ends, and NaN
  // slips through the ordered comparisons below.
  for (const double v : {lambda, size_mean_bits, size_cv, duration_mean_s,
                         duration_cv, shot_b, grace_s, cooldown_s, window_s,
                         stride_s}) {
    if (!std::isfinite(v)) bad("non-finite value");
  }
  if (name.empty()) bad("missing scenario name");
  if (!(lambda > 0.0)) bad("lambda <= 0");
  if (!(size_mean_bits > 0.0)) bad("size-mean-bits <= 0");
  if (!(duration_mean_s > 0.0)) bad("duration-mean-s <= 0");
  if (size_cv < 0.0 || duration_cv < 0.0) bad("cv < 0");
  if (!(shot_b >= 0.0)) bad("shot-b < 0");
  if (packet_bytes == 0) bad("packet-bytes == 0");
  if (attack_packet_bytes == 0) bad("attack-packet-bytes == 0");
  if (prefix_pool == 0) bad("prefix-pool == 0");
  if (grace_s < 0.0 || cooldown_s < 0.0) bad("grace/cooldown < 0");
  if (!(window_s > 0.0)) bad("window <= 0");
  if (stride_s < 0.0) bad("stride < 0");
  if (segments.empty()) bad("no segments");
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& s = segments[i];
    const std::string where = "segment " + std::to_string(i) + " (" +
                              std::string(to_string(s.kind)) + "): ";
    for (const double v : {s.duration_s, s.lambda_x, s.size_x, s.duration_x,
                           s.amplitude, s.period_s}) {
      if (!std::isfinite(v)) bad(where + "non-finite value");
    }
    if (!(s.duration_s > 0.0)) bad(where + "duration <= 0");
    if (!(s.lambda_x > 0.0)) bad(where + "lambda-x <= 0");
    if (!(s.size_x > 0.0)) bad(where + "size-x <= 0");
    if (!(s.duration_x > 0.0)) bad(where + "duration-x <= 0");
    if (s.amplitude < 0.0 || s.amplitude > 1.0) {
      bad(where + "amplitude outside [0, 1]");
    }
    if (s.kind == SegmentKind::diurnal && !(s.period_s > 0.0)) {
      bad(where + "period <= 0");
    }
    if (s.prefixes.set && s.prefixes.hi >= prefix_pool) {
      bad(where + "prefixes outside pool");
    }
    if (s.to_prefixes.set && s.to_prefixes.hi >= prefix_pool) {
      bad(where + "to-prefixes outside pool");
    }
    if (s.kind == SegmentKind::reroute) {
      if (!s.prefixes.set || !s.to_prefixes.set) {
        bad(where + "needs prefixes= and to-prefixes=");
      }
    }
    if (!std::isfinite(lambda * s.lambda_peak_x())) {
      bad(where + "peak arrival rate overflows");
    }
  }
  if (!std::isfinite(total_duration_s())) bad("total duration overflows");
}

ScenarioSpec parse_scenario(std::istream& in, std::string_view origin) {
  ScenarioSpec spec;
  std::string line;
  std::size_t lineno = 0;
  bool saw_scenario = false;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only line

    const auto want_value = [&](const std::string& k) {
      std::string v;
      if (!(ls >> v)) fail(origin, lineno, k + " wants a value");
      return v;
    };

    if (key == "scenario") {
      spec.name = want_value(key);
      saw_scenario = true;
    } else if (key == "seed") {
      spec.seed = parse_u64(origin, lineno, key, want_value(key));
    } else if (key == "lambda") {
      spec.lambda = parse_double(origin, lineno, key, want_value(key));
    } else if (key == "size-mean-bits") {
      spec.size_mean_bits =
          parse_double(origin, lineno, key, want_value(key));
    } else if (key == "size-cv") {
      spec.size_cv = parse_double(origin, lineno, key, want_value(key));
    } else if (key == "duration-mean-s") {
      spec.duration_mean_s =
          parse_double(origin, lineno, key, want_value(key));
    } else if (key == "duration-cv") {
      spec.duration_cv = parse_double(origin, lineno, key, want_value(key));
    } else if (key == "shot-b") {
      spec.shot_b = parse_double(origin, lineno, key, want_value(key));
    } else if (key == "packet-bytes") {
      spec.packet_bytes = parse_u32(origin, lineno, key, want_value(key));
    } else if (key == "attack-packet-bytes") {
      spec.attack_packet_bytes =
          parse_u32(origin, lineno, key, want_value(key));
    } else if (key == "prefix-pool") {
      spec.prefix_pool = static_cast<std::size_t>(
          parse_u64(origin, lineno, key, want_value(key)));
    } else if (key == "grace") {
      spec.grace_s = parse_double(origin, lineno, key, want_value(key));
    } else if (key == "cooldown") {
      spec.cooldown_s = parse_double(origin, lineno, key, want_value(key));
    } else if (key == "window") {
      spec.window_s = parse_double(origin, lineno, key, want_value(key));
    } else if (key == "stride") {
      spec.stride_s = parse_double(origin, lineno, key, want_value(key));
    } else if (key == "segment") {
      Segment seg;
      std::string kind;
      std::string duration;
      if (!(ls >> kind >> duration)) {
        fail(origin, lineno, "segment wants KIND DURATION");
      }
      try {
        seg.kind = segment_kind_from_string(kind);
      } catch (const std::invalid_argument& e) {
        fail(origin, lineno, e.what());
      }
      seg.duration_s = parse_double(origin, lineno, "duration", duration);
      bool lambda_set = false;
      bool size_set = false;
      bool duration_set = false;
      bool amplitude_set = false;
      std::string opt;
      while (ls >> opt) {
        const auto eq = opt.find('=');
        if (eq == std::string::npos) {
          fail(origin, lineno, "segment option \"" + opt +
                                   "\" wants key=value");
        }
        const std::string k = opt.substr(0, eq);
        const std::string v = opt.substr(eq + 1);
        if (k == "lambda-x") {
          seg.lambda_x = parse_double(origin, lineno, k, v);
          lambda_set = true;
        } else if (k == "size-x") {
          seg.size_x = parse_double(origin, lineno, k, v);
          size_set = true;
        } else if (k == "duration-x") {
          seg.duration_x = parse_double(origin, lineno, k, v);
          duration_set = true;
        } else if (k == "amplitude") {
          seg.amplitude = parse_double(origin, lineno, k, v);
          amplitude_set = true;
        } else if (k == "period") {
          seg.period_s = parse_double(origin, lineno, k, v);
        } else if (k == "prefixes") {
          seg.prefixes = parse_range(origin, lineno, k, v);
        } else if (k == "to-prefixes") {
          seg.to_prefixes = parse_range(origin, lineno, k, v);
        } else if (k == "expect") {
          if (v == "none") {
            seg.expect = Expectation::none;
          } else if (v == "spike") {
            seg.expect = Expectation::spike;
          } else if (v == "drop") {
            seg.expect = Expectation::drop;
          } else {
            fail(origin, lineno, "expect wants none|spike|drop, got \"" +
                                     v + "\"");
          }
        } else if (k == "expect-spike") {
          seg.expect_spike_link = v;
        } else if (k == "expect-drop") {
          seg.expect_drop_link = v;
        } else {
          fail(origin, lineno, "unknown segment option \"" + k + "\"");
        }
      }
      apply_kind_defaults(seg, lambda_set, size_set, duration_set,
                          amplitude_set);
      spec.segments.push_back(std::move(seg));
    } else {
      fail(origin, lineno, "unknown key \"" + key + "\"");
    }
  }
  if (!saw_scenario) {
    fail(origin, lineno == 0 ? 1 : lineno, "missing \"scenario NAME\" line");
  }
  spec.validate();
  return spec;
}

ScenarioSpec parse_scenario_text(std::string_view text) {
  std::istringstream in{std::string(text)};
  return parse_scenario(in, "<string>");
}

ScenarioSpec load_scenario(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_scenario: cannot open " + path.string());
  }
  return parse_scenario(in, path.string());
}

std::string render_scenario(const ScenarioSpec& spec) {
  std::ostringstream out;
  out.precision(17);
  out << "scenario " << spec.name << "\n";
  out << "seed " << spec.seed << "\n";
  out << "lambda " << spec.lambda << "\n";
  out << "size-mean-bits " << spec.size_mean_bits << "\n";
  out << "size-cv " << spec.size_cv << "\n";
  out << "duration-mean-s " << spec.duration_mean_s << "\n";
  out << "duration-cv " << spec.duration_cv << "\n";
  out << "shot-b " << spec.shot_b << "\n";
  out << "packet-bytes " << spec.packet_bytes << "\n";
  out << "attack-packet-bytes " << spec.attack_packet_bytes << "\n";
  out << "prefix-pool " << spec.prefix_pool << "\n";
  out << "grace " << spec.grace_s << "\n";
  out << "cooldown " << spec.cooldown_s << "\n";
  out << "window " << spec.window_s << "\n";
  out << "stride " << spec.stride_s << "\n";
  for (const auto& s : spec.segments) {
    out << "segment " << to_string(s.kind) << " " << s.duration_s;
    out << " lambda-x=" << s.lambda_x;
    out << " size-x=" << s.size_x;
    out << " duration-x=" << s.duration_x;
    if (s.kind == SegmentKind::diurnal) {
      out << " amplitude=" << s.amplitude << " period=" << s.period_s;
    }
    if (s.prefixes.set) {
      out << " prefixes=" << s.prefixes.lo << "-" << s.prefixes.hi;
    }
    if (s.to_prefixes.set) {
      out << " to-prefixes=" << s.to_prefixes.lo << "-"
          << s.to_prefixes.hi;
    }
    switch (s.expect) {
      case Expectation::auto_from_kind: break;
      case Expectation::none: out << " expect=none"; break;
      case Expectation::spike: out << " expect=spike"; break;
      case Expectation::drop: out << " expect=drop"; break;
    }
    if (!s.expect_spike_link.empty()) {
      out << " expect-spike=" << s.expect_spike_link;
    }
    if (!s.expect_drop_link.empty()) {
      out << " expect-drop=" << s.expect_drop_link;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace fbm::scenario
