#include "scenario/truth.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fbm::scenario {

namespace {

constexpr const char* kHeader = "# fbm-scenario-truth v1";

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("truth log line " + std::to_string(line) +
                              ": " + what);
}

/// Reads the next token as an unsigned integer, exactly: a sign or a value
/// past 2^64 - 1 fails the line instead of wrapping.
[[nodiscard]] std::uint64_t read_u64(std::istream& ls, std::size_t line,
                                     const std::string& key) {
  std::string token;
  std::uint64_t v = 0;
  if (ls >> token) {
    const char* last = token.data() + token.size();
    const auto [end, ec] = std::from_chars(token.data(), last, v);
    if (ec == std::errc{} && end == last) return v;
  }
  fail(line, key + " wants an unsigned integer");
}

/// Reads the next token as a number >= 0.
[[nodiscard]] double read_nonnegative(std::istream& ls, std::size_t line,
                                      const std::string& key) {
  double v = 0.0;
  if (!(ls >> v)) fail(line, key + " wants a number");
  if (!(v >= 0.0)) fail(line, key + " < 0");
  return v;
}

/// Resolved expectation of one segment's aggregate behaviour.
[[nodiscard]] live::AlertKind resolve_expect(const Segment& s) {
  switch (s.expect) {
    case Expectation::none: return live::AlertKind::none;
    case Expectation::spike: return live::AlertKind::spike;
    case Expectation::drop: return live::AlertKind::drop;
    case Expectation::auto_from_kind: break;
  }
  switch (s.kind) {
    case SegmentKind::ddos:
    case SegmentKind::flash_crowd:
      return live::AlertKind::spike;
    case SegmentKind::baseline:
    case SegmentKind::diurnal:
    case SegmentKind::reroute:
      return live::AlertKind::none;
  }
  return live::AlertKind::none;
}

}  // namespace

TruthLog derive_truth(const ScenarioSpec& spec) {
  spec.validate();
  TruthLog log;
  log.scenario = spec.name;
  log.seed = spec.seed;
  log.duration_s = spec.total_duration_s();
  log.grace_s = spec.grace_s;
  log.cooldown_s = spec.cooldown_s;

  double t = 0.0;
  for (const auto& s : spec.segments) {
    TruthSegment seg;
    seg.kind = s.kind;
    seg.start_s = t;
    seg.end_s = t + s.duration_s;
    log.segments.push_back(seg);

    const auto kind = resolve_expect(s);
    if (kind != live::AlertKind::none) {
      log.events.push_back({kind, seg.start_s, seg.end_s, ""});
    }
    if (!s.expect_spike_link.empty()) {
      log.events.push_back(
          {live::AlertKind::spike, seg.start_s, seg.end_s,
           s.expect_spike_link});
    }
    if (!s.expect_drop_link.empty()) {
      log.events.push_back(
          {live::AlertKind::drop, seg.start_s, seg.end_s,
           s.expect_drop_link});
    }
    t = seg.end_s;
  }
  return log;
}

std::string write_truth(const TruthLog& log) {
  std::ostringstream out;
  out.precision(17);
  out << kHeader << "\n";
  out << "scenario " << log.scenario << "\n";
  out << "seed " << log.seed << "\n";
  out << "duration " << log.duration_s << "\n";
  out << "grace " << log.grace_s << "\n";
  out << "cooldown " << log.cooldown_s << "\n";
  for (std::size_t i = 0; i < log.segments.size(); ++i) {
    const auto& s = log.segments[i];
    out << "segment " << i << " " << to_string(s.kind) << " " << s.start_s
        << " " << s.end_s << "\n";
  }
  for (const auto& e : log.events) {
    out << "event " << live::to_string(e.kind) << " " << e.start_s << " "
        << e.end_s << " link " << (e.link.empty() ? "-" : e.link) << "\n";
  }
  return out.str();
}

void write_truth_file(const std::filesystem::path& path,
                      const TruthLog& log) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_truth_file: cannot open " +
                             path.string());
  }
  out << write_truth(log);
  if (!out) {
    throw std::runtime_error("write_truth_file: write failed for " +
                             path.string());
  }
}

TruthLog parse_truth(std::istream& in) {
  TruthLog log;
  std::string line;
  std::size_t lineno = 0;
  bool saw_scenario = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "scenario") {
      if (!(ls >> log.scenario)) fail(lineno, "scenario wants a name");
      saw_scenario = true;
    } else if (key == "seed") {
      log.seed = read_u64(ls, lineno, key);
    } else if (key == "duration") {
      log.duration_s = read_nonnegative(ls, lineno, key);
    } else if (key == "grace") {
      log.grace_s = read_nonnegative(ls, lineno, key);
    } else if (key == "cooldown") {
      log.cooldown_s = read_nonnegative(ls, lineno, key);
    } else if (key == "segment") {
      const std::uint64_t index = read_u64(ls, lineno, "segment index");
      std::string kind;
      TruthSegment seg;
      if (!(ls >> kind >> seg.start_s >> seg.end_s)) {
        fail(lineno, "segment wants INDEX KIND START END");
      }
      if (!(seg.end_s >= seg.start_s)) {
        fail(lineno, "segment ends before it starts");
      }
      try {
        seg.kind = segment_kind_from_string(kind);
      } catch (const std::invalid_argument& e) {
        fail(lineno, e.what());
      }
      if (index != log.segments.size()) {
        fail(lineno, "segment index out of order");
      }
      log.segments.push_back(seg);
    } else if (key == "event") {
      std::string kind;
      std::string link_kw;
      std::string link;
      TruthEvent ev;
      if (!(ls >> kind >> ev.start_s >> ev.end_s >> link_kw >> link) ||
          link_kw != "link") {
        fail(lineno, "event wants KIND START END link NAME");
      }
      if (!(ev.end_s >= ev.start_s)) {
        fail(lineno, "event ends before it starts");
      }
      try {
        ev.kind = live::alert_kind_from_string(kind);
      } catch (const std::invalid_argument& e) {
        fail(lineno, e.what());
      }
      if (ev.kind == live::AlertKind::none) {
        fail(lineno, "event kind must be spike or drop");
      }
      ev.link = link == "-" ? "" : link;
      log.events.push_back(std::move(ev));
    } else {
      fail(lineno, "unknown key \"" + key + "\"");
    }
  }
  if (!saw_scenario) fail(lineno == 0 ? 1 : lineno, "missing scenario line");
  return log;
}

TruthLog parse_truth_text(const std::string& text) {
  std::istringstream in(text);
  return parse_truth(in);
}

TruthLog load_truth(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_truth: cannot open " + path.string());
  }
  return parse_truth(in);
}

}  // namespace fbm::scenario
