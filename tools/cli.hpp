// Shared front end of the fbm_* tools: one flag table per tool, and the run
// plumbing the analysis tools would otherwise each repeat.
//
// A tool declares every flag once, as {name, target, kind, help}; Cli::parse
// fills the targets from argv and checks each value by its kind:
//   flag      takes no value; sets a bool
//   text      any string; `texts` is the repeatable form (appends)
//   real      a finite number
//   seconds   a finite number of seconds > 0
//   fraction  a finite number in [0, 1]
//   count     a finite number >= 0 and below 2^64, fractional part dropped
//   threads   a count api::resolve_threads accepts (0 = every core)
//   seed      an unsigned 64-bit integer, read exactly (not via a double)
//   shard     I/K with 0 <= I < K <= 1024
// A missing value, an unknown flag, a malformed or out-of-range value (NaN
// and ±inf included) and a missing or extra operand all print one line and
// exit through usage(), which the table generates, with status 2. Range
// checks that need the finished configuration stay with the config
// validators (api::validate_config, live::LiveConfig::validate).
//
// Every tool accepts the same three metrics flags (metrics_flags()):
//   --metrics FILE        append self-describing JSONL snapshots to FILE
//   --metrics-every S     seconds between snapshots (default 1)
//   --metrics-prom FILE   atomically rewrite a Prometheus exposition file
//                         each snapshot (also dumped on SIGUSR1)
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "agg/agg.hpp"
#include "api/api.hpp"
#include "engine/engine_api.hpp"
#include "live/live.hpp"
#include "net/packet_batch.hpp"
#include "obs/exporter.hpp"

namespace fbm::tools {

/// --shard I/K: this process keeps flow-hash shard `index` of `count`.
struct Shard {
  std::size_t index = 0;
  std::size_t count = 1;
};

enum class Kind {
  flag,
  text,
  texts,
  real,
  seconds,
  fraction,
  count,
  threads,
  seed,
  shard
};

using Target = std::variant<bool*, std::string*, std::vector<std::string>*,
                            double*, std::uint64_t*, Shard*>;

struct Flag {
  const char* name;  ///< "--window"
  Target target;
  Kind kind;
  const char* help;  ///< value placeholder usage() shows ("S"); "" for a flag
};

class Cli {
 public:
  /// `operand` receives the tool's one positional argument (a std::string
  /// target) or one or more of them (a std::vector<std::string> target);
  /// `operand_help` names it in usage().
  Cli(const char* tool, const char* operand_help, Target operand,
      std::vector<Flag> flags)
      : tool_(tool),
        operand_help_(operand_help),
        operand_(operand),
        flags_(std::move(flags)) {}

  Cli& add(const std::vector<Flag>& more) {
    flags_.insert(flags_.end(), more.begin(), more.end());
    return *this;
  }

  void parse(int argc, char** argv) {
    std::size_t operands = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.empty() || arg[0] != '-') {
        if (auto* many = std::get_if<std::vector<std::string>*>(&operand_)) {
          (*many)->push_back(arg);
        } else if (operands == 0) {
          *std::get<std::string*>(operand_) = arg;
        } else {
          fail("unexpected argument " + arg);
        }
        ++operands;
        continue;
      }
      const auto it = std::find_if(
          flags_.begin(), flags_.end(),
          [&](const Flag& f) { return arg == f.name; });
      if (it == flags_.end()) fail("unknown flag " + arg);
      given_.push_back(arg);
      if (it->kind == Kind::flag) {
        *std::get<bool*>(it->target) = true;
        continue;
      }
      if (i + 1 >= argc) fail("missing value for " + arg);
      set(*it, argv[++i]);
    }
    if (operands == 0) usage();
  }

  /// Whether the last parse() saw `name` on the command line.
  [[nodiscard]] bool given(std::string_view name) const {
    return std::find(given_.begin(), given_.end(), name) != given_.end();
  }

  [[noreturn]] void usage() const {
    std::string line = std::string("usage: ") + tool_ + " " + operand_help_;
    std::string text;
    for (const Flag& f : flags_) {
      std::string item = std::string("[") + f.name;
      if (f.kind != Kind::flag) item += std::string(" ") + f.help;
      item += f.kind == Kind::texts ? "]..." : "]";
      if (line.size() + 1 + item.size() > 79) {
        text += line + "\n";
        line = "       ";
      }
      line += " " + item;
    }
    std::fprintf(stderr, "%s%s\n", text.c_str(), line.c_str());
    std::exit(2);
  }

  /// Prints `message`, then exits through usage().
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s\n", message.c_str());
    usage();
  }

 private:
  /// Reads all of `text` as an unsigned integer, exactly.
  template <typename T>
  static bool whole_number(std::string_view text, T& out) {
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, out);
    return !text.empty() && ec == std::errc{} && end == last;
  }

  void set(const Flag& f, const char* text) const {
    const std::string_view s(text);
    const auto reject = [&](const std::string& wants) {
      fail(std::string(f.name) + " wants " + wants + ", got \"" + text + "\"");
    };
    switch (f.kind) {
      case Kind::text:
        *std::get<std::string*>(f.target) = text;
        return;
      case Kind::texts:
        std::get<std::vector<std::string>*>(f.target)->emplace_back(text);
        return;
      case Kind::seed: {
        std::uint64_t v = 0;
        if (!whole_number(s, v)) reject("an unsigned 64-bit integer");
        *std::get<std::uint64_t*>(f.target) = v;
        return;
      }
      case Kind::shard: {
        const auto slash = s.find('/');
        std::size_t index = 0;
        std::size_t count = 0;
        if (slash == std::string_view::npos ||
            !whole_number(s.substr(0, slash), index) ||
            !whole_number(s.substr(slash + 1), count) || count == 0 ||
            count > 1024 || index >= count) {
          reject("I/K with 0 <= I < K <= 1024 (e.g. 0/4)");
        }
        *std::get<Shard*>(f.target) = {index, count};
        return;
      }
      default:
        break;
    }
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    const bool number = end != text && *end == '\0' && std::isfinite(v);
    switch (f.kind) {
      case Kind::real:
        if (!number) reject("a finite number");
        *std::get<double*>(f.target) = v;
        return;
      case Kind::seconds:
        if (!number || !(v > 0.0)) reject("seconds > 0");
        *std::get<double*>(f.target) = v;
        return;
      case Kind::fraction:
        if (!number || !(v >= 0.0 && v <= 1.0)) reject("a fraction in [0, 1]");
        *std::get<double*>(f.target) = v;
        return;
      case Kind::count:
      case Kind::threads: {
        if (!number || !(v >= 0.0 && v < 0x1p64)) reject("a count >= 0");
        const auto n = static_cast<std::uint64_t>(v);
        if (f.kind == Kind::threads) {
          try {
            (void)api::resolve_threads(n);
          } catch (const std::invalid_argument&) {
            reject("a thread count in [0, " + std::to_string(api::kMaxThreads) +
                   "] (0 = every core)");
          }
        }
        *std::get<std::uint64_t*>(f.target) = n;
        return;
      }
      default:
        return;
    }
  }

  const char* tool_;
  const char* operand_help_;
  Target operand_;
  std::vector<Flag> flags_;
  std::vector<std::string> given_;
};

// ------------------------------------------------------- shared flag sets ---

struct MetricsOptions {
  std::string jsonl;     ///< --metrics FILE
  double every_s = 1.0;  ///< --metrics-every S
  std::string prom;      ///< --metrics-prom FILE
};

inline std::vector<Flag> metrics_flags(MetricsOptions& m) {
  return {{"--metrics", &m.jsonl, Kind::text, "FILE"},
          {"--metrics-every", &m.every_s, Kind::seconds, "S"},
          {"--metrics-prom", &m.prom, Kind::text, "FILE"}};
}

/// The analysis knobs fbm_analyze and fbm_live share; each tool initializes
/// the struct with its own defaults.
struct AnalysisOptions {
  double timeout = 60.0;
  double delta = measure::kPaperDelta;
  bool prefix24 = false;
  double eps = 0.01;
  std::vector<std::string> links;  ///< --link specs; empty = untagged run
  /// Engine workers; an untagged run also cuts its one link into this many
  /// flow-hash shards.
  std::uint64_t threads = 1;

  /// Sets the flow definition, timeout, Delta and epsilon of `config`.
  void apply(api::AnalysisConfig& config) const {
    config
        .flow_definition(prefix24 ? api::FlowDefinition::prefix24
                                  : api::FlowDefinition::five_tuple)
        .timeout_s(timeout)
        .delta_s(delta)
        .epsilon(eps);
  }
};

inline std::vector<Flag> analysis_flags(AnalysisOptions& a) {
  return {{"--timeout", &a.timeout, Kind::real, "S"},
          {"--delta", &a.delta, Kind::real, "S"},
          {"--prefix24", &a.prefix24, Kind::flag, ""},
          {"--eps", &a.eps, Kind::real, "P"},
          {"--link", &a.links, Kind::texts, "NAME=PREFIX[,PREFIX...]"},
          {"--threads", &a.threads, Kind::threads, "N"}};
}

/// The live-monitoring knobs of fbm_live.
struct LiveOptions {
  AnalysisOptions analysis;
  double window = 60.0;
  double stride = 0.0;  ///< 0 = window
  double k_sigma = 3.0;
  std::uint64_t max_order = 8;
  std::uint64_t consecutive = 1;
  std::uint64_t warmup = 0;  ///< windows unjudged while the forecaster settles

  [[nodiscard]] live::LiveConfig config() const {
    live::LiveConfig c;
    c.window_s = window;
    c.stride_s = stride;
    c.band_k_sigma = k_sigma;
    c.forecast_max_order = static_cast<std::size_t>(max_order);
    c.alert_min_consecutive = static_cast<std::size_t>(consecutive);
    c.alert_warmup_windows = static_cast<std::size_t>(warmup);
    analysis.apply(c.analysis);
    return c;
  }
};

inline std::vector<Flag> live_flags(LiveOptions& l) {
  std::vector<Flag> flags = {{"--window", &l.window, Kind::real, "S"},
                             {"--stride", &l.stride, Kind::real, "S"}};
  const auto shared = analysis_flags(l.analysis);
  flags.insert(flags.end(), shared.begin(), shared.end());
  flags.insert(flags.end(),
               {{"--k-sigma", &l.k_sigma, Kind::real, "K"},
                {"--max-order", &l.max_order, Kind::count, "M"},
                {"--consecutive", &l.consecutive, Kind::count, "N"},
                {"--warmup", &l.warmup, Kind::count, "N"}});
  return flags;
}

// ------------------------------------------------------------ run plumbing ---

/// Attaches one engine link per --link spec, or — with none — one
/// match-all link whose reports the tool renders untagged (the single-link
/// run). Returns the run's config identity for partial files and
/// checkpoints: `meta` with the link set declared (unchanged when
/// untagged). Call after the engine's sinks are set.
inline agg::PartialMeta attach_links(engine::Engine& eng,
                                     const std::vector<std::string>& links,
                                     agg::PartialMeta meta) {
  if (links.empty()) {
    (void)eng.attach(engine::parse_link_spec("all=*"));
    return meta;
  }
  meta.engine = true;
  for (const auto& text : links) {
    engine::LinkSpec spec = engine::parse_link_spec(text);
    meta.links.push_back(
        {static_cast<std::uint32_t>(meta.links.size()), spec.name});
    (void)eng.attach(std::move(spec));
  }
  return meta;
}

/// "error: no packets in PATH", exit status 1.
inline int no_packets(const std::string& path) {
  std::fprintf(stderr, "error: no packets in %s\n", path.c_str());
  return 1;
}

/// Seals a partial file with the run's trace totals, plus per-link totals
/// for a tagged engine run (`links` empty otherwise), and reports what it
/// wrote on stderr. `unit` names the windows ("window", "interval").
inline void finish_partials(agg::PartialWriter& writer,
                            const trace::TraceSummary& summary,
                            const std::vector<engine::LinkInfo>& links,
                            const char* unit, const std::string& path) {
  agg::PartialTotals totals{summary, {}};
  for (const auto& link : links) {
    totals.links.push_back({static_cast<std::uint32_t>(link.id),
                            link.counters.packets, link.counters.bytes});
  }
  writer.finish(totals);
  const auto written =
      static_cast<unsigned long long>(writer.windows_written());
  if (links.empty()) {
    std::fprintf(stderr, "wrote %llu %s partials to %s\n", written, unit,
                 path.c_str());
  } else {
    std::fprintf(stderr, "wrote %llu %s partials for %zu links to %s\n",
                 written, unit, links.size(), path.c_str());
  }
}

/// Keeps exactly the packets whose flow key hashes to `shard` (the stable
/// hash the engine shards a link by), in stream order, so K such
/// processes partition the stream by flow and every flow's packet
/// subsequence survives intact — the property that makes merged partials
/// bit-identical to a single run. A count <= 1 keeps everything.
inline void keep_shard(net::PacketBatch& batch, api::FlowDefinition def,
                       const Shard& shard) {
  if (shard.count <= 1) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (api::flow_shard_of(batch.tuples[i], def, shard.count) != shard.index) {
      continue;
    }
    batch.timestamps[kept] = batch.timestamps[i];
    batch.tuples[kept] = batch.tuples[i];
    batch.sizes[kept] = batch.sizes[i];
    ++kept;
  }
  batch.timestamps.resize(kept);
  batch.tuples.resize(kept);
  batch.sizes.resize(kept);
}

/// Removes the first min(n, size) packets (the ones a restored checkpoint
/// already consumed); returns how many it removed.
inline std::size_t drop_front(net::PacketBatch& batch, std::size_t n) {
  n = std::min(n, batch.size());
  const auto cut = static_cast<std::ptrdiff_t>(n);
  batch.timestamps.erase(batch.timestamps.begin(),
                         batch.timestamps.begin() + cut);
  batch.tuples.erase(batch.tuples.begin(), batch.tuples.begin() + cut);
  batch.sizes.erase(batch.sizes.begin(), batch.sizes.begin() + cut);
  return n;
}

// ----------------------------------------------------------------- metrics ---

[[nodiscard]] inline obs::MetricsExporter make_metrics_exporter(
    const MetricsOptions& opt) {
  return obs::MetricsExporter({.jsonl_path = opt.jsonl,
                               .every_s = opt.every_s,
                               .prom_path = opt.prom});
}

/// Forces the final snapshot on scope exit, so tools with many return
/// paths (and exception unwinds) still emit end-of-run totals. Declare it
/// immediately after the exporter, before the engine it observes: the
/// engine then destructs (and joins its workers) first.
class MetricsFinishGuard {
 public:
  explicit MetricsFinishGuard(obs::MetricsExporter& m) : m_(m) {}
  MetricsFinishGuard(const MetricsFinishGuard&) = delete;
  MetricsFinishGuard& operator=(const MetricsFinishGuard&) = delete;
  ~MetricsFinishGuard() { m_.finish(); }

 private:
  obs::MetricsExporter& m_;
};

}  // namespace fbm::tools
