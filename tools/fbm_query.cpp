// fbm_query — range scans, downsampling and retention over a report store.
//
// Usage: fbm_query <store.fbms> [flags]; the flag list is the table in
// parse_args() (run with no arguments to print it).
//
// The store (src/store/report_store.hpp) is the append-only file fbm_live
// --store / fbm_analyze --store write. The default query dumps the matching
// records as JSONL, each line byte-identical to what fbm_live printed when
// the window closed (the durability CI gate cmp's the two); --link, --from
// and --to narrow the scan (window start in [from, to)).
//
// Scans dedup by (link, window index), last record wins, so a store holding
// a killed run's prefix plus a resumed run's re-appends queries identically
// to an uninterrupted run's store. --no-dedup audits the raw append stream.
//
// --downsample B coarsens the scan to one line per link per B-second bucket
// ({"link": .., "bucket_start_s": .., "windows": n, "mean_bps": ..,
// "peak_capacity_bps": .., "packets": n, "bytes": n, "alerts": n}) — --agg
// picks the rate statistic (mean of window means, or their max).
//
// --trim-before S drops records with window start < S (retention), through
// a temp file + atomic rename. --stats prints a one-object summary instead
// of records (including whether the file ends in a torn frame).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cli.hpp"
#include "core/json_writer.hpp"
#include "store/report_store.hpp"

namespace {

using fbm::tools::Kind;

struct Options {
  std::string path;
  std::optional<std::string> link;
  double from = -std::numeric_limits<double>::infinity();
  double to = std::numeric_limits<double>::infinity();
  bool no_dedup = false;
  double downsample = 0.0;  // 0 = raw records
  bool agg_max = false;     // false = mean
  double trim_before = std::numeric_limits<double>::quiet_NaN();
  bool stats = false;
  fbm::tools::MetricsOptions metrics;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  std::string link;
  std::string agg = "mean";
  fbm::tools::Cli cli(
      "fbm_query", "<store.fbms>", &opt.path,
      {{"--link", &link, Kind::text, "NAME"},
       {"--from", &opt.from, Kind::real, "S"},
       {"--to", &opt.to, Kind::real, "S"},
       {"--no-dedup", &opt.no_dedup, Kind::flag, ""},
       {"--downsample", &opt.downsample, Kind::seconds, "S"},
       {"--agg", &agg, Kind::text, "mean|max"},
       {"--trim-before", &opt.trim_before, Kind::real, "S"},
       {"--stats", &opt.stats, Kind::flag, ""}});
  cli.add(fbm::tools::metrics_flags(opt.metrics)).parse(argc, argv);
  if (cli.given("--link")) opt.link = link;
  if (agg != "mean" && agg != "max") {
    cli.fail("--agg wants mean or max, got \"" + agg + "\"");
  }
  opt.agg_max = agg == "max";
  return opt;
}

void print_stats(const fbm::store::StoreReader& reader) {
  using fbm::core::JsonWriter;
  std::map<std::string, std::uint64_t> links;
  double first = std::numeric_limits<double>::infinity();
  double last = -std::numeric_limits<double>::infinity();
  for (const auto& r : reader.records()) {
    ++links[r.link_name];
    first = std::min(first, r.report.start_s);
    last = std::max(last, r.report.start_s);
  }
  JsonWriter w(JsonWriter::Style::compact);
  w.begin_object();
  w.field("records", static_cast<std::uint64_t>(reader.records().size()));
  w.field("links", static_cast<std::uint64_t>(links.size()));
  if (!reader.records().empty()) {
    w.field("first_start_s", first);
    w.field("last_start_s", last);
  }
  w.field("torn_tail", reader.torn_tail());
  w.begin_array("per_link");
  for (const auto& [name, count] : links) {
    fbm::core::JsonWriter e(JsonWriter::Style::compact);
    e.begin_object();
    e.field("link", name);
    e.field("records", count);
    e.end_object();
    w.raw_element(std::move(e).str());
  }
  w.end_array();
  w.end_object();
  std::printf("%s\n", std::move(w).str().c_str());
}

/// One per-link, per-bucket aggregate of the scanned windows.
struct Bucket {
  std::uint64_t windows = 0;
  double rate_acc = 0.0;  ///< sum (mean) or running max of window mean_bps
  double peak_capacity = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t alerts = 0;
};

void print_downsampled(const std::vector<fbm::store::StoredReport>& records,
                       const Options& opt) {
  using fbm::core::JsonWriter;
  // Keyed by (link name, bucket start); std::map gives sorted output.
  std::map<std::pair<std::string, double>, Bucket> buckets;
  for (const auto& r : records) {
    const double start =
        std::floor(r.report.start_s / opt.downsample) * opt.downsample;
    Bucket& b = buckets[{r.link_name, start}];
    ++b.windows;
    const double rate = r.report.measured.mean_bps;
    b.rate_acc = opt.agg_max ? std::max(b.rate_acc, rate) : b.rate_acc + rate;
    b.peak_capacity = std::max(b.peak_capacity, r.report.plan.capacity_bps);
    b.packets += r.report.packets;
    b.bytes += r.report.bytes;
    b.alerts += r.report.anomaly.alert ? 1 : 0;
  }
  for (const auto& [key, b] : buckets) {
    JsonWriter w(JsonWriter::Style::compact);
    w.begin_object();
    if (!key.first.empty()) w.field("link", key.first);
    w.field("bucket_start_s", key.second);
    w.field("windows", b.windows);
    w.field("mean_bps", opt.agg_max
                            ? b.rate_acc
                            : b.rate_acc / static_cast<double>(b.windows));
    w.field("peak_capacity_bps", b.peak_capacity);
    w.field("packets", b.packets);
    w.field("bytes", b.bytes);
    w.field("alerts", b.alerts);
    w.end_object();
    std::printf("%s\n", std::move(w).str().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  fbm::obs::MetricsExporter metrics =
      fbm::tools::make_metrics_exporter(opt.metrics);
  fbm::tools::MetricsFinishGuard metrics_guard(metrics);
  try {
    if (!std::isnan(opt.trim_before)) {
      const std::uint64_t dropped =
          fbm::store::trim_store(opt.path, opt.trim_before);
      std::fprintf(stderr, "trimmed %llu records before %gs from %s\n",
                   static_cast<unsigned long long>(dropped), opt.trim_before,
                   opt.path.c_str());
      return 0;
    }

    const fbm::store::StoreReader reader(opt.path);
    if (opt.stats) {
      print_stats(reader);
      return 0;
    }
    fbm::store::ScanOptions scan;
    scan.link = opt.link;
    scan.from_s = opt.from;
    scan.to_s = opt.to;
    scan.dedup = !opt.no_dedup;
    const auto records = reader.scan(scan);
    if (opt.downsample > 0.0) {
      print_downsampled(records, opt);
    } else {
      for (const auto& r : records) {
        std::printf("%s\n", r.jsonl().c_str());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
