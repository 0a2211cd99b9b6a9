// fbm_bench — runs the registered benches with JSON telemetry.
//
//   fbm_bench --list
//   fbm_bench --filter fig08 --json out/
//   fbm_bench --quick --json bench-out/
//
// Every selected bench produces out/BENCH_<name>.json (schema in
// perf/bench_report.hpp) plus an aggregate out/BENCH_summary.json. The run
// fails when any bench exits non-zero: a reproduction bench does so when
// one of its checks leaves the band the paper or the model gives for it
// (bench::Context::check). Throughput is reported, not gated here; the
// repository's performance gate is perfbench (BENCHMARK.json).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "perf/bench_report.hpp"

namespace {

using fbm::bench::BenchInfo;

struct Options {
  std::string filter;
  std::string json_dir;
  bool quick = false;
  bool list = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--filter SUBSTR] [--quick] [--json DIR]\n",
               argv0);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--list") == 0) {
      opt.list = true;
    } else if (std::strcmp(arg, "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(arg, "--filter") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      opt.filter = v;
    } else if (std::strcmp(arg, "--json") == 0) {
      const char* v = value();
      if (v == nullptr) return false;
      opt.json_dir = v;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }

  auto benches = fbm::bench::registered_benches();
  std::sort(benches.begin(), benches.end(),
            [](const BenchInfo& a, const BenchInfo& b) {
              return std::strcmp(a.name, b.name) < 0;
            });

  if (opt.list) {
    for (const auto& info : benches) std::printf("%s\n", info.name);
    return 0;
  }

  std::vector<fbm::perf::BenchReport> reports;
  std::vector<std::string> failed;
  for (const auto& info : benches) {
    if (!opt.filter.empty() &&
        std::string(info.name).find(opt.filter) == std::string::npos) {
      continue;
    }
    std::fprintf(stderr, "[fbm_bench] running %s ...\n", info.name);
    fbm::perf::BenchReport report;
    const int rc = fbm::bench::run_registered(info, opt.quick, report);
    std::fprintf(stderr,
                 "[fbm_bench] %s: rc=%d wall=%.2fs packets/s=%.0f "
                 "peak_rss=%llu kB\n",
                 info.name, rc, report.wall_s, report.packets_per_s,
                 static_cast<unsigned long long>(report.peak_rss_kb));
    if (rc != 0) failed.push_back(info.name);
    if (!opt.json_dir.empty() &&
        !fbm::bench::write_report_json(opt.json_dir, report)) {
      failed.push_back(info.name + std::string(" (json write)"));
    }
    reports.push_back(std::move(report));
  }

  if (reports.empty()) {
    std::fprintf(stderr, "no bench matches filter '%s'\n",
                 opt.filter.c_str());
    return 2;
  }

  if (!opt.json_dir.empty()) {
    const std::string path = opt.json_dir + "/BENCH_summary.json";
    std::ofstream out(path);
    if (out) {
      out << fbm::perf::summary_json(reports);
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      failed.push_back("BENCH_summary.json");
    }
  }

  if (!failed.empty()) {
    std::fprintf(stderr, "[fbm_bench] FAILED:");
    for (const auto& name : failed) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  std::fprintf(stderr, "[fbm_bench] %zu bench(es) ok\n", reports.size());
  return 0;
}
