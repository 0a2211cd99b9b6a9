#include "workloads.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "agg/partial_codec.hpp"
#include "api/trace_source.hpp"
#include "ckpt/checkpoint.hpp"
#include "engine/engine.hpp"
#include "live/live.hpp"
#include "measure.hpp"
#include "scenario/source.hpp"
#include "scenario/spec.hpp"
#include "store/report_store.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"

namespace perfbench {
namespace {

using namespace fbm;

constexpr std::size_t kPopLinks = 16;
/// pop_16link replays the backbone generator under a different seed.
constexpr std::uint64_t kPopSeedSalt = 0x9e3779b97f4a7c15ULL;
/// Open-loop wake-up grid. Waking at every packet's own due time spent more
/// than half of the process's CPU on timer wake-ups, a share that swung
/// with host load.
constexpr double kPaceTickS = 1e-3;

/// Sized like `fbm_trace_gen --duration 600 --mbps 200`.
trace::SyntheticConfig backbone_config(std::uint64_t seed) {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 600.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(200e6);
  cfg.seed = seed;
  return cfg;
}

void generate(const Workload& w, const Paths& paths, std::uint64_t seed) {
  if (w.kind != Kind::ddos_live_durable) {
    const std::uint64_t s =
        w.kind == Kind::pop_16link ? seed ^ kPopSeedSalt : seed;
    (void)trace::generate_to_file(backbone_config(s), paths.trace());
    return;
  }
  scenario::ScenarioSpec spec = scenario::load_scenario(paths.scenario);
  spec.seed = seed;
  scenario::write_truth_file(paths.truth(), scenario::derive_truth(spec));
  scenario::ScenarioTraceSource source(std::move(spec));
  trace::TraceWriter writer(paths.trace());
  net::PacketBatch batch;
  while (source.next_batch(batch, 4096) > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      writer.append(batch.record(i));
    }
  }
  writer.close();
}

void generate_in_child(const Workload& w, const Paths& paths,
                       std::uint64_t seed) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("perfbench: fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      generate(w, paths, seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: input generation failed: %s\n",
                   e.what());
      code = 1;
    }
    std::fflush(stderr);
    _exit(code);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("perfbench: waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("perfbench: input generation failed");
  }
}

/// 16 prefix links over the generator's /24 pool, rank r on link r mod 16,
/// so every link carries traffic and every packet is routed.
std::vector<engine::LinkSpec> pop_links() {
  const std::size_t pool = backbone_config(0).prefix_pool;
  std::vector<engine::LinkSpec> links(kPopLinks);
  for (std::size_t i = 0; i < kPopLinks; ++i) {
    engine::MatchPrefixes match;
    for (std::size_t r = i; r < pool; r += kPopLinks) {
      match.prefixes.push_back(trace::dst_prefix_for_rank(r));
    }
    links[i].name = "link" + std::to_string(i);
    links[i].rule = std::move(match);
  }
  return links;
}

engine::EngineConfig engine_config(const Workload& w) {
  engine::EngineConfig ec;
  ec.mode = engine::EngineMode::live;
  ec.live = w.live;
  ec.threads = w.threads;
  return ec;
}

bool finite_report(const live::WindowReport& r) {
  const double values[] = {r.start_s,
                           r.width_s,
                           r.stride_s,
                           r.inputs.lambda,
                           r.inputs.mean_size_bits,
                           r.inputs.mean_s2_over_d,
                           r.flow_moments.mean_duration_s,
                           r.flow_moments.stddev_size_bits,
                           r.flow_moments.stddev_duration_s,
                           r.flow_moments.mean_rate_bps,
                           r.measured.mean_bps,
                           r.measured.variance_bps2,
                           r.measured.cov,
                           r.shot_b.value_or(0.0),
                           r.shot_b_used,
                           r.model_cov,
                           r.plan.mean_bps,
                           r.plan.stddev_bps,
                           r.plan.cov,
                           r.plan.capacity_bps,
                           r.plan.headroom,
                           r.forecast.predicted_mean_bps,
                           r.forecast.band_low_bps,
                           r.forecast.band_high_bps,
                           r.forecast.sigma_bps,
                           r.anomaly.deviation_sigma,
                           r.anomaly.bin_peak_sigma};
  return std::all_of(std::begin(values), std::end(values),
                     [](double v) { return std::isfinite(v); });
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void sleep_until_s(double wall_s) {
  const auto target = std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(wall_s)));
  std::this_thread::sleep_until(target);
}

/// Where window reports go: one JSONL line each, flushed like fbm_live's
/// stdout, plus the FBMS store when the workload is durable. deliver() runs
/// on the driver thread. The engine calls its sink on the pool workers
/// under its emit lock, so they only enqueue() and the driver writes the
/// queue out after every push: output stays on one thread and no worker
/// renders JSON while holding the engine's lock.
class Sink {
 public:
  Sink(const Paths& paths, Replay& out, const LagBook& lags,
       store::StoreWriter* store, bool traced, bool defer_lag)
      : out_(out),
        lags_(lags),
        store_(store),
        traced_(traced),
        defer_lag_(defer_lag),
        jsonl_(std::fopen(paths.reports().c_str(), "w")) {
    if (jsonl_ == nullptr) {
      throw std::runtime_error("perfbench: cannot write " +
                               paths.reports().string());
    }
  }
  ~Sink() { std::fclose(jsonl_); }
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  void deliver(std::uint32_t link, const std::string& name, bool tagged,
               live::WindowReport&& r) {
    const double t0 = now_s();
    const std::string line =
        tagged ? live::to_jsonl(r, name) : live::to_jsonl(r);
    const double rendered = now_s();
    std::fwrite(line.data(), 1, line.size(), jsonl_);
    std::fputc('\n', jsonl_);
    std::fflush(jsonl_);

    LinkStream& ls = out_.links.at(link);
    const auto k = static_cast<std::int64_t>(r.window_index);
    ls.windows.push_back(k);
    ls.line_hashes.push_back(fnv1a(line));
    ls.report_packets += r.packets;
    out_.flows += r.inputs.flows;
    out_.discards += r.discards;
    if (r.anomaly.alert) ++out_.alerts;
    if (!finite_report(r)) ++out_.nonfinite;
    out_.observed.push_back(scenario::observe(r, tagged ? name : ""));

    double store_s = 0.0;
    if (store_ != nullptr) {
      const double s0 = now_s();
      store_->append({link, tagged, tagged ? name : "", std::move(r)});
      store_s = now_s() - s0;
    }
    const double t1 = now_s();
    if (defer_lag_) {
      pending_.push_back({link, k});
    } else {
      ls.lags_ms.push_back(lags_.delivered(k, t1) * 1e3);
    }
    if (traced_) {
      LayerTimes& lt = out_.layers;
      lt.render += rendered - t0;
      lt.sink += (t1 - rendered) - store_s;
      if (store_ != nullptr) {
        lt.store += store_s;
        lt.store_ms.push_back(store_s * 1e3);
      }
    }
  }

  void enqueue(std::uint32_t link, const std::string& name,
               live::WindowReport&& r) {
    std::lock_guard lock(queue_mu_);
    queue_.push_back({link, name, std::move(r)});
  }

  /// Delivers every enqueued report, per link in the order it was queued.
  void drain() {
    std::vector<Queued> ready;
    {
      std::lock_guard lock(queue_mu_);
      ready.swap(queue_);
    }
    for (auto& q : ready) deliver(q.link, q.name, true, std::move(q.report));
  }

  /// Durable workloads: the reports delivered since the last call are
  /// complete once the checkpoint after them is written.
  void stamp_pending(double wall_s) {
    for (const auto& [link, k] : pending_) {
      out_.links.at(link).lags_ms.push_back(lags_.delivered(k, wall_s) * 1e3);
    }
    pending_.clear();
  }

 private:
  Replay& out_;
  const LagBook& lags_;
  store::StoreWriter* store_;
  bool traced_;
  bool defer_lag_;
  std::FILE* jsonl_;
  std::vector<std::pair<std::uint32_t, std::int64_t>> pending_;

  struct Queued {
    std::uint32_t link;
    std::string name;
    live::WindowReport report;
  };
  std::mutex queue_mu_;
  std::vector<Queued> queue_;
};

/// Appends ahead[from, to) to `out`.
void append_range(net::PacketBatch& out, const net::PacketBatch& ahead,
                  std::size_t from, std::size_t to) {
  const auto f = static_cast<std::ptrdiff_t>(from);
  const auto t = static_cast<std::ptrdiff_t>(to);
  out.timestamps.insert(out.timestamps.end(), ahead.timestamps.begin() + f,
                        ahead.timestamps.begin() + t);
  out.tuples.insert(out.tuples.end(), ahead.tuples.begin() + f,
                    ahead.tuples.begin() + t);
  out.sizes.insert(out.sizes.end(), ahead.sizes.begin() + f,
                   ahead.sizes.begin() + t);
}

std::int64_t last_window(double last_ts, double width_s) {
  return static_cast<std::int64_t>(std::floor(last_ts / width_s));
}

/// Reads the trace and hands it to `push` — as fast as possible (closed
/// loop) or on the schedule (open loop: sleeps until the first tick at or
/// after the next packet's due time, then hands over every packet already
/// due). Returns the replay's start time.
template <typename Push>
double drive(const Workload& w, api::TraceSource& source, Schedule& schedule,
             bool traced, Replay& out, Push&& push) {
  LayerTimes& lt = out.layers;
  const std::size_t batch_n = w.live.analysis.batch_packets();
  net::PacketBatch ahead;
  ahead.reserve(batch_n);
  const auto read = [&] {
    const double r0 = traced ? now_s() : 0.0;
    const std::size_t got = source.next_batch(ahead, batch_n);
    if (traced) lt.trace_read += now_s() - r0;
    if (got > 0) {
      out.packets += got;
      out.last_ts = ahead.timestamps.back();
    }
    return got;
  };

  const double start = now_s();
  if (!w.open_loop) {
    while (read() > 0) push(ahead);
    return start;
  }

  schedule.start(start);
  net::PacketBatch due;
  due.reserve(batch_n);
  std::size_t pos = 0;
  bool eof = read() == 0;
  while (!eof || pos < ahead.size()) {
    const double now = now_s();
    const double horizon = schedule.horizon(now);
    if (ahead.timestamps[pos] > horizon) {
      sleep_until_s(schedule.wake(ahead.timestamps[pos]));
      if (traced) lt.sleep += now_s() - now;
      continue;
    }
    double read_s = 0.0;
    due.clear();
    for (;;) {
      std::size_t j = pos;
      while (j < ahead.size() && ahead.timestamps[j] <= horizon) ++j;
      append_range(due, ahead, pos, j);
      pos = j;
      if (pos < ahead.size() || eof) break;
      const double r0 = traced ? lt.trace_read : 0.0;
      eof = read() == 0;
      pos = 0;
      if (traced) read_s += lt.trace_read - r0;
    }
    out.late_ms.push_back(schedule.lateness(now, due.timestamps.front()) *
                          1e3);
    // The driver's own span runs from the top of the iteration to the
    // handover, less the reads inside it.
    if (traced) lt.replay += (now_s() - now) - read_s;
    push(due);
  }
  return start;
}

/// Durable-workload read-back: the store scans back to exactly the JSONL
/// stream, and the last checkpoint counts the reports and packets it
/// claims.
void check_durable(const Paths& paths, std::uint64_t ckpt_windows,
                   std::uint64_t ckpt_packets, Replay& out) {
  const store::StoreReader reader(paths.store());
  const LinkStream& ls = out.links.front();
  const auto& records = reader.records();
  if (records.size() != ls.line_hashes.size()) ++out.durability_errors;
  for (std::size_t i = 0; i < records.size() && i < ls.line_hashes.size();
       ++i) {
    if (fnv1a(records[i].jsonl()) != ls.line_hashes[i]) {
      ++out.durability_errors;
    }
  }
  const std::string bytes = read_file(paths.store());
  out.store_hash = fnv1a(bytes);
  out.store_bytes = bytes.size();
  if (ckpt_windows > 0) {
    const ckpt::Checkpoint ck = ckpt::read_checkpoint(paths.checkpoint());
    if (ck.reports_emitted() != ckpt_windows ||
        ck.packets_consumed() != ckpt_packets) {
      ++out.durability_errors;
    }
  }
}

Replay replay_single(const Workload& w, const Paths& paths, bool traced) {
  Replay out;
  out.links.resize(1);
  LayerTimes& lt = out.layers;
  const live::LiveConfig& cfg = w.live;

  api::FileTraceSource source(paths.trace());
  live::WindowedEstimator est(cfg);
  std::optional<store::StoreWriter> store;
  if (w.durable) {
    std::filesystem::remove(paths.store());
    std::filesystem::remove(paths.checkpoint());
    store.emplace(paths.store());
  }
  Schedule schedule(w.speedup, kPaceTickS);
  LagBook lags(cfg.window_s, w.open_loop ? &schedule : nullptr);
  Sink sink(paths, out, lags, store ? &*store : nullptr, traced, w.durable);

  // Traced: closed windows leave the estimator as raw partials and are
  // fitted here, with a forecaster and monitor of our own, so the fit is
  // timed apart from ingest. The reports are the same bytes.
  live::RollingForecaster forecaster(cfg.forecast_max_order,
                                     cfg.forecast_history, cfg.band_k_sigma);
  live::AnomalyMonitor monitor(cfg);
  double callbacks = 0.0;
  if (traced) {
    est.set_partial_sink([&](live::WindowPartial&& p) {
      const double c0 = now_s();
      live::WindowReport r =
          live::fit_window_report(cfg, std::move(p), forecaster, monitor);
      const double c1 = now_s();
      lt.fit += c1 - c0;
      lt.fit_ms.push_back((c1 - c0) * 1e3);
      sink.deliver(0, "", false, std::move(r));
      callbacks += now_s() - c0;
    });
  } else {
    est.set_window_sink([&](live::WindowReport&& r) {
      sink.deliver(0, "", false, std::move(r));
    });
  }

  const agg::PartialMeta meta = agg::PartialMeta::from_live(cfg);
  std::uint64_t pushed = 0;
  std::uint64_t ckpt_windows = 0;
  std::uint64_t ckpt_packets = 0;
  std::vector<double> ckpt_sizes;
  const auto checkpoint = [&] {
    const double c0 = now_s();
    live::EstimatorState st = est.save_state();
    if (traced) {
      // The estimator's own forecaster never ran; snapshot ours instead,
      // so the checkpoint holds what the untraced run's would.
      st.forecast_history = forecaster.history();
      st.monitor_consecutive = monitor.consecutive_outside();
      st.monitor_last_kind = static_cast<std::uint32_t>(monitor.last_kind());
    }
    ckpt::write_checkpoint(paths.checkpoint(), meta, st);
    ckpt_windows = est.counters().windows;
    ckpt_packets = pushed;
    const double c1 = now_s();
    if (traced) {
      lt.ckpt += c1 - c0;
      lt.ckpt_ms.push_back((c1 - c0) * 1e3);
      ckpt_sizes.push_back(
          static_cast<double>(std::filesystem::file_size(paths.checkpoint())));
    }
    sink.stamp_pending(c1);
  };

  const Usage u0 = process_usage();
  const double start =
      drive(w, source, schedule, traced, out, [&](const net::PacketBatch& b) {
        const double p0 = now_s();
        if (!w.open_loop) lags.push_started(b.timestamps.back(), p0);
        const double cb0 = callbacks;
        est.push_batch(b);
        pushed += b.size();
        if (traced) {
          const double p1 = now_s();
          lt.ingest += (p1 - p0) - (callbacks - cb0);
          lt.active_flows_max =
              std::max(lt.active_flows_max, est.active_flows());
          lt.replay += now_s() - p1;
        }
        if (w.durable && est.counters().windows != ckpt_windows) checkpoint();
      });
  const double f0 = now_s();
  if (!w.open_loop) {
    lags.finish_started(last_window(out.last_ts, cfg.window_s), f0);
  }
  const double cb0 = callbacks;
  est.finish();
  const double f1 = now_s();
  if (traced) lt.ingest += (f1 - f0) - (callbacks - cb0);
  // Windows closed by finish() get no checkpoint: the stream is over.
  sink.stamp_pending(f1);
  out.wall_s = f1 - start;
  out.cpu_s = process_usage().cpu_s - u0.cpu_s;

  out.links.front().routed_packets = est.counters().packets;
  if (traced && !ckpt_sizes.empty()) {
    lt.ckpt_bytes = static_cast<std::uint64_t>(median(ckpt_sizes));
  }
  if (w.durable) {
    store.reset();
    check_durable(paths, ckpt_windows, ckpt_packets, out);
  }
  return out;
}

Replay replay_engine(const Workload& w, const Paths& paths, bool traced) {
  Replay out;
  out.links.resize(w.links);
  LayerTimes& lt = out.layers;
  const live::LiveConfig& cfg = w.live;

  api::FileTraceSource source(paths.trace());
  Schedule schedule(w.speedup, kPaceTickS);
  LagBook lags(cfg.window_s, w.open_loop ? &schedule : nullptr);
  Sink sink(paths, out, lags, nullptr, traced, false);

  // Per-link forecasters and monitors for the traced split; the engine
  // serializes its partial sink, so the workers take turns on these.
  std::vector<live::RollingForecaster> forecasters;
  std::vector<live::AnomalyMonitor> monitors;
  for (std::size_t i = 0; i < w.links; ++i) {
    forecasters.emplace_back(cfg.forecast_max_order, cfg.forecast_history,
                             cfg.band_k_sigma);
    monitors.emplace_back(cfg);
  }

  engine::Engine eng(engine_config(w));
  if (traced) {
    eng.set_partial_sink([&](engine::LinkId id, const std::string& name,
                             live::WindowPartial&& p) {
      const double c0 = now_s();
      live::WindowReport r = live::fit_window_report(
          cfg, std::move(p), forecasters.at(id), monitors.at(id));
      const double c1 = now_s();
      lt.fit += c1 - c0;
      lt.fit_ms.push_back((c1 - c0) * 1e3);
      sink.enqueue(id, name, std::move(r));
    });
  } else {
    eng.set_report_sink([&](engine::LinkReport&& r) {
      sink.enqueue(r.link, r.name, std::move(*r.window));
    });
  }
  for (auto& spec : pop_links()) (void)eng.attach(std::move(spec));

  const Usage u0 = process_usage();
  const double start =
      drive(w, source, schedule, traced, out, [&](const net::PacketBatch& b) {
        const double p0 = now_s();
        if (!w.open_loop) lags.push_started(b.timestamps.back(), p0);
        eng.push_batch(b);
        if (traced) lt.engine_push += now_s() - p0;
        sink.drain();
      });
  const double f0 = now_s();
  if (!w.open_loop) {
    lags.finish_started(last_window(out.last_ts, cfg.window_s), f0);
  }
  eng.finish();
  const double f1 = now_s();
  if (traced) lt.engine_finish += f1 - f0;
  sink.drain();
  out.wall_s = now_s() - start;
  out.cpu_s = process_usage().cpu_s - u0.cpu_s;

  for (const auto& info : eng.links()) {
    out.links.at(info.id).name = info.name;
    out.links.at(info.id).routed_packets = info.counters.packets;
  }
  out.engine_packets = eng.summary().packets;
  return out;
}

}  // namespace

Workload make_workload(const std::string& name, double speedup) {
  Workload w;
  w.name = name;
  w.live.window_s = 5.0;
  w.live.analysis.timeout_s(60.0);
  if (name == "backbone_1link") {
    w.kind = Kind::backbone_1link;
  } else if (name == "pop_16link") {
    w.kind = Kind::pop_16link;
    w.links = kPopLinks;
    w.threads = 2;
  } else if (name == "ddos_live_durable") {
    // fbm_scenario's live defaults: 1 s idle timeout, 8 warm-up windows.
    w.kind = Kind::ddos_live_durable;
    w.live.window_s = 2.0;
    w.live.analysis.timeout_s(1.0);
    w.live.alert_warmup_windows = 8;
    w.open_loop = true;
    w.speedup = speedup;
    w.durable = true;
    // Four replays give 108 lag samples, so the tail is p90: inside the
    // flood windows rather than on the edge between them and the baseline.
    w.min_replays = 4;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  if (!(w.speedup > 0.0)) throw std::invalid_argument("speed-up must be > 0");
  w.live.validate();
  return w;
}

SetupTimes set_up(const Workload& w, const Paths& paths, std::uint64_t seed) {
  const double t0 = now_s();
  generate_in_child(w, paths, seed);
  const double t1 = now_s();
  {
    api::FileTraceSource source(paths.trace());
    if (w.links > 1) {
      engine::Engine eng(engine_config(w));
      for (auto& spec : pop_links()) (void)eng.attach(std::move(spec));
    } else {
      live::WindowedEstimator est(w.live);
      if (w.durable) {
        std::filesystem::remove(paths.store());
        store::StoreWriter store(paths.store());
      }
    }
  }
  return {t1 - t0, now_s() - t1};
}

Replay run_replay(const Workload& w, const Paths& paths, bool traced) {
  const obs::Snapshot before = obs::Registry::global().snapshot();
  Replay out = w.links > 1 ? replay_engine(w, paths, traced)
                           : replay_single(w, paths, traced);
  out.obs = obs::delta(before, obs::Registry::global().snapshot());
  return out;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
