// The three benchmark workloads: input generation (set-up) and one replay
// of the generated trace through the library, the way fbm_live drives it —
// a .fbmt file into api::FileTraceSource, then into live::WindowedEstimator
// or engine::Engine, JSONL window reports (plus, for the durable workload,
// FBMS store records and FBMC checkpoints) out.
//
// Every layer is timed from outside, around calls into its public
// functions, and only in a traced replay; an untraced replay reads the
// clock only where report lag and open-loop pacing need it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "live/live_config.hpp"
#include "obs/registry.hpp"
#include "scenario/score.hpp"
#include "scenario/truth.hpp"

namespace perfbench {

enum class Kind { backbone_1link, pop_16link, ddos_live_durable };

struct Workload {
  Kind kind = Kind::backbone_1link;
  std::string name;
  fbm::live::LiveConfig live;
  std::size_t links = 1;     ///< 1: one WindowedEstimator; >1: an Engine
  std::size_t threads = 1;   ///< engine worker pool size
  bool open_loop = false;    ///< paced replay at `speedup` x trace time
  double speedup = 1.0;
  bool durable = false;      ///< FBMS store + checkpoint per closed window
  std::size_t min_replays = 3;
};

/// Fixed configuration of a named workload; throws on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, double speedup);

struct Paths {
  std::filesystem::path dir;       ///< scratch directory inside the checkout
  std::filesystem::path scenario;  ///< ddos spec (.scn)
  [[nodiscard]] std::filesystem::path trace() const {
    return dir / "input.fbmt";
  }
  [[nodiscard]] std::filesystem::path truth() const {
    return dir / "input.truth";
  }
  [[nodiscard]] std::filesystem::path reports() const {
    return dir / "reports.jsonl";
  }
  [[nodiscard]] std::filesystem::path store() const {
    return dir / "reports.fbms";
  }
  [[nodiscard]] std::filesystem::path checkpoint() const {
    return dir / "state.fbmc";
  }
};

struct SetupTimes {
  double generate_s = 0.0;
  double open_s = 0.0;
};

/// One full set-up: generates the workload's input from `seed` in a child
/// process (so its memory never counts toward this process's peak RSS),
/// then opens the source and constructs the estimator or engine with its
/// links, and discards them.
SetupTimes set_up(const Workload& w, const Paths& paths, std::uint64_t seed);

/// One link's report stream as the checks see it.
struct LinkStream {
  std::string name;
  std::vector<std::int64_t> windows;        ///< window index per report
  std::vector<std::uint64_t> line_hashes;   ///< FNV-1a of each JSONL line
  std::vector<double> lags_ms;              ///< report lag per window
  std::uint64_t report_packets = 0;         ///< sum of report.packets
  std::uint64_t routed_packets = 0;         ///< packets the link consumed
};

/// Self times of the layers in one traced replay, in seconds.
struct LayerTimes {
  double trace_read = 0.0;    ///< FileTraceSource::next_batch
  double ingest = 0.0;        ///< estimator push_batch/finish minus callbacks
  double engine_push = 0.0;   ///< Engine::push_batch
  double engine_finish = 0.0; ///< Engine::finish (drains the workers)
  double fit = 0.0;           ///< live::fit_window_report
  double render = 0.0;        ///< live::to_jsonl
  double store = 0.0;         ///< StoreWriter::append
  double ckpt = 0.0;          ///< save_state + write_checkpoint
  double sink = 0.0;          ///< the sink's own work: write, hash, checks
  double replay = 0.0;        ///< the driver's own work: pacing, sampling
  double sleep = 0.0;         ///< open-loop driver asleep
  std::vector<double> fit_ms, store_ms, ckpt_ms;
  std::uint64_t ckpt_bytes = 0;
  std::size_t active_flows_max = 0;
};

struct Replay {
  double wall_s = 0.0;  ///< first read -> finish() returns
  double cpu_s = 0.0;
  std::uint64_t packets = 0;       ///< packets read from the source
  std::uint64_t engine_packets = 0;  ///< Engine::summary().packets
  double last_ts = 0.0;
  std::vector<LinkStream> links;
  std::vector<double> late_ms;      ///< open loop: per handover
  std::vector<fbm::scenario::ObservedWindow> observed;
  std::size_t alerts = 0;
  std::size_t nonfinite = 0;        ///< reports with a non-finite field
  std::size_t durability_errors = 0;  ///< store/checkpoint read-back
  std::uint64_t store_hash = 0;     ///< FNV-1a of the store file
  std::uint64_t store_bytes = 0;
  std::uint64_t flows = 0;          ///< sum of report flow counts
  std::uint64_t discards = 0;       ///< sum of report discards (1-packet flows)
  LayerTimes layers;                ///< traced replays only
  fbm::obs::Snapshot obs;           ///< registry delta over the replay
};

/// Runs one replay of the generated input. `traced` splits the fit from
/// ingest through a partial sink and times every layer.
[[nodiscard]] Replay run_replay(const Workload& w, const Paths& paths,
                                bool traced);

/// FNV-1a 64 of a byte string.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 14695981039346656037ULL);

}  // namespace perfbench
