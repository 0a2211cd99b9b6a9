// One-link engines for the sharded differentials: the same packets through
// a match-all engine link cut into K flow-hash shards (EngineConfig::shards)
// on an inline or threaded worker pool.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "collect.hpp"
#include "engine/engine_api.hpp"
#include "push.hpp"

namespace fbm::testsupport {

/// A batch-mode engine with one match-all link "all" of `shards` flow-hash
/// shards on `threads` workers (1 = inline), no sink set yet (see
/// collect()).
inline std::unique_ptr<engine::Engine> sharded_engine(
    const api::AnalysisConfig& config, std::size_t shards,
    std::size_t threads) {
  engine::EngineConfig ec;
  ec.mode = engine::EngineMode::batch;
  ec.live.analysis = config;
  ec.shards = shards;
  ec.threads = threads;
  auto eng = std::make_unique<engine::Engine>(ec);
  (void)eng->attach(engine::parse_link_spec("all=*"));
  return eng;
}

/// The live-mode counterpart of sharded_engine().
inline std::unique_ptr<engine::Engine> sharded_engine(
    const live::LiveConfig& config, std::size_t shards, std::size_t threads) {
  engine::EngineConfig ec;
  ec.mode = engine::EngineMode::live;
  ec.live = config;
  ec.shards = shards;
  ec.threads = threads;
  auto eng = std::make_unique<engine::Engine>(ec);
  (void)eng->attach(engine::parse_link_spec("all=*"));
  return eng;
}

/// Every interval report of `packets` through sharded_engine(), fed
/// `batch` packets at a time.
inline std::vector<api::AnalysisReport> sharded_analyze(
    std::span<const net::PacketRecord> packets,
    const api::AnalysisConfig& config, std::size_t shards,
    std::size_t threads = 1, std::size_t batch = 1024) {
  auto eng = sharded_engine(config, shards, threads);
  const auto reports = collect(*eng);
  push_all(*eng, packets, batch);
  eng->finish();
  std::vector<api::AnalysisReport> out;
  for (auto& r : reports->take()) out.push_back(std::move(*r.interval));
  return out;
}

/// Every window report of `packets` through the live sharded_engine(), fed
/// `batch` packets at a time.
inline std::vector<live::WindowReport> sharded_live(
    std::span<const net::PacketRecord> packets, const live::LiveConfig& config,
    std::size_t shards, std::size_t threads = 1, std::size_t batch = 1024) {
  auto eng = sharded_engine(config, shards, threads);
  const auto reports = collect(*eng);
  push_all(*eng, packets, batch);
  eng->finish();
  std::vector<live::WindowReport> out;
  for (auto& r : reports->take()) out.push_back(std::move(*r.window));
  return out;
}

}  // namespace fbm::testsupport
