// The bundled flood scenario as an in-memory trace, for the differentials
// that pin behaviour under insert-heavy churn: tests/data/scenario_ddos.scn
// (a 300 s trace whose middle 60 s is a flood of tiny flows) replayed
// through scenario::ScenarioTraceSource.
#pragma once

#include <filesystem>
#include <vector>

#include "api/trace_source.hpp"
#include "net/packet.hpp"
#include "scenario/source.hpp"
#include "scenario/spec.hpp"

namespace fbm::testsupport {

/// Start and end of the flood segment of scenario_ddos.scn, seconds.
inline constexpr double kFloodStart = 120.0;
inline constexpr double kFloodEnd = 180.0;

[[nodiscard]] inline std::vector<net::PacketRecord> flood_trace() {
  scenario::ScenarioTraceSource source(scenario::load_scenario(
      std::filesystem::path(FBM_TEST_DATA_DIR) / "scenario_ddos.scn"));
  return api::read_all(source);
}

}  // namespace fbm::testsupport
