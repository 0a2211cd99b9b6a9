// Differential guard for the telemetry layer's core promise: metrics NEVER
// change analysis results. The same trace analyzed with obs enabled and
// disabled must produce byte-identical JSON reports — across both flow
// definitions, for the pipeline and for an engine link of 4 flow-hash
// shards. A violation means
// an instrumentation site leaked into the data path (reordered floats,
// consumed entropy, perturbed a container) and must be found, not averaged
// away.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../support/sharded.hpp"
#include "api/api.hpp"
#include "obs/metrics.hpp"
#include "trace/synthetic.hpp"

namespace fbm {
namespace {

/// Restores the process-wide obs switch no matter how the test exits, so a
/// failure here cannot bleed a disabled registry into later tests.
class EnabledGuard {
 public:
  EnabledGuard() : prev_(obs::enabled()) {}
  ~EnabledGuard() { obs::set_enabled(prev_); }
  EnabledGuard(const EnabledGuard&) = delete;
  EnabledGuard& operator=(const EnabledGuard&) = delete;

 private:
  bool prev_;
};

std::vector<net::PacketRecord> seeded_trace() {
  trace::SyntheticConfig cfg;
  cfg.duration_s = 45.0;
  cfg.apply_defaults();
  cfg.target_utilization_bps(6e6);
  cfg.seed = 4242;
  return trace::generate_packets(cfg);
}

/// Every interval report of one full analysis, serialized — the byte string
/// the two runs must agree on.
std::string analysis_bytes(const std::vector<net::PacketRecord>& packets,
                           api::FlowDefinition def, std::size_t shards) {
  api::AnalysisConfig config;
  config.flow_definition(def)
      .interval_s(15.0)
      .timeout_s(1.0)
      .min_flows(0);
  std::string out;
  for (const auto& report :
       shards == 1
           ? api::analyze(packets, config)
           : testsupport::sharded_analyze(packets, config, shards, shards)) {
    out += api::to_json(report);
    out += '\n';
  }
  return out;
}

TEST(MetricsDifferential, AnalysisBytesIdenticalOnAndOff) {
  const EnabledGuard guard;
  const auto packets = seeded_trace();
  for (const auto def :
       {api::FlowDefinition::five_tuple, api::FlowDefinition::prefix24}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      obs::set_enabled(false);
      const std::string off = analysis_bytes(packets, def, shards);
      obs::set_enabled(true);
      const std::string on = analysis_bytes(packets, def, shards);
      ASSERT_FALSE(off.empty());
      EXPECT_EQ(off, on)
          << "metrics changed analysis output (def="
          << (def == api::FlowDefinition::prefix24 ? "prefix24"
                                                   : "five_tuple")
          << ", shards=" << shards << ")";
    }
  }
}

}  // namespace
}  // namespace fbm
