// Fuzz target: the scenario spec parser (.scn), which reads specs from the
// command line (fbm_trace_gen --scenario). Any text must either parse into
// a spec that validates or throw a typed exception — never crash, hang or
// overflow. Nothing is generated: a parsed spec is only validated.
#include <exception>
#include <string_view>

#include "fuzz_driver.hpp"
#include "scenario/spec.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  try {
    const fbm::scenario::ScenarioSpec spec = fbm::scenario::parse_scenario_text(
        std::string_view(reinterpret_cast<const char*>(data), size));
    spec.validate();
  } catch (const std::exception&) {
    // Malformed input rejected with a typed error: exactly the contract.
  }
  return 0;
}
