// Fuzz target: the truth log parser, which reads the ground truth fbm_live
// --truth scores against. Any text must either parse or throw a typed
// exception — never crash, hang or overflow.
#include <exception>
#include <string>

#include "fuzz_driver.hpp"
#include "scenario/truth.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  try {
    (void)fbm::scenario::parse_truth_text(
        std::string(reinterpret_cast<const char*>(data), size));
  } catch (const std::exception&) {
    // Malformed input rejected with a typed error: exactly the contract.
  }
  return 0;
}
