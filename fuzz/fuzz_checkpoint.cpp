// Fuzz target: the live checkpoint codec (.fbmc).
#include <exception>

#include "ckpt/checkpoint.hpp"
#include "fuzz_driver.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto& path = fbm::fuzz::write_temp_input(data, size, "fbmc");
  try {
    (void)fbm::ckpt::read_checkpoint(path);
  } catch (const std::exception&) {
    // Malformed input rejected with a typed error: exactly the contract.
  }
  return 0;
}
