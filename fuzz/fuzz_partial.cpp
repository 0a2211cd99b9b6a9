// Fuzz target: the distributed-aggregation partial-report codec (.fbmp).
// A parsed file is also folded into a merger twice and fitted: window
// frames are fixed-size sums, whatever the reader accepts must add without
// overflow or undefined behaviour, and whatever the merger accepts must fit
// and render.
#include <exception>
#include <utility>

#include "agg/merger.hpp"
#include "fuzz_driver.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto& path = fbm::fuzz::write_temp_input(data, size, "fbmp");
  try {
    fbm::agg::PartialFile file = fbm::agg::read_partial_file(path);
    fbm::agg::PartialFile copy = file;
    fbm::agg::Merger merger;
    merger.add(std::move(file));
    merger.add(std::move(copy));
    (void)merger.finish();
  } catch (const std::exception&) {
    // Malformed input rejected with a typed error: exactly the contract.
  }
  return 0;
}
