// Shared scaffolding for the libFuzzer targets (built under -DFBM_FUZZ=ON).
//
// Each fuzz_*.cpp defines LLVMFuzzerTestOneInput over raw bytes. With a
// fuzzer-capable compiler (clang) CMake links -fsanitize=fuzzer and the
// sanitizer runtime supplies main(). Other compilers get
// FBM_FUZZ_STANDALONE instead: the fallback main() below replays each
// argv path through the target once — enough for gcc to compile-check the
// targets and for CI to run them over the seed corpus without clang.
//
// The file-format readers under test parse from files, so write_temp_input()
// spills the fuzz payload to a per-process scratch file and hands back its
// path. Reuse of one path per process keeps the fuzzer's iteration cost at
// a single open/truncate, and the file lives in the OS tmpdir so crashed
// runs leave nothing behind in the corpus directory.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace fbm::fuzz {

/// Writes the payload to this process's scratch file and returns the path.
inline const std::filesystem::path& write_temp_input(
    const std::uint8_t* data, std::size_t size, const char* tag) {
  static const std::filesystem::path path = [&] {
    auto p = std::filesystem::temp_directory_path() /
             (std::string("fbm_fuzz_") + tag + "_" +
              std::to_string(static_cast<unsigned long>(getpid())));
    return p;
  }();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  return path;
}

}  // namespace fbm::fuzz

#ifdef FBM_FUZZ_STANDALONE
// Non-clang fallback: run each argv file through the target once.
int main(int argc, char** argv) {
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "fuzz: cannot open %s\n", argv[i]);
      ++failures;
      continue;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
    std::printf("fuzz: %s ok (%zu bytes)\n", argv[i], bytes.size());
  }
  return failures == 0 ? 0 : 1;
}
#endif
