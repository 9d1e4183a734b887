#include "bench_util.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>

namespace ppsim::bench {

std::vector<int> ring_sweep(int max_n) {
  const int cap = core::env_int("PPSIM_MAX_N", max_n);
  std::vector<int> ns;
  for (int n = 8; n <= cap; n *= 2) ns.push_back(n);
  return ns;
}

void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

std::pair<std::uint64_t, int> steps_and_repeats() {
  const int steps = core::env_int("PPSIM_BENCH_STEPS", 4'000'000);
  const int repeats = core::env_int("PPSIM_BENCH_REPEATS", 5);
  if (steps < 1 || repeats < 1) {
    std::fprintf(stderr,
                 "ppsim: PPSIM_BENCH_STEPS=%d and PPSIM_BENCH_REPEATS=%d "
                 "must both be at least 1\n",
                 steps, repeats);
    std::exit(2);
  }
  return {static_cast<std::uint64_t>(steps), repeats};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string bench_json_path(const std::string& name) {
  const std::string file = "BENCH_" + name + ".json";
  const char* dir = std::getenv("PPSIM_BENCH_DIR");
  if (dir == nullptr || *dir == '\0') return file;
  std::string path(dir);
  if (!path.empty() && path.back() != '/') path += '/';
  return path + file;
}

void write_json_file(const std::string& path,
                     const std::function<void(core::JsonWriter&)>& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing: %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  core::JsonWriter w(f);
  body(w);
  w.finish();
  // fflush surfaces a failed buffered write; ferror one that failed
  // earlier, mid-document. Either leaves its errno behind.
  const bool written = std::fflush(f) == 0 && std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace ppsim::bench
