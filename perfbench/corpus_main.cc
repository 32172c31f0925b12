// bench_corpus — writes one seeded synthetic kernel tree to disk together
// with the generator's ground truth, for the benchmark driver (run.py).
//
//   bench_corpus --out DIR --truth FILE --seed N --kernelish M
//                [--new-family] [--wrapper-depths 2,3]
//   bench_corpus --build-type        prints the CMAKE_BUILD_TYPE it was built with
//
// The truth file is JSON:
//   {"files": N, "lines": N, "bytes": N,
//    "bugs": [[file, function, pattern], ...],
//    "false_positives": [[file, function], ...]}
// It comes straight from GenerateKernelCorpus's plant lists; nothing here
// runs a checker, so the driver's oracle shares no code with them.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/checkers/report.h"
#include "src/corpus/generator.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_corpus --out DIR --truth FILE --seed N --kernelish M\n"
               "                    [--new-family] [--wrapper-depths 2,3]\n"
               "       bench_corpus --build-type\n");
  return 64;
}

bool WriteFile(const std::filesystem::path& path, std::string_view text) {
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace refscan;
  std::string out_dir;
  std::string truth_path;
  CorpusOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (std::strcmp(argv[i], "--build-type") == 0) {
      std::printf("%s\n", PERFBENCH_BUILD_TYPE);
      return 0;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      const char* v = value();
      if (v == nullptr) return Usage();
      out_dir = v;
    } else if (std::strcmp(argv[i], "--truth") == 0) {
      const char* v = value();
      if (v == nullptr) return Usage();
      truth_path = v;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(argv[i], "--kernelish") == 0) {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.kernelish_modules = std::atoi(v);
    } else if (std::strcmp(argv[i], "--new-family") == 0) {
      options.new_family_modules = true;
    } else if (std::strcmp(argv[i], "--wrapper-depths") == 0) {
      const char* v = value();
      if (v == nullptr) return Usage();
      for (const char* p = v; *p != '\0';) {
        char* end = nullptr;
        options.wrapper_chain_depths.push_back(static_cast<int>(std::strtol(p, &end, 10)));
        if (end == p) return Usage();
        p = *end == ',' ? end + 1 : end;
      }
    } else {
      return Usage();
    }
  }
  if (out_dir.empty() || truth_path.empty() || !have_seed) {
    return Usage();
  }

  const Corpus corpus = GenerateKernelCorpus(options);
  size_t lines = 0;
  size_t bytes = 0;
  for (const auto& [path, file] : corpus.tree.files()) {
    const std::string_view text = file.text();
    if (!WriteFile(std::filesystem::path(out_dir) / path, text)) {
      std::fprintf(stderr, "bench_corpus: cannot write %s/%s\n", out_dir.c_str(), path.c_str());
      return 1;
    }
    bytes += text.size();
    for (const char c : text) {
      lines += c == '\n' ? 1 : 0;
    }
  }

  std::string truth = "{\"files\": " + std::to_string(corpus.tree.size()) +
                      ", \"lines\": " + std::to_string(lines) +
                      ", \"bytes\": " + std::to_string(bytes) + ",\n\"bugs\": [";
  for (size_t i = 0; i < corpus.ground_truth.size(); ++i) {
    const PlantedBug& b = corpus.ground_truth[i];
    truth += i == 0 ? "\n  [" : ",\n  [";
    AppendJsonString(truth, b.file);
    truth += ", ";
    AppendJsonString(truth, b.function);
    truth += ", " + std::to_string(b.anti_pattern) + "]";
  }
  truth += "],\n\"false_positives\": [";
  for (size_t i = 0; i < corpus.planted_fps.size(); ++i) {
    const PlantedFalsePositive& fp = corpus.planted_fps[i];
    truth += i == 0 ? "\n  [" : ",\n  [";
    AppendJsonString(truth, fp.file);
    truth += ", ";
    AppendJsonString(truth, fp.function);
    truth += "]";
  }
  truth += "]}\n";
  if (!WriteFile(truth_path, truth)) {
    std::fprintf(stderr, "bench_corpus: cannot write %s\n", truth_path.c_str());
    return 1;
  }
  return 0;
}
