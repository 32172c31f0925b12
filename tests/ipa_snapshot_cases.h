// The .ipa snapshot contract (DESIGN.md §5.8), shared by the local
// `--cache-dir` suite (tests/cache_test.cc) and the `--remote` suite
// (tests/serve_test.cc): whichever store backs the cache, a warm `--ipa`
// scan equals a `--no-cache --ipa` scan of the same tree, byte for byte,
// while the snapshot hits after a comment edit and misses after anything
// that changes a unit.

#ifndef REFSCAN_TESTS_IPA_SNAPSHOT_CASES_H_
#define REFSCAN_TESTS_IPA_SNAPSHOT_CASES_H_

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cache/store.h"
#include "src/checkers/engine.h"
#include "src/corpus/generator.h"
#include "src/support/faultinject.h"

namespace refscan::ipa_snapshot_cases {

// Where the warm scans run: `scan` goes through the backend's cache (a
// local directory or a resident daemon) and `store` is that cache's object
// store, for counting and damaging .ipa objects.
struct Backend {
  std::function<ScanResult(const SourceTree&, const ScanOptions&)> scan;
  std::shared_ptr<ObjectStore> store;
};

// The base corpus plus depth-2/3 wrapper chains (summary-only bugs) and the
// P10–P12 / dialect modules, scanned with all twelve patterns and both
// dialects.
inline SourceTree SnapshotTree() {
  static const Corpus* corpus = [] {
    CorpusOptions options;
    options.wrapper_chain_depths = {2, 3};
    options.new_family_modules = true;
    return new Corpus(GenerateKernelCorpus(options));
  }();
  SourceTree tree;
  for (const auto& [path, file] : corpus->tree.files()) {
    tree.Add(path, std::string(file.text()));
  }
  return tree;
}

inline ScanOptions SnapshotOptions(size_t jobs) {
  ScanOptions options;
  options.jobs = jobs;
  options.interprocedural = true;
  options.enabled_patterns = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  options.dialects = {"glib", "uacpi"};
  return options;
}

inline ScanResult ColdScan(const SourceTree& tree, const ScanOptions& options) {
  return CheckerEngine(KnowledgeBase::BuiltIn(), options).Scan(tree);
}

inline void ExpectSameAsCold(const ScanResult& cold, const ScanResult& warm) {
  EXPECT_EQ(ScanResultToJson(cold, false), ScanResultToJson(warm, false));
  EXPECT_EQ(ScanExitCodeFor(cold), ScanExitCodeFor(warm));
  EXPECT_EQ(cold.stats.discovered_apis, warm.stats.discovered_apis);
  EXPECT_EQ(cold.stats.summarized_functions, warm.stats.summarized_functions);
}

// The distinct .ipa object names in the store's index.
inline std::set<std::string> IpaObjects(ObjectStore& store) {
  std::set<std::string> names;
  for (const CacheIndexEntry& e : store.Index()) {
    if (e.kind == "ipa") {
      names.insert(e.object);
    }
  }
  return names;
}

// The first file whose text contains `needle`.
inline std::string FileContaining(const SourceTree& tree, const std::string& needle) {
  for (const auto& [path, file] : tree.files()) {
    if (file.text().find(needle) != std::string_view::npos) {
      return path;
    }
  }
  return "";
}

inline void Edit(SourceTree& tree, const std::string& path, const std::string& from,
                 const std::string& to) {
  std::string text(tree.Find(path)->text());
  const size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << path << " lacks " << from;
  text.replace(at, from.size(), to);
  tree.Add(path, std::move(text));
}

// Every case, in order, against one fresh backend at one --jobs value.
inline void RunAll(const Backend& backend, size_t jobs) {
  SCOPED_TRACE("jobs=" + std::to_string(jobs));
  const ScanOptions options = SnapshotOptions(jobs);
  ScanOptions cold_options = options;
  cold_options.jobs = 1;
  SourceTree tree = SnapshotTree();

  // Prime: a cold --ipa scan stores one .ipa object.
  {
    const ScanResult warm = backend.scan(tree, options);
    ExpectSameAsCold(ColdScan(tree, cold_options), warm);
    EXPECT_EQ(warm.stats.ipa_snapshot_hits, 0u);
    EXPECT_EQ(IpaObjects(*backend.store).size(), 1u);
  }

  // Comment append: facts and unit bytes unchanged, so the snapshot hits;
  // only the edited file is parsed, and the .kb snapshot is not loaded.
  const std::string d3 = FileContaining(tree, "_d3_get_sync3(struct device *dev)");
  ASSERT_FALSE(d3.empty());
  tree.Add(d3, std::string(tree.Find(d3)->text()) + "/* reviewed */\n");
  const ScanResult before_body_edit = ColdScan(tree, cold_options);
  {
    SCOPED_TRACE("comment append");
    const ScanResult warm = backend.scan(tree, options);
    ExpectSameAsCold(before_body_edit, warm);
    EXPECT_EQ(warm.stats.ipa_snapshot_hits, 1u);
    EXPECT_EQ(warm.stats.kb_snapshot_hits, 0u);
    EXPECT_GT(warm.stats.summarized_functions, 0u);
    EXPECT_EQ(warm.stats.cache_parse_skips, tree.size() - 1);
    EXPECT_EQ(warm.stats.cache_corrupt, 0u);
  }

  // Body edit of the innermost depth-3 wrapper: it stops forwarding the
  // error code, which leaves its facts alone (the .kb snapshot still hits)
  // but moves its unit digest, so the .ipa snapshot misses and the 𝒢_E
  // report through the chain disappears exactly as in a cold scan.
  Edit(tree, d3, "\treturn pm_runtime_get_sync(dev);\n", "\tpm_runtime_get_sync(dev); return 0;\n");
  {
    SCOPED_TRACE("depth-3 wrapper body edit");
    const ScanResult cold = ColdScan(tree, cold_options);
    EXPECT_NE(ReportsToJson(cold.reports), ReportsToJson(before_body_edit.reports));
    const ScanResult warm = backend.scan(tree, options);
    ExpectSameAsCold(cold, warm);
    EXPECT_EQ(warm.stats.ipa_snapshot_hits, 0u);
    EXPECT_EQ(warm.stats.kb_snapshot_hits, 1u);
    EXPECT_EQ(IpaObjects(*backend.store).size(), 2u);
  }

  // A failed summary stage stores nothing: under ipa.summarize:always a
  // tree the cache has never seen leaves the .ipa objects as they were.
  tree.Add("drivers/snapshot/extra.c",
           "static int extra_probe(struct device_node *np)\n"
           "{\n"
           "  struct device_node *child = of_get_parent(np);\n"
           "  return 0;\n"
           "}\n");
  {
    SCOPED_TRACE("ipa.summarize:always");
    ScopedFaultArm arm("ipa.summarize:always");
    const ScanResult cold = ColdScan(tree, cold_options);
    ASSERT_FALSE(cold.failures.empty());
    EXPECT_EQ(cold.failures.back().path, "<tree>");
    const ScanResult warm = backend.scan(tree, options);
    ExpectSameAsCold(cold, warm);
    EXPECT_EQ(warm.stats.ipa_snapshot_hits, 0u);
    EXPECT_EQ(IpaObjects(*backend.store).size(), 2u);
  }
  {
    SCOPED_TRACE("same tree, summaries healthy again");
    const ScanResult warm = backend.scan(tree, options);
    ExpectSameAsCold(ColdScan(tree, cold_options), warm);
    EXPECT_EQ(warm.stats.ipa_snapshot_hits, 0u);
    EXPECT_EQ(IpaObjects(*backend.store).size(), 3u);
  }

  // A truncated .ipa object is a counted miss, and the rescan re-stores it.
  for (const std::string& name : IpaObjects(*backend.store)) {
    std::string blob;
    ASSERT_TRUE(backend.store->Get(name, blob)) << name;
    backend.store->Put(name, blob.substr(0, blob.size() / 2), "ipa", "<tree>");
  }
  {
    SCOPED_TRACE("truncated .ipa");
    const ScanResult cold = ColdScan(tree, cold_options);
    const ScanResult warm = backend.scan(tree, options);
    ExpectSameAsCold(cold, warm);
    EXPECT_EQ(warm.stats.ipa_snapshot_hits, 0u);
    EXPECT_EQ(warm.stats.cache_corrupt, 1u);
    const ScanResult rewarmed = backend.scan(tree, options);
    ExpectSameAsCold(cold, rewarmed);
    EXPECT_EQ(rewarmed.stats.ipa_snapshot_hits, 1u);
    EXPECT_EQ(rewarmed.stats.cache_corrupt, 0u);
  }

  // A file quarantined on the miss path. Its facts are cached but its unit
  // never was (every .unit store failed), so the units pass must parse it,
  // and the parse fails: it must drop out of discovery and summaries as a
  // stage-1 quarantine does in the cold scan. Its find wrapper decides a
  // report in another file, so leaking it into the KB would show.
  const std::string wrap = "drivers/snapshot/q_wrap.c";
  tree.Add(wrap,
           "struct device_node *q_find(void)\n"
           "{\n"
           "  struct device_node *np = of_find_node_by_path(\"/q\");\n"
           "\n"
           "  return np;\n"
           "}\n");
  tree.Add("drivers/snapshot/q_use.c",
           "static int q_use(void)\n"
           "{\n"
           "  struct device_node *np = q_find();\n"
           "\n"
           "  if (!np)\n"
           "    return -ENODEV;\n"
           "  return 0;\n"
           "}\n");
  {
    ScopedFaultArm arm("cache.store:file=*.unit");
    backend.scan(tree, options);
  }
  Edit(tree, d3, "\tpm_runtime_get_sync(dev); return 0;\n", "\treturn pm_runtime_get_sync(dev);\n");
  {
    SCOPED_TRACE("quarantined on the miss path");
    const ScanResult healthy = ColdScan(tree, cold_options);
    ScopedFaultArm arm("parser.parse:file=" + wrap);
    const ScanResult cold = ColdScan(tree, cold_options);
    ASSERT_EQ(cold.failures.size(), 1u);
    EXPECT_EQ(cold.failures[0].path, wrap);
    EXPECT_NE(ReportsToJson(cold.reports), ReportsToJson(healthy.reports));
    // Twice: the snapshot stored without the file must not serve the next
    // scan, whose stage 1 finds the file's facts healthy again.
    for (int pass = 0; pass < 2; ++pass) {
      const ScanResult warm = backend.scan(tree, options);
      ExpectSameAsCold(cold, warm);
      EXPECT_EQ(warm.stats.ipa_snapshot_hits, 0u);
    }
  }
}

}  // namespace refscan::ipa_snapshot_cases

#endif  // REFSCAN_TESTS_IPA_SNAPSHOT_CASES_H_
