// KB-slice soundness (DESIGN.md §5.8): a file's report shard depends on the
// frozen knowledge base only through the answers it gives for the file's
// KbSliceKeys, which is what lets the cache key each shard on
// FingerprintKbSlice instead of the whole KB.
//
// For every file of four corpora (base, a small kernelish tree, the
// P10-P12 new-family modules, and those under the glib/uacpi dialects):
//
//   - perturbing every KB table for names outside the file's key set must
//     leave both its slice fingerprint and its checked shard byte-identical,
//     and a shard cached by a real scan at --jobs 1, --jobs 4 and
//     --workers 2 must splice under the perturbed KB;
//   - perturbing any one answer for a name inside the key set must move the
//     fingerprint.
//
// The --workers scan execs the real CLI binary (REFSCAN_CLI_PATH), so the
// shards it stores were keyed in another process.

#include <unistd.h>

#include <filesystem>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "src/cache/cache.h"
#include "src/checkers/engine.h"
#include "src/checkers/scan_stages.h"
#include "src/checkers/sharded.h"
#include "src/corpus/generator.h"
#include "src/kb/kb.h"

namespace refscan {
namespace {

namespace stdfs = std::filesystem;

struct SliceCorpus {
  const char* name;
  CorpusOptions corpus;
  std::set<int> patterns;
  std::vector<std::string> dialects;
};

void PrintTo(const SliceCorpus& corpus, std::ostream* os) { *os << corpus.name; }

std::vector<SliceCorpus> Corpora() {
  const std::set<int> all = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  SliceCorpus base{"base", {}, ScanOptions{}.enabled_patterns, {}};
  SliceCorpus kernelish{"kernelish", {}, ScanOptions{}.enabled_patterns, {}};
  kernelish.corpus.kernelish_modules = 6;
  SliceCorpus new_family{"new_family", {}, all, {}};
  new_family.corpus.new_family_modules = true;
  SliceCorpus dialect{"dialect", {}, all, {"glib", "uacpi"}};
  dialect.corpus.new_family_modules = true;
  return {base, kernelish, new_family, dialect};
}

// Names a file's lookups can reach: its keys and, for a "_"-prefixed key,
// the name FindApi's "__"-fallback strips it to.
std::set<std::string, std::less<>> Reachable(const std::vector<Symbol>& keys) {
  std::set<std::string, std::less<>> out;
  for (const Symbol symbol : keys) {
    std::string_view key = symbol.view();
    out.emplace(key);
    while (key.starts_with("_")) {
      key.remove_prefix(1);
    }
    out.emplace(key);
  }
  return out;
}

// Every name a unit spells in its function bodies: identifiers, member
// names and declared locals. Collected from the AST, independently of
// KbSliceKeys, so a key the slice forgot still gets perturbed.
std::set<std::string> SpelledNames(const TranslationUnit& unit) {
  std::set<std::string> out;
  for (const FunctionDef& fn : unit.functions) {
    if (fn.body == nullptr) {
      continue;
    }
    ForEachExpr(*fn.body, [&out](const Expr& e) {
      if (e.kind == Expr::Kind::kIdent || e.kind == Expr::Kind::kMember) {
        out.insert(e.value.str());
      }
    });
    ForEachStmt(*fn.body, [&out](const Stmt& s) {
      if (!s.name.empty()) {
        out.insert(s.name.str());
      }
    });
  }
  return out;
}

// A copy of `kb` with every table perturbed for names outside `reachable`:
// each unreachable API and smart loop rewritten, and fresh APIs, smart
// loops, sinks, param derefs, refcount fields, free functions and
// refcounted structs registered under every unreachable name in `own`
// (the file's spelled names) and under 24 from the tree-wide `pool`.
KnowledgeBase PerturbOutside(const KnowledgeBase& kb,
                             const std::set<std::string, std::less<>>& reachable,
                             const std::set<std::string>& own,
                             const std::vector<std::string>& pool, size_t salt) {
  KnowledgeBase out = kb;
  for (const auto& [name, api] : kb.apis()) {
    if (!reachable.contains(name)) {
      RefApiInfo flipped = api;
      flipped.direction = api.direction == RefDirection::kIncrease ? RefDirection::kDecrease
                                                                   : RefDirection::kIncrease;
      flipped.returns_object = !api.returns_object;
      flipped.object_param = api.object_param + 1;
      flipped.tests_zero = !api.tests_zero;
      out.AddApi(std::move(flipped));
    }
  }
  for (const auto& [name, loop] : kb.smart_loops()) {
    if (!reachable.contains(name)) {
      SmartLoopInfo moved = loop;
      moved.iterator_arg = loop.iterator_arg + 1;
      out.AddSmartLoop(std::move(moved));
    }
  }
  std::vector<std::string> names(own.begin(), own.end());
  for (size_t i = 0, added = 0; i < pool.size() && added < 24; ++i) {
    const std::string& name = pool[(i + salt * 7) % pool.size()];
    if (!own.contains(name)) {
      names.push_back(name);
      ++added;
    }
  }
  for (const std::string& name : names) {
    if (reachable.contains(name)) {
      continue;
    }
    out.AddApi(RefApiInfo{.name = name, .returns_object = true, .object_param = -1});
    out.AddSmartLoop(SmartLoopInfo{.name = name, .iterator_arg = 1, .embedded_api = "x"});
    out.AddOwnershipSink(name, 0);
    out.AddParamDerefs(name, {0, 1});
    out.AddRefcountField(name);
    out.AddFreeFunction(name);
    out.AddRefcountedStruct(name);
  }
  return out;
}

// Moves one answer for `key` per step and checks that every step moves the
// slice fingerprint. Steps accumulate in one KB copy.
void ExpectEveryInsideAnswerMovesTheFingerprint(const KnowledgeBase& kb,
                                                const DiscoveryFacts& facts,
                                                const std::string& path) {
  KnowledgeBase moved = kb;
  uint64_t fp = FingerprintKbSlice(moved, facts);
  const auto expect_moved = [&](std::string_view key, const char* table) {
    const uint64_t next = FingerprintKbSlice(moved, facts);
    EXPECT_NE(next, fp) << path << ": " << table << " answer for " << key;
    fp = next;
  };
  using ApiMove = void (*)(RefApiInfo&);
  static const std::pair<const char*, ApiMove> kApiMoves[] = {
      {"direction",
       [](RefApiInfo& a) {
         a.direction = a.direction == RefDirection::kIncrease ? RefDirection::kDecrease
                                                              : RefDirection::kIncrease;
       }},
      {"category",
       [](RefApiInfo& a) {
         a.category = a.category == ApiCategory::kGeneral ? ApiCategory::kEmbedded
                                                          : ApiCategory::kGeneral;
       }},
      {"returns_error", [](RefApiInfo& a) { a.returns_error = !a.returns_error; }},
      {"may_return_null", [](RefApiInfo& a) { a.may_return_null = !a.may_return_null; }},
      {"returns_object", [](RefApiInfo& a) { a.returns_object = !a.returns_object; }},
      {"object_param", [](RefApiInfo& a) { ++a.object_param; }},
      {"consumed_param", [](RefApiInfo& a) { ++a.consumed_param; }},
      {"hidden", [](RefApiInfo& a) { a.hidden = !a.hidden; }},
      {"tests_zero", [](RefApiInfo& a) { a.tests_zero = !a.tests_zero; }},
      {"discovered", [](RefApiInfo& a) { a.discovered = !a.discovered; }},
  };
  for (const Symbol name : KbSliceKeys(facts)) {
    const std::string_view key = name.view();
    // FindApi: first the answer's name — an exact entry, identical but for
    // its name, where the "__" fallback answered, or a fresh entry where
    // nothing did — then every RefApiInfo field on its own.
    if (const RefApiInfo* found = moved.FindApi(name); found == nullptr || found->name != key) {
      RefApiInfo exact = found != nullptr ? *found : RefApiInfo{};
      exact.name = std::string(key);
      moved.AddApi(std::move(exact));
      expect_moved(key, "FindApi name");
    }
    for (const auto& [field, move] : kApiMoves) {
      RefApiInfo api = *moved.FindApi(name);
      move(api);
      moved.AddApi(std::move(api));
      expect_moved(key, field);
    }

    const SmartLoopInfo* loop = moved.FindSmartLoop(name);
    moved.AddSmartLoop(SmartLoopInfo{.name = std::string(key),
                                     .iterator_arg = loop != nullptr ? loop->iterator_arg + 1 : 0,
                                     .embedded_api = ""});
    expect_moved(key, "FindSmartLoop iterator_arg");
    moved.AddSmartLoop(SmartLoopInfo{.name = std::string(key),
                                     .iterator_arg = moved.FindSmartLoop(name)->iterator_arg,
                                     .embedded_api = "moved"});
    expect_moved(key, "FindSmartLoop embedded_api");

    std::vector<int> derefs;
    if (const std::vector<int>* found = moved.FindParamDerefs(name)) {
      derefs = *found;
    }
    derefs.push_back(7);
    moved.AddParamDerefs(std::string(key), std::move(derefs));
    expect_moved(key, "FindParamDerefs");

    moved.AddOwnershipSink(std::string(key), moved.FindOwnershipSink(name) + 1);
    expect_moved(key, "FindOwnershipSink");

    if (!moved.IsFreeApi(name)) {
      moved.AddFreeFunction(std::string(key));
      expect_moved(key, "IsFreeApi");
    }
    if (!moved.IsRefcountField(name)) {
      moved.AddRefcountField(std::string(key));
      expect_moved(key, "IsRefcountField");
    }
  }
}

std::string ShardBytes(const FileShard& shard) {
  CachedFileReports entry;
  entry.reports = shard.raw;
  entry.functions = shard.functions;
  entry.degraded = shard.degraded;
  return SerializeReports(entry);
}

class KbSliceTest : public ::testing::TestWithParam<SliceCorpus> {
 protected:
  void TearDown() override {
    for (const std::string& dir : dirs_) {
      stdfs::remove_all(dir);
    }
  }

  std::string TempDir(const std::string& tag) {
    const std::string dir = (stdfs::temp_directory_path() /
                             ("refscan-kb-slice-" + std::to_string(::getpid()) + "-" +
                              GetParam().name + "-" + tag))
                                .string();
    stdfs::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

 private:
  std::vector<std::string> dirs_;
};

TEST_P(KbSliceTest, SliceFingerprintTracksExactlyTheObservableAnswers) {
  const SliceCorpus& param = GetParam();
  const Corpus corpus = GenerateKernelCorpus(param.corpus);
  const SourceTree& tree = corpus.tree;
  ScanOptions options;
  options.enabled_patterns = param.patterns;
  options.dialects = param.dialects;

  CheckerEngine reference(KnowledgeBase::BuiltIn(), options);
  const std::string want_json = ScanResultToJson(reference.Scan(tree), false);
  const KnowledgeBase& kb = reference.kb();  // frozen post-discovery KB

  // Stage 1 without a cache: every file's facts, plus a unit to check.
  ScanCache no_cache{std::string()};
  const ScanStageContext cold_ctx = MakeScanStageContext(options, no_cache);
  const auto check = [&](const SourceFile& file, const KnowledgeBase& against) {
    FileScanState st = RunParseStage(file, cold_ctx);
    EXPECT_FALSE(st.failure.has_value()) << file.path();
    return ShardBytes(RunCheckStage(file, st, against, 0, cold_ctx));
  };

  std::vector<const SourceFile*> files;
  std::vector<DiscoveryFacts> facts;
  std::vector<std::set<std::string>> spelled;
  std::set<std::string> pool_set;
  for (const auto& [path, file] : tree.files()) {
    files.push_back(&file);
    FileScanState st = RunParseStage(file, cold_ctx);
    facts.push_back(std::move(st.facts));
    spelled.push_back(SpelledNames(*st.unit));
    pool_set.insert(spelled.back().begin(), spelled.back().end());
  }
  const std::vector<std::string> pool(pool_set.begin(), pool_set.end());
  const auto perturbed = [&](size_t i) {
    return PerturbOutside(kb, Reachable(KbSliceKeys(facts[i])), spelled[i], pool, i);
  };

  std::vector<std::string> perturbed_shards(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    const KnowledgeBase moved = perturbed(i);
    EXPECT_EQ(FingerprintKbSlice(moved, facts[i]), FingerprintKbSlice(kb, facts[i]))
        << files[i]->path();
    perturbed_shards[i] = check(*files[i], moved);
    EXPECT_EQ(perturbed_shards[i], check(*files[i], kb)) << files[i]->path();
    if (i % 8 == 0) {  // the inside sweep is the slow half; a stride keeps it cheap
      ExpectEveryInsideAnswerMovesTheFingerprint(kb, facts[i], files[i]->path());
    }
  }

  // Shards stored by real scans under the unperturbed KB — in-process at
  // two thread counts and by two worker processes — splice unchanged under
  // each file's perturbed KB.
  struct Executor {
    const char* name;
    size_t jobs;
    size_t workers;
  };
  for (const Executor& exec : {Executor{"jobs1", 1, 0}, Executor{"jobs4", 4, 0},
                               Executor{"workers2", 1, 2}}) {
    SCOPED_TRACE(exec.name);
    ScanOptions cached = options;
    cached.jobs = exec.jobs;
    cached.cache_dir = TempDir(exec.name);
    ScanResult primed;
    if (exec.workers > 0) {
      ShardedScanConfig config;
      config.workers = exec.workers;
      config.worker_cmd = REFSCAN_CLI_PATH;
      primed = ShardedScan(tree, cached, config);
    } else {
      primed = CheckerEngine(KnowledgeBase::BuiltIn(), cached).Scan(tree);
    }
    EXPECT_EQ(ScanResultToJson(primed, false), want_json);
    EXPECT_EQ(primed.stats.cache_misses, tree.size());

    ScanCache cache(cached.cache_dir);
    const ScanStageContext ctx = MakeScanStageContext(cached, cache);
    for (size_t i = 0; i < files.size(); ++i) {
      FileScanState st = RunParseStage(*files[i], ctx);
      const std::string shard = ShardBytes(RunCheckStage(*files[i], st, perturbed(i), 0, ctx));
      EXPECT_TRUE(st.report_hit) << files[i]->path();
      EXPECT_EQ(shard, perturbed_shards[i]) << files[i]->path();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpora, KbSliceTest, ::testing::ValuesIn(Corpora()),
                         [](const ::testing::TestParamInfo<SliceCorpus>& corpus) {
                           return std::string(corpus.param.name);
                         });

}  // namespace
}  // namespace refscan
