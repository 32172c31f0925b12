#include "src/checkers/engine.h"

#include <charconv>
#include <chrono>
#include <optional>
#include <thread>

#include "src/ast/parser.h"
#include "src/cache/cache.h"
#include "src/checkers/scan_stages.h"
#include "src/ipa/summary.h"
#include "src/support/faultinject.h"
#include "src/support/governor.h"
#include "src/support/strings.h"
#include "src/support/telemetry.h"
#include "src/support/threadpool.h"

namespace refscan {

std::string_view FailureStageName(FailureStage stage) {
  switch (stage) {
    case FailureStage::kLoad:
      return "load";
    case FailureStage::kParse:
      return "parse";
    case FailureStage::kCheck:
      return "check";
    case FailureStage::kSummarize:
      return "summarize";
  }
  return "unknown";
}

std::string_view FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kIo:
      return "io";
    case FailureKind::kParse:
      return "parse";
    case FailureKind::kResourceLimit:
      return "resource-limit";
    case FailureKind::kCache:
      return "cache";
    case FailureKind::kInternal:
      return "internal";
  }
  return "unknown";
}

UnitContext BuildUnitContext(const SourceFile& file, TranslationUnit unit,
                             const KnowledgeBase& kb) {
  UnitContext uc;
  uc.file = &file;
  uc.unit = std::move(unit);
  for (const FunctionDef& fn : uc.unit.functions) {
    FunctionContext fc;
    fc.unit = &uc.unit;
    fc.fn = &fn;
    fc.cfg = std::make_unique<Cfg>(BuildCfg(fn));
    fc.cpg = std::make_unique<Cpg>(BuildCpg(*fc.cfg, kb));
    uc.functions.push_back(std::move(fc));
  }
  return uc;
}

CheckerEngine::CheckerEngine(KnowledgeBase kb, ScanOptions options)
    : kb_(std::move(kb)), options_(std::move(options)) {
  // Dialect catalogues merge into the seed KB before any discovery runs, so
  // discovered wrappers classify against them exactly like builtin APIs.
  // Unknown names were rejected at the CLI; here they are simply inert.
  for (const std::string& dialect : options_.dialects) {
    ApplyDialect(kb_, dialect);
  }
}

namespace {

// Pre-resolved counter handles for one scan. The engine counts in here (one
// relaxed atomic add per event, no name lookups on the hot path) and
// materialises the stable ScanStats façade from the registry at the end via
// ScanStatsFields(); an armed telemetry session then absorbs the whole
// registry, so --metrics-out carries the scan counters alongside the
// support-layer ones (load.*, sched.*, fault.*, governor.*).
struct ScanMetrics {
  MetricsRegistry reg;
  MetricCounter& files = reg.Counter("scan.files");
  MetricCounter& functions = reg.Counter("scan.functions");
  MetricCounter& discovered_apis = reg.Counter("scan.discovered_apis");
  MetricCounter& discovered_smart_loops = reg.Counter("scan.discovered_smart_loops");
  MetricCounter& refcounted_structs = reg.Counter("scan.refcounted_structs");
  MetricCounter& summarized_functions = reg.Counter("scan.summarized_functions");
  MetricCounter& files_quarantined = reg.Counter("scan.files_quarantined");
  MetricCounter& files_retried = reg.Counter("scan.files_retried");
  MetricCounter& functions_degraded = reg.Counter("scan.functions_degraded");
  MetricCounter& cache_hits = reg.Counter("scan.cache_hits");
  MetricCounter& cache_misses = reg.Counter("scan.cache_misses");
  MetricCounter& cache_parse_skips = reg.Counter("scan.cache_parse_skips");
  MetricCounter& cache_corrupt = reg.Counter("scan.cache_corrupt");
  MetricCounter& kb_snapshot_hits = reg.Counter("scan.kb_snapshot_hits");
  MetricCounter& ipa_snapshot_hits = reg.Counter("scan.ipa_snapshot_hits");
  MetricCounter& raw_reports = reg.Counter("scan.raw_reports");
  MetricCounter& reports = reg.Counter("scan.reports");
};

// The default executor: both per-file stages on the scan's own thread pool.
class PoolExecutor final : public ScanStageExecutor {
 public:
  explicit PoolExecutor(ThreadPool& pool) : pool_(pool) {}

  void Parse(const std::vector<const SourceFile*>& files, std::vector<FileScanState>& states,
             const ScanStageContext& ctx) override {
    ParallelFor(pool_, 0, files.size(), [&](size_t i) {
      if (!states[i].failure) {
        states[i] = RunParseStage(*files[i], ctx);
      }
    });
  }

  std::vector<FileShard> Check(const std::vector<const SourceFile*>& files,
                               std::vector<FileScanState>& states, const KnowledgeBase& kb,
                               uint64_t kb_fp, const ScanStageContext& ctx) override {
    return ParallelMap(pool_, files.size(), [&](size_t i) {
      return RunCheckStage(*files[i], states[i], kb, kb_fp, ctx);
    });
  }

 private:
  ThreadPool& pool_;
};

}  // namespace

ScanResult CheckerEngine::Scan(const SourceTree& tree, ScanStageExecutor* fleet) {
  // Scoped fault arming from the options: library callers and tests get a
  // hermetic plan that restores whatever was armed before. A malformed spec
  // aborts loudly — silently scanning un-faulted would make a fault-matrix
  // CI job pass vacuously.
  std::optional<ScopedFaultArm> fault_arm;
  if (!options_.fault_spec.empty()) {
    FaultPlan plan;
    std::string spec_error;
    if (!ParseFaultSpec(options_.fault_spec, plan, &spec_error)) {
      ScanResult result;
      result.aborted = true;
      result.abort_reason = "invalid fault spec: " + spec_error;
      return result;
    }
    fault_arm.emplace(std::move(plan));
  }

  // Files in path order: index i is the fan-out key for both parallel
  // stages, so merge order never depends on thread scheduling.
  std::vector<const SourceFile*> files;
  files.reserve(tree.size());
  for (const auto& [path, file] : tree.files()) {
    files.push_back(&file);
  }

  ThreadPool pool(options_.jobs);
  PoolExecutor local(pool);
  std::vector<FileScanState> states(files.size());
  if (fleet == nullptr || options_.interprocedural) {
    return *RunPipeline(tree, files, local, pool, states);
  }
  const KnowledgeBase seed_kb = kb_;  // discovery mutates kb_; a rescan starts over
  if (std::optional<ScanResult> result = RunPipeline(tree, files, *fleet, pool, states)) {
    return std::move(*result);
  }
  // A dead worker costs its shard, not the scan: drop every fleet result,
  // quarantine the lost files and rescan the survivors in-process. A
  // stage-1 quarantine keeps a file out of discovery, so the reports equal
  // a scan of the surviving subset by construction.
  kb_ = seed_kb;
  states.assign(files.size(), FileScanState{});
  for (ScanStageExecutor::LostFile& lost : fleet->Lost()) {
    FileFailure f;
    f.path = files[lost.index]->path();
    f.stage = FailureStage::kCheck;
    f.kind = FailureKind::kInternal;
    f.what = std::move(lost.why);
    states[lost.index].failure = std::move(f);
  }
  return *RunPipeline(tree, files, local, pool, states);
}

std::optional<ScanResult> CheckerEngine::RunPipeline(const SourceTree& tree,
                                                     const std::vector<const SourceFile*>& files,
                                                     ScanStageExecutor& executor, ThreadPool& pool,
                                                     std::vector<FileScanState>& states) {
  ScanResult result;
  ScanMetrics m;
  // Every return path below materialises result.stats from the registry
  // (the ScanStatsFields table binds each counter to its member) and folds
  // the scan's counters into the armed session, if any.
  const auto finalize_stats = [&] {
    for (const ScanStatsField& f : ScanStatsFields()) {
      result.stats.*f.member = static_cast<size_t>(m.reg.CounterValue(f.metric));
    }
    if (Telemetry* t = CurrentTelemetry()) {
      t->metrics().MergeFrom(m.reg);
    }
  };

  ScanCache cache(MakeScanStore(options_));
  ScanStageContext ctx = MakeScanStageContext(options_, cache);
  const bool use_cache = ctx.use_cache;
  const bool want_facts = ctx.want_facts;
  // Facts first: an --ipa scan with the cache runs stage 1 for facts only,
  // like the plain warm path, because a hit on its .ipa snapshot leaves no
  // unit to walk. Units are loaded after the probe, and only on a miss.
  const bool ipa_snapshot = options_.interprocedural && use_cache && want_facts;
  if (ipa_snapshot) {
    ctx.need_units = false;
  }

  // Stage 1: obtain per-file discovery facts — and units where needed —
  // (parallel; each file is independent). The per-file body lives in
  // scan_stages.cc, shared verbatim with the shard worker. Every file runs
  // inside its sandbox: a throw from the size cap, the parser (deadline /
  // AST caps / injected fault) or the cache quarantines that one file and
  // resets its partial state; the rest of the scan never sees it again. A
  // quarantined file stores no cache artifacts, so nothing injection- or
  // wall-clock-dependent can ever be replayed.
  {
    TelemetrySpan stage_span("stage.parse");
    executor.Parse(files, states, ctx);
  }
  if (!executor.Lost().empty()) {
    return std::nullopt;
  }

  // Scan-wide circuit breaker (off by default): a mostly-broken tree —
  // wrong directory, filesystem fault, bad deploy — should abort loudly
  // instead of "completing" with a handful of reports from the wreckage.
  const auto breaker_trips = [&](size_t failed) {
    return options_.max_failure_ratio > 0 && !files.empty() &&
           static_cast<double>(failed) / static_cast<double>(files.size()) >
               options_.max_failure_ratio;
  };
  const auto count_failed = [&] {
    size_t failed = 0;
    for (const FileScanState& st : states) {
      failed += st.failure.has_value() ? 1 : 0;
    }
    return failed;
  };
  const auto collect_failures = [&] {
    for (FileScanState& st : states) {
      if (st.retried) {
        m.files_retried.Add(1);
      }
      if (st.failure) {
        m.files_quarantined.Add(1);
        result.failures.push_back(std::move(*st.failure));
      }
    }
  };
  // Checked after stage 1 and again after the --ipa units pass, whose
  // quarantines are parse-stage failures too.
  const auto parse_breaker_trips = [&] {
    const size_t failed = count_failed();
    if (!breaker_trips(failed)) {
      return false;
    }
    result.aborted = true;
    result.abort_reason =
        StrFormat("%zu of %zu files failed in the parse stage (max_failure_ratio %.2f)", failed,
                  files.size(), options_.max_failure_ratio);
    m.files.Add(files.size());
    collect_failures();
    finalize_stats();
    return true;
  };
  if (parse_breaker_trips()) {
    return result;
  }

  // The tree-level snapshot keys hash the healthy files only, in file
  // order: quarantined files are excluded from discovery, summaries and
  // both keys, so the KB — and therefore every healthy file's report
  // shard — is exactly what a scan of the healthy subset alone would build.
  const auto kb_snapshot_key = [&] {
    std::vector<const DiscoveryFacts*> all_facts;
    all_facts.reserve(states.size());
    for (const FileScanState& st : states) {
      if (!st.failure) {
        all_facts.push_back(&st.facts);
      }
    }
    return MakeKbSnapshotKey(FingerprintKnowledgeBase(kb_), options_.nesting_threshold, all_facts,
                             ctx.options_fp);
  };
  const auto ipa_snapshot_key = [&](const CacheKey& kb_key) {
    std::vector<Hash128> digests;
    digests.reserve(states.size());
    for (const FileScanState& st : states) {
      if (!st.failure) {
        digests.push_back(st.unit_digest);
      }
    }
    return MakeIpaSnapshotKey(kb_key, digests, ctx.options_fp);
  };
  CacheKey kb_key;
  if (use_cache && want_facts) {
    kb_key = kb_snapshot_key();
  }

  // Stage 2.5, part one. A summary-stage failure degrades the whole scan
  // (path "<tree>") but does not abort it: the checkers still run with the
  // intraprocedural KB, exactly as if --ipa had been off. The fault hook
  // fires before the snapshot probe and before ComputeSummaries, so an
  // injected failure can never leave the KB with a partial set of
  // registered summaries, and a failed stage stores no snapshot.
  std::vector<FileFailure> tree_failures;
  const auto fail_summaries = [&](const char* what) {
    FileFailure f;
    f.path = "<tree>";
    f.stage = FailureStage::kSummarize;
    f.kind = FailureKind::kInternal;
    f.what = what;
    tree_failures.push_back(std::move(f));
  };
  bool summarize = options_.interprocedural;
  if (summarize) {
    try {
      MaybeFault("ipa.summarize", "<tree>");
    } catch (const std::exception& e) {
      fail_summaries(e.what());
      summarize = false;
    }
  }
  // The .ipa snapshot: the post-summary KB is a pure, jobs-invariant
  // function of (post-discovery KB, ordered healthy units,
  // max_paths_per_function). The .kb key pins the first, each file's unit
  // digest the second, the options fingerprint the third. A hit replaces
  // unit loading, both discovery rounds, the call graph and every summary.
  bool kb_final = false;  // kb_ already is the KB the checkers read
  CacheKey ipa_key;
  if (summarize && ipa_snapshot) {
    TelemetrySpan stage_span("stage.ipa_snapshot");
    ipa_key = ipa_snapshot_key(kb_key);
    if (std::optional<IpaSnapshot> snapshot = cache.LoadIpa(ipa_key)) {
      kb_ = std::move(snapshot->kb);
      m.summarized_functions.Add(snapshot->summarized_functions);
      m.ipa_snapshot_hits.Add(1);
      kb_final = true;
    }
  }
  if (summarize && ipa_snapshot && !kb_final) {
    // A miss walks every healthy unit: load (or parse) the ones stage 1
    // served from facts alone, before discovery, so a file that fails to
    // parse now drops out of discovery as a stage-1 quarantine would.
    const size_t failed_before = count_failed();
    {
      TelemetrySpan stage_span("stage.units");
      ParallelFor(pool, 0, files.size(),
                  [&](size_t i) { RunUnitStage(*files[i], states[i], ctx); });
    }
    if (count_failed() != failed_before) {
      if (parse_breaker_trips()) {
        return result;
      }
      kb_key = kb_snapshot_key();
    }
    ipa_key = ipa_snapshot_key(kb_key);
  }

  // Stage 2: feed the KB (structure parser, API and smartloop discovery).
  // Discovery must see all units before checking so that cross-file APIs (a
  // helper defined in one file, used in another) classify correctly — the
  // paper runs its lexer parsers over the whole kernel first. This is the
  // serial merge barrier: discovery mutates the KB and the second round
  // depends on what the first one found, so parallelising it would change
  // results. It is also cheap next to parsing and checking. Replaying the
  // pre-extracted facts in file order is exactly DiscoverFromUnit in file
  // order (see kb.h), whether the facts came from a parse or the cache.
  if (want_facts && !kb_final) {
    TelemetrySpan stage_span("stage.discover");
    // With the cache on, try the tree-level KB snapshot first. Discovery
    // is purely additive — every Discover* pass only inserts, and every
    // insert is determined by (current KB, facts sequence) — so the
    // post-discovery KB is a pure function of the pre-discovery KB and the
    // ordered facts, which is exactly what the snapshot key hashes. A hit
    // replaces both replay rounds, which otherwise dominate a warm rescan
    // (re-classifying every discovered API from scratch each run).
    bool kb_from_snapshot = false;
    if (use_cache) {
      if (std::optional<KnowledgeBase> snapshot = cache.LoadKb(kb_key)) {
        kb_ = std::move(*snapshot);
        kb_from_snapshot = true;
        m.kb_snapshot_hits.Add(1);
      }
    }
    if (!kb_from_snapshot) {
      ReplayDiscovery(states);
      if (use_cache) {
        cache.StoreKb(kb_key, kb_, "<tree>");
      }
    }
  }
  // Stage 2.5, part two: interprocedural ref-delta summaries (src/ipa).
  // Bottom-up over the call-graph SCCs, parallel within a level;
  // registration into the still-mutable KB is serial in call-graph node
  // order, so the KB the checkers read is identical at every `jobs` value.
  // After this the KB freezes, exactly as without summaries. With the cache
  // on, the result is stored as the .ipa snapshot a later scan of the same
  // units probes for above.
  if (summarize && !kb_final) {
    TelemetrySpan stage_span("stage.summarize");
    try {
      const SummaryResult summaries = SummarizeUnits(states, pool);
      m.summarized_functions.Add(summaries.summaries.size());
      if (ipa_snapshot) {
        cache.StoreIpa(ipa_key, kb_, summaries.summaries.size(), "<tree>");
      }
    } catch (const std::exception& e) {
      fail_summaries(e.what());
    }
  }

  m.discovered_apis.Add(kb_.apis().size());
  m.discovered_smart_loops.Add(kb_.smart_loops().size());
  m.refcounted_structs.Add(kb_.refcounted_structs().size());

  // The KB is frozen from here on. A file's stage-3 shard is a pure
  // function of (file content, the KB's answers to that file's lookups,
  // options), so RunCheckStage keys each shard on the file's own KB slice
  // (FingerprintKbSlice) and a discovery edit re-checks only the files
  // whose answers moved. Without discovery there are no facts to derive a
  // slice from, and the whole-KB fingerprint keys every shard instead.
  const uint64_t kb_fp = use_cache && !want_facts ? FingerprintKnowledgeBase(kb_) : 0;

  // Stage 3: build contexts and run the enabled checkers (parallel — the
  // KB is read-only from here on; KnowledgeBase lookups are const and safe
  // for concurrent readers). Each file gets its own shard; cached shards
  // splice in without parsing or checking.
  const KnowledgeBase& kb = kb_;
  std::vector<FileShard> shards;
  {
    TelemetrySpan stage_span("stage.check");
    shards = executor.Check(files, states, kb, kb_fp, ctx);
  }
  if (!executor.Lost().empty()) {
    return std::nullopt;
  }

  if (const size_t failed = count_failed(); breaker_trips(failed)) {
    result.aborted = true;
    result.abort_reason = StrFormat("%zu of %zu files failed (max_failure_ratio %.2f)", failed,
                                    files.size(), options_.max_failure_ratio);
    m.files.Add(files.size());
    collect_failures();
    finalize_stats();
    return result;
  }

  if (use_cache) {
    for (const FileScanState& st : states) {
      if (st.failure) {
        continue;  // quarantined files are neither hits nor misses
      }
      (st.report_hit ? m.cache_hits : m.cache_misses).Add(1);
      if (!st.parsed) {
        m.cache_parse_skips.Add(1);
      }
    }
    m.cache_corrupt.Add(
        static_cast<uint64_t>(cache.corrupt_loads() + executor.ForeignCorruptLoads()));
  }

  // Merge the shards in file order: the concatenation equals what the old
  // single-threaded loop produced, so DeduplicateReports (whose tie-breaks
  // are first-seen-wins) yields byte-identical output at any thread count.
  TelemetrySpan merge_span("stage.merge");
  std::vector<BugReport> raw;
  m.files.Add(files.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    FileShard& shard = shards[i];
    m.functions.Add(shard.functions);
    raw.insert(raw.end(), std::make_move_iterator(shard.raw.begin()),
               std::make_move_iterator(shard.raw.end()));
    // Function-granular parse casualties, already in source order within the
    // shard; shards are walked in file order, so the merged list is
    // (file, line)-ordered and byte-identical at every jobs/workers value.
    m.functions_degraded.Add(shard.degraded.size());
    for (DegradedFunction& d : shard.degraded) {
      result.degraded_functions.push_back(
          DegradedFunctionReport{files[i]->path(), std::move(d.name), d.line, std::move(d.what)});
    }
  }
  m.raw_reports.Add(raw.size());

  result.reports = DeduplicateReports(std::move(raw));

  // Quarantined files in tree (path) order — states already are — then any
  // whole-tree stage failures.
  collect_failures();
  for (FileFailure& f : tree_failures) {
    m.files_quarantined.Add(1);
    result.failures.push_back(std::move(f));
  }

  // Suppression comments: a `refscan: ignore` marker on the reported line
  // (or the line above it) silences the report — the escape hatch for
  // intentional patterns the checkers cannot see are safe (the paper's
  // maintainer-disputed UAD cases, for example).
  std::erase_if(result.reports, [&tree](const BugReport& r) {
    const SourceFile* file = tree.Find(r.file);
    if (file == nullptr) {
      return false;
    }
    std::vector<uint32_t> probe_lines = {r.line};
    if (r.line > 1) {
      probe_lines.push_back(r.line - 1);  // only when distinct: line 1 has no line above
    }
    for (uint32_t line : probe_lines) {
      if (file->Line(line).find("refscan: ignore") != std::string_view::npos ||
          file->Line(line).find("refscan:ignore") != std::string_view::npos) {
        return true;
      }
    }
    return false;
  });
  m.reports.Add(result.reports.size());
  finalize_stats();
  return result;
}

ScanResult CheckerEngine::ScanFileText(std::string path, std::string text) {
  SourceTree tree;
  tree.Add(std::move(path), std::move(text));
  return Scan(tree);
}

void CheckerEngine::ReplayDiscovery(const std::vector<FileScanState>& states) {
  // Two discovery rounds: the first classifies directly-visible APIs, the
  // second lets wrappers of discovered APIs classify too.
  for (int round = 0; round < 2; ++round) {
    for (const FileScanState& st : states) {
      if (!st.failure) {
        kb_.DiscoverFromFacts(st.facts, options_.nesting_threshold);
      }
    }
  }
}

SummaryResult CheckerEngine::SummarizeUnits(const std::vector<FileScanState>& states,
                                            ThreadPool& pool) {
  std::vector<const TranslationUnit*> unit_ptrs;
  unit_ptrs.reserve(states.size());
  for (const FileScanState& st : states) {
    if (!st.failure) {
      unit_ptrs.push_back(&*st.unit);
    }
  }
  SummaryOptions sopts;
  sopts.max_paths_per_function = options_.max_paths_per_function;
  return ComputeSummaries(unit_ptrs, kb_, sopts, pool);
}

std::string CheckerEngine::Summarize(const SourceTree& tree,
                                     std::string (*render)(const SummaryResult&),
                                     std::vector<FileFailure>* failures) {
  std::vector<const SourceFile*> files;
  files.reserve(tree.size());
  for (const auto& [path, file] : tree.files()) {
    files.push_back(&file);
  }
  // Stage 1 with no cache and every unit resident, as an --ipa scan
  // without a cache runs it.
  ScanCache no_cache(std::shared_ptr<ObjectStore>{});
  ScanStageContext ctx = MakeScanStageContext(options_, no_cache);
  ctx.need_units = true;
  ctx.stream_units = false;
  ThreadPool pool(options_.jobs);
  std::vector<FileScanState> states = ParallelMap(
      pool, files.size(), [&](size_t i) { return RunParseStage(*files[i], ctx); });
  if (failures != nullptr) {
    for (const FileScanState& st : states) {
      if (st.failure) {
        failures->push_back(*st.failure);
      }
    }
  }
  if (ctx.want_facts) {
    ReplayDiscovery(states);
  }
  return render(SummarizeUnits(states, pool));
}

const std::vector<ScanStatsField>& ScanStatsFields() {
  // JSON keys keep their historical names ("quarantined", "retried"); the
  // metric names carry the struct's fuller spelling under the scan. prefix.
  static const auto* fields = new std::vector<ScanStatsField>{
      {"files", "scan.files", &ScanStats::files},
      {"functions", "scan.functions", &ScanStats::functions},
      {"discovered_apis", "scan.discovered_apis", &ScanStats::discovered_apis},
      {"discovered_smart_loops", "scan.discovered_smart_loops",
       &ScanStats::discovered_smart_loops},
      {"refcounted_structs", "scan.refcounted_structs", &ScanStats::refcounted_structs},
      {"summarized_functions", "scan.summarized_functions", &ScanStats::summarized_functions},
      {"quarantined", "scan.files_quarantined", &ScanStats::files_quarantined},
      {"retried", "scan.files_retried", &ScanStats::files_retried},
      {"functions_degraded", "scan.functions_degraded", &ScanStats::functions_degraded},
      {"cache_hits", "scan.cache_hits", &ScanStats::cache_hits},
      {"cache_misses", "scan.cache_misses", &ScanStats::cache_misses},
      {"cache_parse_skips", "scan.cache_parse_skips", &ScanStats::cache_parse_skips},
      {"cache_corrupt", "scan.cache_corrupt", &ScanStats::cache_corrupt},
      {"kb_snapshot_hits", "scan.kb_snapshot_hits", &ScanStats::kb_snapshot_hits},
      {"ipa_snapshot_hits", "scan.ipa_snapshot_hits", &ScanStats::ipa_snapshot_hits},
  };
  return *fields;
}

int ScanExitCodeFor(const ScanResult& result) {
  if (result.aborted) {
    return kExitHardFailure;
  }
  if (!result.failures.empty() || !result.degraded_functions.empty()) {
    return kExitDegraded;
  }
  return result.reports.empty() ? kExitClean : kExitReports;
}

std::string ScanResultToJson(const ScanResult& result, bool include_stats) {
  std::string out = "{\n\"reports\": ";
  std::string reports = ReportsToJson(result.reports);
  if (!reports.empty() && reports.back() == '\n') {
    reports.pop_back();
  }
  out += reports;
  out += ",\n\"degraded\": [";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    const FileFailure& f = result.failures[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"path\": ";
    AppendJsonString(out, f.path);
    out += ", \"stage\": ";
    AppendJsonString(out, FailureStageName(f.stage));
    out += ", \"kind\": ";
    AppendJsonString(out, FailureKindName(f.kind));
    out += ", \"what\": ";
    AppendJsonString(out, f.what);
    out += StrFormat(", \"retries\": %d}", f.retries);
  }
  if (!result.failures.empty()) {
    out += "\n";
  }
  out += "]";
  out += ",\n\"degraded_functions\": [";
  for (size_t i = 0; i < result.degraded_functions.size(); ++i) {
    const DegradedFunctionReport& d = result.degraded_functions[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"file\": ";
    AppendJsonString(out, d.file);
    out += ", \"function\": ";
    AppendJsonString(out, d.function);
    out += StrFormat(", \"line\": %u, \"what\": ", d.line);
    AppendJsonString(out, d.what);
    out += "}";
  }
  if (!result.degraded_functions.empty()) {
    out += "\n";
  }
  out += "]";
  if (result.aborted) {
    out += ",\n\"aborted\": true,\n\"abort_reason\": ";
    AppendJsonString(out, result.abort_reason);
  }
  if (include_stats) {
    // Driven by the field table so every ScanStats member appears — adding
    // a field to the struct without listing it here is impossible.
    out += ",\n\"stats\": {";
    const std::vector<ScanStatsField>& fields = ScanStatsFields();
    for (size_t i = 0; i < fields.size(); ++i) {
      out += StrFormat("%s\"%s\": %zu", i == 0 ? "" : ", ", fields[i].json_key,
                       result.stats.*fields[i].member);
    }
    out += "}";
  }
  out += "\n}\n";
  return out;
}

bool ParsePatternList(std::string_view text, std::set<int>& out) {
  std::set<int> parsed;
  while (!text.empty()) {
    const size_t comma = text.find(',');
    const std::string_view item = text.substr(0, comma);
    int value = 0;
    const auto [ptr, ec] = std::from_chars(item.data(), item.data() + item.size(), value);
    if (ec != std::errc() || ptr != item.data() + item.size() || value < 1 || value > 12) {
      return false;
    }
    parsed.insert(value);
    if (comma == std::string_view::npos) {
      break;
    }
    text.remove_prefix(comma + 1);
  }
  if (parsed.empty()) {
    return false;
  }
  out = std::move(parsed);
  return true;
}

}  // namespace refscan
