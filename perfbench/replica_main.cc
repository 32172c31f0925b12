// bench_replica — the benchmark's traced run: an in-process replay of one
// workload's scan pipeline, with a span around every call into a layer's
// public functions and counters at the same boundaries.
//
//   bench_replica --tree DIR --jobs N --spans-out FILE
//                 [--patterns LIST] [--dialect NAME]... [--ipa]
//                 [--cache-dir DIR | --memory-store]
//                 [--remote SOCKET --daemon-pid PID]
//
// It reads one command per line on stdin:
//
//   scan OUTFILE   load DIR from disk, scan it, write the scan's --json
//                  document to OUTFILE, answer "done" or "error ..." on stdout
//   quit           write every operation's per-layer totals to --spans-out
//
// The replay mirrors CheckerEngine::Scan and the CLI's RunScan step for step
// (stage 1 parse or cache replay, the serial KB discovery barrier, IPA
// summaries, stage 3 check or cache splice, merge, dedup, suppression,
// render), so its output must be byte-identical to `refscan scan --json`
// on the same tree and options; run.py checks that after every operation.
// State that lives across operations lives here too: the --cache-dir
// directory, or one MemoryStore standing in for the `refscan serve`
// daemon's. With --remote, each operation first replays the client side
// (load, RemoteScan round trip to a live daemon, render) and then the
// daemon's scan in-process.
//
// Two layers are measured by a probe: the parser tokenizes inside
// ParseFile and ComputeSummaries builds its call graph itself, so a
// separate Tokenize / BuildCallGraph call is timed next to each one and the
// parser and summary times are reported net of it. Spans are never nested;
// the time between them is what run.py reports as unattributed.
//
// Spans and counters stay in memory (one buffer per thread) and are folded
// into per-operation totals between operations; the file is written at exit.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/ast/parser.h"
#include "src/cache/cache.h"
#include "src/cache/store.h"
#include "src/checkers/engine.h"
#include "src/checkers/scan_stages.h"
#include "src/ipa/callgraph.h"
#include "src/ipa/summary.h"
#include "src/lexer/lexer.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/support/fs.h"
#include "src/support/threadpool.h"

namespace {

using namespace refscan;

// ---------------------------------------------------------------- spans

enum Layer : uint8_t {
  kFsLoad,
  kLexer,
  kAst,  // whole ParseFile; reported net of the lexer probe
  kKbSeed,
  kKbExtract,
  kKbReplay,
  kCfg,
  kCpg,
  kP1, kP2, kP3, kP4, kP5, kP6, kP7, kP8, kP9, kP10, kP11, kP12,
  kIpaCallgraph,
  kIpaSummaries,  // whole ComputeSummaries; reported net of the call-graph probe
  kCacheLoad,
  kCacheStore,
  kCacheFingerprint,
  kReportRender,
  kServeRequest,
  kNumLayers,
};

constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "fs.load",         "lexer.tokenize",   "ast.parse",       "kb.seed",
    "kb.extract",      "kb.replay",        "cfg.build",       "cpg.build",
    "checkers.P1",     "checkers.P2",      "checkers.P3",     "checkers.P4",
    "checkers.P5",     "checkers.P6",      "checkers.P7",     "checkers.P8",
    "checkers.P9",     "checkers.P10",     "checkers.P11",    "checkers.P12",
    "ipa.callgraph",   "ipa.summaries",    "cache.load",      "cache.store",
    "cache.fingerprint", "report.render",  "serve.request",
};

enum Count : uint8_t {
  kFsFiles,
  kFsBytes,
  kLexerTokens,
  kAstParses,
  kAstFunctions,
  kAstDegraded,
  kCfgBlocks,
  kCpgEvents,
  kRawReports,
  kNumCounts,
};

constexpr std::array<const char*, kNumCounts> kCountNames = {
    "fs.files",      "fs.bytes",      "lexer.tokens", "ast.parses",           "ast.functions",
    "ast.degraded_functions", "cfg.blocks", "cpg.events", "checkers.raw_reports",
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRec {
  Layer layer;
  int64_t start;
  int64_t end;
};

struct ThreadLog {
  std::vector<SpanRec> spans;
  std::array<int64_t, kNumCounts> counts{};
};

// Owns every thread's buffer: pool threads die with their ThreadPool at
// the end of each scan, their logs must not.
class Recorder {
 public:
  ThreadLog& Local() {
    thread_local std::shared_ptr<ThreadLog> log;
    if (log == nullptr) {
      log = std::make_shared<ThreadLog>();
      const std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(log);
    }
    return *log;
  }

  // Moves every buffered span and counter out and forgets the buffers of
  // threads that have exited. Call only while no span is open.
  void Drain(std::vector<SpanRec>& spans, std::array<int64_t, kNumCounts>& counts) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<ThreadLog>& log : logs_) {
      spans.insert(spans.end(), log->spans.begin(), log->spans.end());
      log->spans.clear();
      for (size_t i = 0; i < kNumCounts; ++i) {
        counts[i] += log->counts[i];
      }
      log->counts.fill(0);
    }
    std::erase_if(logs_,
                  [](const std::shared_ptr<ThreadLog>& log) { return log.use_count() == 1; });
  }

 private:
  std::mutex mu_;
  std::vector<std::shared_ptr<ThreadLog>> logs_;
};

Recorder& Rec() {
  static Recorder* recorder = new Recorder;
  return *recorder;
}

class Span {
 public:
  explicit Span(Layer layer) : layer_(layer), start_(NowNs()) {}
  ~Span() { Rec().Local().spans.push_back(SpanRec{layer_, start_, NowNs()}); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  int64_t start_;
};

void Add(Count count, int64_t n) { Rec().Local().counts[count] += n; }

// Drops whatever a failed operation left in the buffers.
void DiscardSpans() {
  std::vector<SpanRec> spans;
  std::array<int64_t, kNumCounts> counts{};
  Rec().Drain(spans, counts);
}

// Runs `fn` under a span and returns whatever it returns.
template <typename Fn>
auto Timed(Layer layer, Fn&& fn) {
  Span span(layer);
  return fn();
}

// ---------------------------------------------------------------- replay

struct Config {
  std::string tree_dir;
  std::string spans_out;
  ScanOptions options;  // the CLI's options; object_store set for --memory-store
  std::string remote;
  int daemon_pid = 0;
};

// Everything one file accumulates, as in scan_stages.h's FileScanState
// (the replay never quarantines: any throw fails the whole operation).
struct FileState {
  CacheKey key;
  DiscoveryFacts facts;
  std::optional<TranslationUnit> unit;
  bool parsed = false;
  bool report_hit = false;
};

struct FileOut {
  std::vector<BugReport> raw;
  std::vector<DegradedFunction> degraded;
};

struct OpTotals {
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_parse_skips = 0;
  int64_t kb_snapshot_hits = 0;
  int64_t discovered_apis = 0;
  int64_t summarized_functions = 0;
  int64_t reports = 0;
};

TranslationUnit ParseTraced(const SourceFile& file, const ParseOptions& popts) {
  Timed(kLexer, [&] { Add(kLexerTokens, static_cast<int64_t>(Tokenize(file).size())); });
  TranslationUnit unit = Timed(kAst, [&] { return ParseFile(file, popts); });
  Add(kAstParses, 1);
  Add(kAstFunctions, static_cast<int64_t>(unit.functions.size()));
  Add(kAstDegraded, static_cast<int64_t>(unit.degraded.size()));
  return unit;
}

// Stage 1 for one file (RunParseStage's body).
FileState ParseStage(const SourceFile& f, const ScanStageContext& ctx) {
  ScanCache& cache = *ctx.cache;
  FileState st;
  if (ctx.use_cache) {
    st.key = Timed(kCacheLoad, [&] { return MakeFileKey(f.path(), f.text(), ctx.options_fp); });
    if (!ctx.need_units) {
      if (!ctx.want_facts) {
        return st;
      }
      if (std::optional<DiscoveryFacts> facts =
              Timed(kCacheLoad, [&] { return cache.LoadFacts(st.key); })) {
        st.facts = std::move(*facts);
        return st;
      }
    } else if (std::optional<TranslationUnit> unit =
                   Timed(kCacheLoad, [&] { return cache.LoadUnit(st.key); })) {
      st.unit = std::move(*unit);
      if (ctx.want_facts) {
        st.facts = Timed(kKbExtract, [&] { return ExtractDiscoveryFacts(*st.unit); });
      }
      return st;
    }
  }
  st.unit = ParseTraced(f, ctx.popts);
  st.parsed = true;
  if (ctx.want_facts) {
    st.facts = Timed(kKbExtract, [&] { return ExtractDiscoveryFacts(*st.unit); });
  }
  if (ctx.use_cache) {
    Span span(kCacheStore);
    cache.StoreUnit(st.key, *st.unit, f.path());
    if (ctx.want_facts) {
      cache.StoreFacts(st.key, st.facts, f.path());
    }
  }
  if (ctx.stream_units) {
    st.unit.reset();
  }
  return st;
}

// Stage 3 for one file (RunCheckStage's body plus CheckOneFile, with
// BuildUnitContext unrolled so CFG and CPG construction get their own spans).
FileOut CheckStage(const SourceFile& file, FileState& st, const KnowledgeBase& kb, uint64_t kb_fp,
                   const ScanStageContext& ctx) {
  const ScanOptions& options = *ctx.options;
  ScanCache& cache = *ctx.cache;
  FileOut out;
  if (ctx.use_cache) {
    if (std::optional<CachedFileReports> cached =
            Timed(kCacheLoad, [&] { return cache.LoadReports(st.key, kb_fp); })) {
      st.report_hit = true;
      out.raw = std::move(cached->reports);
      out.degraded = std::move(cached->degraded);
      return out;
    }
  }
  TranslationUnit unit;
  if (st.unit.has_value()) {
    unit = std::move(*st.unit);
    st.unit.reset();
  } else {
    unit = ParseTraced(file, ctx.popts);
    st.parsed = true;
  }
  out.degraded = std::move(unit.degraded);

  UnitContext uc;
  uc.file = &file;
  uc.unit = std::move(unit);
  for (const FunctionDef& fn : uc.unit.functions) {
    FunctionContext fc;
    fc.unit = &uc.unit;
    fc.fn = &fn;
    fc.cfg = Timed(kCfg, [&] { return std::make_unique<Cfg>(BuildCfg(fn)); });
    fc.cpg = Timed(kCpg, [&] { return std::make_unique<Cpg>(BuildCpg(*fc.cfg, kb)); });
    Add(kCfgBlocks, static_cast<int64_t>(fc.cfg->size()));
    int64_t events = 0;
    for (size_t n = 0; n < fc.cpg->size(); ++n) {
      events += static_cast<int64_t>(fc.cpg->events(static_cast<int>(n)).size());
    }
    Add(kCpgEvents, events);
    uc.functions.push_back(std::move(fc));
  }

  const auto& enabled = options.enabled_patterns;
  std::vector<BugReport>& raw = out.raw;
  for (const FunctionContext& fc : uc.functions) {
    if (enabled.contains(1)) Timed(kP1, [&] { CheckReturnError(uc, fc, kb, options, raw); });
    if (enabled.contains(2)) Timed(kP2, [&] { CheckReturnNull(uc, fc, kb, options, raw); });
    if (enabled.contains(3)) Timed(kP3, [&] { CheckSmartLoopBreak(uc, fc, kb, options, raw); });
    if (enabled.contains(4)) Timed(kP4, [&] { CheckHiddenApi(uc, fc, kb, options, raw); });
    if (enabled.contains(5)) Timed(kP5, [&] { CheckErrorHandle(uc, fc, kb, options, raw); });
    if (enabled.contains(7)) Timed(kP7, [&] { CheckDirectFree(uc, fc, kb, options, raw); });
    if (enabled.contains(8)) Timed(kP8, [&] { CheckUseAfterDecrease(uc, fc, kb, options, raw); });
    if (enabled.contains(9)) Timed(kP9, [&] { CheckReferenceEscape(uc, fc, kb, options, raw); });
    if (enabled.contains(10)) Timed(kP10, [&] { CheckRawManipulation(uc, fc, kb, options, raw); });
    if (enabled.contains(11)) Timed(kP11, [&] { CheckTestAndFree(uc, fc, kb, options, raw); });
    if (enabled.contains(12)) Timed(kP12, [&] { CheckRefcountReset(uc, fc, kb, options, raw); });
  }
  if (enabled.contains(6)) Timed(kP6, [&] { CheckInterUnpaired(uc, kb, options, raw); });

  if (ctx.use_cache) {
    Span span(kCacheStore);
    CachedFileReports entry;
    entry.reports = out.raw;
    entry.functions = uc.functions.size();
    entry.degraded = out.degraded;
    cache.StoreReports(st.key, kb_fp, entry, file.path());
  }
  return out;
}

// CheckerEngine::Scan, minus fault arming, sandboxes and the breaker.
ScanResult ReplayScan(const SourceTree& tree, const ScanOptions& options, OpTotals& totals) {
  std::vector<const SourceFile*> files;
  files.reserve(tree.size());
  for (const auto& [path, file] : tree.files()) {
    files.push_back(&file);
  }
  ThreadPool pool(options.jobs);
  ScanCache cache(MakeScanStore(options));
  const ScanStageContext ctx = MakeScanStageContext(options, cache);

  KnowledgeBase kb = Timed(kKbSeed, [&] {
    KnowledgeBase seed = KnowledgeBase::BuiltIn();
    for (const std::string& dialect : options.dialects) {
      ApplyDialect(seed, dialect);
    }
    return seed;
  });

  std::vector<FileState> states =
      ParallelMap(pool, files.size(), [&](size_t i) { return ParseStage(*files[i], ctx); });

  if (ctx.want_facts) {
    bool from_snapshot = false;
    CacheKey kb_key;
    if (ctx.use_cache) {
      std::optional<KnowledgeBase> snapshot = Timed(kCacheLoad, [&] {
        std::vector<const DiscoveryFacts*> all_facts;
        all_facts.reserve(states.size());
        for (const FileState& st : states) {
          all_facts.push_back(&st.facts);
        }
        kb_key = MakeKbSnapshotKey(FingerprintKnowledgeBase(kb), options.nesting_threshold,
                                   all_facts, ctx.options_fp);
        return cache.LoadKb(kb_key);
      });
      if (snapshot) {
        kb = std::move(*snapshot);
        from_snapshot = true;
        ++totals.kb_snapshot_hits;
      }
    }
    if (!from_snapshot) {
      Timed(kKbReplay, [&] {
        for (int round = 0; round < 2; ++round) {
          for (const FileState& st : states) {
            kb.DiscoverFromFacts(st.facts, options.nesting_threshold);
          }
        }
      });
      if (ctx.use_cache) {
        Timed(kCacheStore, [&] { cache.StoreKb(kb_key, kb, "<tree>"); });
      }
    }
  }

  if (options.interprocedural) {
    std::vector<const TranslationUnit*> unit_ptrs;
    unit_ptrs.reserve(states.size());
    for (const FileState& st : states) {
      unit_ptrs.push_back(&*st.unit);
    }
    Timed(kIpaCallgraph, [&] { return BuildCallGraph(unit_ptrs).nodes.size(); });
    SummaryOptions sopts;
    sopts.max_paths_per_function = options.max_paths_per_function;
    const SummaryResult summaries =
        Timed(kIpaSummaries, [&] { return ComputeSummaries(unit_ptrs, kb, sopts, pool); });
    totals.summarized_functions += static_cast<int64_t>(summaries.summaries.size());
  }
  totals.discovered_apis += static_cast<int64_t>(kb.apis().size());

  const uint64_t kb_fp =
      ctx.use_cache ? Timed(kCacheFingerprint, [&] { return FingerprintKnowledgeBase(kb); }) : 0;

  std::vector<FileOut> outs = ParallelMap(pool, files.size(), [&](size_t i) {
    return CheckStage(*files[i], states[i], kb, kb_fp, ctx);
  });

  if (ctx.use_cache) {
    for (const FileState& st : states) {
      ++(st.report_hit ? totals.cache_hits : totals.cache_misses);
      totals.cache_parse_skips += st.parsed ? 0 : 1;
    }
  }

  Span render(kReportRender);
  ScanResult result;
  std::vector<BugReport> raw;
  for (size_t i = 0; i < outs.size(); ++i) {
    raw.insert(raw.end(), std::make_move_iterator(outs[i].raw.begin()),
               std::make_move_iterator(outs[i].raw.end()));
    for (DegradedFunction& d : outs[i].degraded) {
      result.degraded_functions.push_back(
          DegradedFunctionReport{files[i]->path(), std::move(d.name), d.line, std::move(d.what)});
    }
  }
  Add(kRawReports, static_cast<int64_t>(raw.size()));
  result.reports = DeduplicateReports(std::move(raw));
  // `refscan: ignore` suppression, exactly as the engine applies it.
  std::erase_if(result.reports, [&tree](const BugReport& r) {
    const SourceFile* file = tree.Find(r.file);
    if (file == nullptr) {
      return false;
    }
    std::vector<uint32_t> probe_lines = {r.line};
    if (r.line > 1) {
      probe_lines.push_back(r.line - 1);
    }
    for (const uint32_t line : probe_lines) {
      if (file->Line(line).find("refscan: ignore") != std::string_view::npos ||
          file->Line(line).find("refscan:ignore") != std::string_view::npos) {
        return true;
      }
    }
    return false;
  });
  totals.reports += static_cast<int64_t>(result.reports.size());
  return result;
}

SourceTree LoadTraced(const Config& config) {
  Span span(kFsLoad);
  LoadOptions load_options;
  load_options.jobs = config.options.jobs;
  std::vector<LoadFailure> failures;
  SourceTree tree = LoadSourceTreeFromDisk(config.tree_dir, load_options, &failures);
  if (!failures.empty()) {
    throw std::runtime_error("load failure: " + failures.front().path + ": " +
                             failures.front().what);
  }
  Add(kFsFiles, static_cast<int64_t>(tree.size()));
  int64_t bytes = 0;
  for (const auto& [path, file] : tree.files()) {
    bytes += static_cast<int64_t>(file.text().size());
  }
  Add(kFsBytes, bytes);
  return tree;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

// utime + stime of another process, in seconds (/proc/PID/stat fields 14-15).
double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const size_t close = text.rfind(')');
  if (close == std::string::npos) {
    return 0;
  }
  std::vector<std::string> fields;
  size_t pos = close + 2;
  while (pos < text.size() && fields.size() < 13) {
    const size_t space = text.find(' ', pos);
    fields.push_back(text.substr(pos, space - pos));
    pos = space == std::string::npos ? text.size() : space + 1;
  }
  if (fields.size() < 13) {
    return 0;
  }
  const double ticks =
      std::strtod(fields[11].c_str(), nullptr) + std::strtod(fields[12].c_str(), nullptr);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// One operation's folded spans and counters.
struct OpRecord {
  double wall_s = 0;
  double client_wall_s = 0;  // the part a `refscan scan` client process does
  double covered_s = 0;      // union of all span intervals, across threads
  std::array<double, kNumLayers> layer_s{};
  std::array<int64_t, kNumCounts> counts{};
  OpTotals totals;
  double daemon_cpu_s = 0;
  int64_t bytes_sent = 0;
};

OpRecord Fold(int64_t start, int64_t end, const OpTotals& totals) {
  OpRecord rec;
  std::vector<SpanRec> spans;
  Rec().Drain(spans, rec.counts);
  rec.wall_s = static_cast<double>(end - start) * 1e-9;
  rec.totals = totals;
  for (const SpanRec& s : spans) {
    rec.layer_s[s.layer] += static_cast<double>(s.end - s.start) * 1e-9;
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRec& a, const SpanRec& b) { return a.start < b.start; });
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = -1;
  for (const SpanRec& s : spans) {
    if (s.start > run_end) {
      covered += run_end >= run_start ? run_end - run_start : 0;
      run_start = s.start;
      run_end = s.end;
    } else {
      run_end = std::max(run_end, s.end);
    }
  }
  covered += run_end >= run_start ? run_end - run_start : 0;
  rec.covered_s = static_cast<double>(covered) * 1e-9;
  return rec;
}

// One `scan OUTFILE` command. Returns "" on success, else the error.
std::string RunOp(const Config& config, const std::string& out_path, std::vector<OpRecord>& ops) {
  OpTotals totals;
  const int64_t start = NowNs();
  const SourceTree tree = LoadTraced(config);
  std::string remote_json;
  double daemon_cpu = 0;
  int64_t client_ns = 0;
  if (!config.remote.empty()) {
    // Client side of `refscan scan --remote`: the options as the CLI sends
    // them (no store; the daemon brings its own).
    ScanOptions client_options = config.options;
    client_options.object_store = nullptr;
    const double cpu0 = ProcessCpuSeconds(config.daemon_pid);
    std::optional<ScanResult> remote = Timed(kServeRequest, [&] {
      std::string note;
      return RemoteScan(tree, client_options, config.remote, {}, &note);
    });
    daemon_cpu = ProcessCpuSeconds(config.daemon_pid) - cpu0;
    if (!remote) {
      return "remote scan failed";
    }
    remote_json = Timed(kReportRender, [&] { return ScanResultToJson(*remote); });
    client_ns = NowNs() - start;
  }
  const ScanResult result = ReplayScan(tree, config.options, totals);
  const std::string json = Timed(kReportRender, [&] { return ScanResultToJson(result); });
  const int64_t end = NowNs();
  OpRecord rec = Fold(start, end, totals);
  rec.client_wall_s = config.remote.empty() ? rec.wall_s : static_cast<double>(client_ns) * 1e-9;
  rec.daemon_cpu_s = daemon_cpu;
  if (!config.remote.empty()) {
    ScanOptions client_options = config.options;
    client_options.object_store = nullptr;
    rec.bytes_sent = static_cast<int64_t>(EncodeScanRequest(tree, client_options).size());
  }
  ops.push_back(rec);
  if (!WriteText(out_path, json)) {
    return "cannot write " + out_path;
  }
  if (!config.remote.empty() && remote_json != json) {
    return "daemon result differs from the in-process replay";
  }
  return "";
}

std::string OpsToJson(const std::vector<OpRecord>& ops) {
  std::string out = "{\"ops\": [";
  char buf[96];
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = ops[i];
    out += i == 0 ? "\n" : ",\n";
    std::snprintf(buf, sizeof(buf), "{\"wall_s\": %.9f, \"client_wall_s\": %.9f", r.wall_s,
                  r.client_wall_s);
    out += buf;
    std::snprintf(buf, sizeof(buf), ", \"covered_s\": %.9f, \"daemon_cpu_s\": %.6f", r.covered_s,
                  r.daemon_cpu_s);
    out += buf;
    out += ", \"layers\": {";
    for (size_t l = 0; l < kNumLayers; ++l) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9f", l == 0 ? "" : ", ", kLayerNames[l],
                    r.layer_s[l]);
      out += buf;
    }
    out += "}, \"counts\": {";
    for (size_t c = 0; c < kNumCounts; ++c) {
      out += (c == 0 ? "\"" : ", \"") + std::string(kCountNames[c]) +
             "\": " + std::to_string(r.counts[c]);
    }
    const OpTotals& t = r.totals;
    out += ", \"cache.hits\": " + std::to_string(t.cache_hits) +
           ", \"cache.misses\": " + std::to_string(t.cache_misses) +
           ", \"cache.parse_skips\": " + std::to_string(t.cache_parse_skips) +
           ", \"cache.kb_snapshot_hits\": " + std::to_string(t.kb_snapshot_hits) +
           ", \"kb.discovered_apis\": " + std::to_string(t.discovered_apis) +
           ", \"ipa.summarized_functions\": " + std::to_string(t.summarized_functions) +
           ", \"checkers.reports\": " + std::to_string(t.reports) +
           ", \"serve.bytes_sent\": " + std::to_string(r.bytes_sent) + "}}";
  }
  out += "\n]}\n";
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_replica --tree DIR --jobs N --spans-out FILE [--patterns LIST]\n"
               "                     [--dialect NAME]... [--ipa] [--cache-dir DIR | "
               "--memory-store]\n"
               "                     [--remote SOCKET --daemon-pid PID]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool memory_store = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (arg == "--tree") {
      config.tree_dir = value();
    } else if (arg == "--spans-out") {
      config.spans_out = value();
    } else if (arg == "--jobs") {
      config.options.jobs = std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg == "--patterns") {
      if (!ParsePatternList(value(), config.options.enabled_patterns)) {
        return Usage();
      }
    } else if (arg == "--dialect") {
      config.options.dialects.push_back(value());
    } else if (arg == "--ipa") {
      config.options.interprocedural = true;
    } else if (arg == "--cache-dir") {
      config.options.cache_dir = value();
    } else if (arg == "--memory-store") {
      memory_store = true;
    } else if (arg == "--remote") {
      config.remote = value();
    } else if (arg == "--daemon-pid") {
      config.daemon_pid = std::atoi(value().c_str());
    } else {
      return Usage();
    }
  }
  if (config.tree_dir.empty() || config.spans_out.empty()) {
    return Usage();
  }
  if (memory_store) {
    config.options.object_store = std::make_shared<MemoryStore>();
  }

  std::vector<OpRecord> ops;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit") {
      if (!WriteText(config.spans_out, OpsToJson(ops))) {
        std::fprintf(stderr, "bench_replica: cannot write %s\n", config.spans_out.c_str());
        return 1;
      }
      return 0;
    }
    if (line.rfind("scan ", 0) != 0) {
      std::printf("error unknown command\n");
      std::fflush(stdout);
      continue;
    }
    const size_t recorded = ops.size();
    std::string error;
    try {
      error = RunOp(config, line.substr(5), ops);
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!error.empty() && ops.size() == recorded) {
      DiscardSpans();
    }
    std::printf("%s\n", error.empty() ? "done" : ("error " + error).c_str());
    std::fflush(stdout);
  }
  return 1;  // stdin closed without quit
}
