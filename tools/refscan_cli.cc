// refscan — command-line front end.
//
//   refscan scan <dir> [--fix] [--no-discovery] [--jobs N] [--cache-dir DIR]
//                                                 scan a C tree on disk
//   refscan match <dir> "<template>" [--jobs N]   run a custom semantic template
//   refscan dump <file.c> [tokens|ast|cfg|cpg]    inspect front-end stages
//   refscan deviations <dir> [--jobs N]           find deviant refcounting APIs
//   refscan summaries <dir> [--json] [--jobs N] [--dialect NAME]...
//                                                 interprocedural ref-delta summaries
//   refscan stats <dir> [--json] [--jobs N]       scan and print only the stats table
//   refscan demo [--jobs N] [--emit <dir>]        scan the built-in synthetic kernel corpus
//
// The ScanOptions flags (--jobs, --patterns, --cache-dir, ...) and their
// usage text come from ScanOptionFields() (src/checkers/engine.h).
//
// Exit codes are disjoint (ScanExitCode, DESIGN.md §5.9): 0 = clean scan,
// 10 = completed healthy with >= 1 report, 2 = completed degraded (some
// files quarantined — see the `## Degraded files` section / `degraded`
// JSON field; takes precedence over reports), 1 = hard failure (aborted
// scan, no sources, internal error), 64 = usage error (bad flags).
// `refscan stats` maps 10 back to 0 — reports are not what it asks about.
//
// Observability (src/support/telemetry.h): `--trace-out FILE` writes a
// Chrome trace-event JSON of the run (stage + per-file spans; load it in
// chrome://tracing or https://ui.perfetto.dev); `--metrics-out FILE`
// writes the run's counters in Prometheus text exposition format.

#include <csignal>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <atomic>
#include <thread>

#include "src/cache/store.h"
#include "src/checkers/engine.h"
#include "src/checkers/sharded.h"
#include "src/ipa/summary.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/serve.h"
#include "src/serve/watch.h"
#include "src/support/threadpool.h"
#include "src/checkers/fixes.h"
#include "src/checkers/template_matcher.h"
#include "src/checkers/templates.h"
#include "src/ast/parser.h"
#include "src/corpus/generator.h"
#include "src/cpg/dump.h"
#include "src/kb/deviations.h"
#include "src/support/faultinject.h"
#include "src/support/fs.h"
#include "src/support/strings.h"
#include "src/support/telemetry.h"

namespace {

// One usage entry: the flag's spelling, then its help lines in a column.
void PrintFlagHelp(const std::string& spelling, std::string_view help) {
  bool first = true;
  for (const std::string_view line : refscan::Split(help, '\n')) {
    std::fprintf(stderr, "  %-24s %.*s\n", first ? spelling.c_str() : "",
                 static_cast<int>(line.size()), line.data());
    first = false;
  }
}

// The CLI's own flags; the ScanOptions flags come from ScanOptionFields().
constexpr std::pair<const char*, const char*> kCliFlagHelp[] = {
    {"--no-cache", "ignore any --cache-dir (cold scan)"},
    {"--workers N",
     "shard stages 1 and 3 across N worker processes (0 = in-\n"
     "process, the default; --ipa scans run in-process)"},
    {"--kernelish N",
     "(demo) append N kernel-realism modules per subsystem,\n"
     "each with a deliberately unparseable function"},
    {"--remote SOCKET",
     "scan on a `refscan serve` daemon; an unreachable one\n"
     "falls back to scanning locally (same output)"},
    {"--stats", "print fault-isolation and cache counters (text and JSON)"},
    {"--trace-out FILE", "write a Chrome trace-event JSON of the run (ui.perfetto.dev)"},
    {"--metrics-out FILE", "write the run's counters in Prometheus text format"},
};

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  refscan scan <dir> [--fix] [--json] [FLAG]...   scan a C tree (flags below)\n"
               "  refscan match <dir> \"<template>\" [--jobs N]   e.g. \"F_start -> S_P(p0) "
               "-> S_D(p0) -> F_end\"\n"
               "  refscan dump <file.c> [tokens|ast|cfg|cpg]\n"
               "  refscan deviations <dir> [--jobs N]\n"
               "  refscan summaries <dir> [--json] [--jobs N] [--dialect NAME]...\n"
               "  refscan stats <dir> [--json] [--jobs N]   scan, print only the stats table\n"
               "  refscan demo [--jobs N] [--emit <dir>] [--kernelish N]\n"
               "  refscan serve <socket> [--watch TREE] [--sessions N] [--max-pending N]\n"
               "                [--request-timeout-ms N] [--drain-timeout-ms N] [--poll-ms N]\n"
               "                [--jobs N]                  resident scan service: keeps the\n"
               "                                            artifact store warm and answers\n"
               "                                            scan/stats/summaries/health\n"
               "                                            requests, each on at most --jobs\n"
               "                                            threads; SIGTERM drains\n"
               "  refscan health <socket> [--stats]         ping a serve daemon (--stats\n"
               "                                            prints its counters JSON)\n"
               "  refscan cache gc <dir> --max-bytes N      evict LRU cache objects over N\n"
               "  refscan worker --socket PATH --id N       (internal) shard worker process\n"
               "\n");
  for (const refscan::ScanOptionField& f : refscan::ScanOptionFields()) {
    if (f.flag != nullptr) {
      const std::string alias = f.alias != nullptr ? std::string("/") + f.alias : "";
      const std::string value = f.value_name != nullptr ? std::string(" ") + f.value_name : "";
      PrintFlagHelp(f.flag + alias + value, f.help);
    }
  }
  for (const auto& [spelling, help] : kCliFlagHelp) {
    PrintFlagHelp(spelling, help);
  }
  std::fprintf(stderr, "\nexit codes: 0 clean, 10 reports found, 2 degraded, 1 hard failure, "
                       "64 usage\n");
  return refscan::kExitUsage;
}

// Parses a count flag's value (no sign, junk or overflow — the rule every
// numeric flag shares), at most `ceiling`; says why and returns false on bad
// text.
template <typename T>
bool ParseCountFlag(std::string_view flag, const char* text, T& out,
                    uint64_t ceiling = std::numeric_limits<uint64_t>::max()) {
  const uint64_t max = std::min<uint64_t>(ceiling, std::numeric_limits<T>::max());
  uint64_t value = 0;
  if (!refscan::ParseUnsigned(text, max, value)) {
    std::fprintf(stderr, "bad %.*s value '%s': expected an unsigned integer no greater than %llu\n",
                 static_cast<int>(flag.size()), flag.data(), text,
                 static_cast<unsigned long long>(max));
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

// Shared flag state across the subcommands.
struct CliFlags {
  // The CLI's --jobs default is 0 (all hardware threads), not the struct's 1.
  CliFlags() { options.jobs = 0; }

  refscan::ScanOptions options;  // written by the ScanOptionFields flags
  bool print_fixes = false;
  bool json = false;
  std::string emit_dir;
  size_t workers = 0;   // 0 = in-process scan
  std::string remote;   // serve daemon socket; empty = scan locally
  int kernelish = 0;    // demo: kernel-realism modules per subsystem
  bool no_cache = false;
  bool stats = false;
  std::string trace_out;
  std::string metrics_out;
  bool stats_only = false;  // `refscan stats`: suppress the report listing
};

// Parses flags from argv[first..); returns false on an unknown flag or a
// missing/garbled flag argument. A ScanOptionFields flag writes straight
// into flags.options; --no-cache then clears the cache locations, wherever
// it appeared.
bool ParseFlags(int argc, char** argv, int first, CliFlags& flags) {
  using refscan::ScanOptions;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const refscan::ScanOptionField* field = refscan::FindScanOptionFlag(arg);
    if (field != nullptr && field->parse == nullptr) {
      // A switch: the opposite of the member's default.
      bool ScanOptions::*member = std::get<bool ScanOptions::*>(field->member);
      flags.options.*member = !(ScanOptions{}.*member);
      continue;
    }
    if (arg == "--fix" || arg == "--json" || arg == "--no-cache" || arg == "--stats") {
      bool& on = arg == "--fix"        ? flags.print_fixes
                 : arg == "--json"     ? flags.json
                 : arg == "--no-cache" ? flags.no_cache
                                       : flags.stats;
      on = true;
      continue;
    }
    std::string* text = arg == "--emit"          ? &flags.emit_dir
                         : arg == "--remote"      ? &flags.remote
                         : arg == "--trace-out"   ? &flags.trace_out
                         : arg == "--metrics-out" ? &flags.metrics_out
                                                  : nullptr;
    if (field == nullptr && text == nullptr && arg != "--workers" && arg != "--kernelish") {
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", argv[i]);
      return false;
    }
    const char* value = argv[++i];
    std::string error;
    if (field != nullptr) {
      if (!field->parse(*field, value, flags.options, error)) {
        std::fprintf(stderr, "bad %s value '%s': %s\n", argv[i - 1], value, error.c_str());
        return false;
      }
    } else if (text != nullptr) {
      *text = value;
    } else if (arg == "--workers"
                   ? !ParseCountFlag(arg, value, flags.workers, refscan::kMaxParallelism)
                   : !ParseCountFlag(arg, value, flags.kernelish)) {
      return false;
    }
  }
  if (flags.no_cache) {
    refscan::ClearScanLocations(flags.options);
  }
  return true;
}

// Converts the tree loader's structured failures into quarantine entries
// (stage "load"), merges them with the engine's, and keeps the whole list
// deterministically ordered: by path, with whole-tree entries ("<tree>")
// last.
std::vector<refscan::FileFailure> MergeFailures(
    const std::vector<refscan::LoadFailure>& load_failures,
    std::vector<refscan::FileFailure> engine_failures) {
  using namespace refscan;
  std::vector<FileFailure> all;
  all.reserve(load_failures.size() + engine_failures.size());
  for (const LoadFailure& lf : load_failures) {
    FileFailure f;
    f.path = lf.path;
    f.stage = FailureStage::kLoad;
    f.kind = FailureKind::kIo;
    f.what = lf.what;
    f.retries = lf.retries;
    all.push_back(std::move(f));
  }
  for (FileFailure& f : engine_failures) {
    all.push_back(std::move(f));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const FileFailure& a, const FileFailure& b) {
                     const bool a_tree = a.path == "<tree>";
                     const bool b_tree = b.path == "<tree>";
                     if (a_tree != b_tree) {
                       return b_tree;  // whole-tree entries sort last
                     }
                     return a.path < b.path;
                   });
  return all;
}

int RunScan(const refscan::SourceTree& tree, const CliFlags& flags,
            const std::vector<refscan::LoadFailure>& load_failures = {},
            const refscan::LoadStats& load_stats = {}) {
  using namespace refscan;
  // --faults is armed process-wide before the tree load; only the worker
  // processes of a sharded scan need it in their options.
  ScanOptions options = flags.options;
  options.fault_spec.clear();

  size_t workers = flags.workers;
  if (workers > 0 && options.interprocedural) {
    // The engine runs stage 2.5 scans in-process whatever the executor.
    std::fprintf(stderr, "refscan: --workers is incompatible with --interprocedural; "
                         "running in-process\n");
  }
  ScanResult result;
  bool have_result = false;
  if (!flags.remote.empty()) {
    if (workers > 0) {
      std::fprintf(stderr, "refscan: --workers is ignored with --remote (the server picks "
                           "its own parallelism from --jobs)\n");
      workers = 0;
    }
    std::string note;
    if (std::optional<ScanResult> remote = RemoteScan(tree, options, flags.remote, {}, &note)) {
      result = std::move(*remote);
      have_result = true;
    } else {
      // Unreachable after the whole backoff budget: the local fallback
      // produces byte-identical stdout, so availability costs time, never
      // output.
      std::fprintf(stderr, "refscan: serve daemon unreachable (%s); scanning locally\n",
                   note.c_str());
    }
  }
  if (have_result) {
    // remote result already in hand
  } else if (workers > 0) {
    // The worker subprocesses re-exec this binary; they inherit
    // REFSCAN_FAULTS from the environment, and a --faults spec travels in
    // the options so worker-side sites fire either way.
    ShardedScanConfig config;
    config.workers = workers;
    config.worker_cmd = "/proc/self/exe";
    result = ShardedScan(tree, flags.options, config);
  } else {
    CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
    result = engine.Scan(tree);
  }

  result.failures = MergeFailures(load_failures, std::move(result.failures));
  result.stats.files_quarantined += load_failures.size();
  // Loader retry accounting comes from LoadStats, not from counting retries
  // in the failure list: a retried-then-SUCCEEDED read produces no
  // LoadFailure, so the old count_if undercounted. Same semantics as the
  // engine's files_retried — retried != degraded, only quarantined files
  // appear in the degraded list.
  result.stats.files_retried += load_stats.files_retried;

  if (result.aborted) {
    std::fprintf(stderr, "scan aborted: %s\n", result.abort_reason.c_str());
    if (flags.json) {
      std::printf("%s", ScanResultToJson(result, flags.stats).c_str());
    }
    return kExitHardFailure;
  }

  const int exit_code = ScanExitCodeFor(result);

  const bool cache_on = !options.cache_dir.empty();
  if (flags.json) {
    if (cache_on) {
      // Keep stdout byte-identical between cold and warm scans: cache
      // accounting goes to stderr in JSON mode.
      std::fprintf(stderr, "cache: %zu hit(s), %zu miss(es), %zu parse skip(s)\n",
                   result.stats.cache_hits, result.stats.cache_misses,
                   result.stats.cache_parse_skips);
    }
    std::printf("%s", ScanResultToJson(result, flags.stats).c_str());
    return exit_code;
  }

  std::printf("scanned %zu files, %zu functions (%zu refcounting APIs known, "
              "%zu smartloops)\n\n",
              result.stats.files, result.stats.functions, result.stats.discovered_apis,
              result.stats.discovered_smart_loops);
  if (cache_on) {
    std::printf("cache: %zu hit(s), %zu miss(es), %zu parse skip(s)\n\n",
                result.stats.cache_hits, result.stats.cache_misses,
                result.stats.cache_parse_skips);
  }

  if (!flags.stats_only) {
    for (const BugReport& r : result.reports) {
      std::printf("%s:%u: [P%d %s/%s] %s\n", r.file.c_str(), r.line, r.anti_pattern,
                  std::string(AntiPatternName(r.anti_pattern)).c_str(),
                  std::string(ImpactName(r.impact)).c_str(), r.message.c_str());
      std::printf("    function: %s   template: %s\n", r.function.c_str(),
                  r.template_path.c_str());
      if (flags.print_fixes) {
        const SourceFile* file = tree.Find(r.file);
        if (file != nullptr) {
          const FixSuggestion fix = SuggestFix(r, *file);
          if (fix.available) {
            std::printf("    suggested patch: %s\n%s", fix.summary.c_str(), fix.diff.c_str());
          } else {
            std::printf("    (no mechanical fix: %s)\n", fix.summary.c_str());
          }
        }
      }
      std::printf("\n");
    }
  }
  std::printf("%zu report(s).\n", result.reports.size());

  if (!result.failures.empty()) {
    std::printf("\n## Degraded files\n\n");
    for (const FileFailure& f : result.failures) {
      std::printf("%s: %s failure (%s): %s", f.path.c_str(),
                  std::string(FailureStageName(f.stage)).c_str(),
                  std::string(FailureKindName(f.kind)).c_str(), f.what.c_str());
      if (f.retries > 0) {
        std::printf(" [after %d retry]", f.retries);
      }
      std::printf("\n");
    }
    std::printf("\n%zu file(s) quarantined; the reports above cover the healthy remainder.\n",
                result.failures.size());
  }

  if (!result.degraded_functions.empty()) {
    std::printf("\n## Degraded functions\n\n");
    for (const DegradedFunctionReport& d : result.degraded_functions) {
      std::printf("%s:%u: %s(): %s\n", d.file.c_str(), d.line, d.function.c_str(),
                  d.what.c_str());
    }
    std::printf("\n%zu function(s) quarantined; sibling functions in the same files were "
                "scanned normally.\n",
                result.degraded_functions.size());
  }

  if (flags.stats) {
    // Driven by the same field table as the JSON stats object, so the text
    // view can never silently miss a ScanStats field either.
    std::printf("\nstats:\n");
    for (const ScanStatsField& f : ScanStatsFields()) {
      std::printf("  %-22s %zu\n", f.json_key, result.stats.*f.member);
    }
  }
  return exit_code;
}

// Writes `text` to `path` (for --trace-out / --metrics-out).
bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
  return true;
}

// Writes every corpus file under `dir` so an on-disk `refscan scan` (or any
// external tool) can chew on the synthetic tree. Returns false on I/O error.
bool EmitTree(const refscan::SourceTree& tree, const std::string& dir) {
  namespace stdfs = std::filesystem;
  std::error_code ec;
  for (const auto& [path, file] : tree.files()) {
    const stdfs::path target = stdfs::path(dir) / path;
    stdfs::create_directories(target.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", target.parent_path().c_str(),
                   ec.message().c_str());
      return false;
    }
    std::FILE* out = std::fopen(target.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", target.c_str());
      return false;
    }
    const std::string_view text = file.text();
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }
  std::printf("emitted %zu files under %s\n", tree.size(), dir.c_str());
  return true;
}

int RealMain(int argc, char** argv) {
  using namespace refscan;

  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];

  if (command == "demo") {
    CliFlags flags;
    if (!ParseFlags(argc, argv, 2, flags)) {
      return Usage();
    }
    std::printf("generating the synthetic kernel corpus and scanning it...\n\n");
    CorpusOptions corpus_options;
    corpus_options.kernelish_modules = flags.kernelish;
    const Corpus corpus = GenerateKernelCorpus(corpus_options);
    if (!flags.emit_dir.empty() && !EmitTree(corpus.tree, flags.emit_dir)) {
      return kExitHardFailure;
    }
    // The corpus is a bug corpus — finding reports is the expected outcome,
    // so only a degraded or failed scan is an error here. The kernelish
    // extension plants deliberately unparseable functions, so with it a
    // degraded (function-quarantine) exit is the expected outcome too.
    const int rc = RunScan(corpus.tree, flags);
    if (rc == kExitHardFailure) {
      return 1;
    }
    return (rc == kExitDegraded && flags.kernelish == 0) ? 1 : 0;
  }

  if (command == "worker") {
    // Internal: spawned by `scan --workers N`. Not part of the documented
    // surface, but inert if invoked by hand (it just waits for a
    // coordinator that never comes, then errors out).
    std::string socket;
    int id = 0;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
        socket = argv[++i];
      } else if (std::strcmp(argv[i], "--id") == 0 && i + 1 < argc) {
        if (!ParseCountFlag(argv[i], argv[i + 1], id)) {
          return Usage();
        }
        ++i;
      } else {
        return Usage();
      }
    }
    if (socket.empty()) {
      return Usage();
    }
    return RunShardWorker(socket, id);
  }

  if (command == "serve") {
    if (argc < 3) {
      return Usage();
    }
    ServeConfig config;
    config.socket_path = argv[2];
    std::string watch_dir;
    uint32_t poll_ms = 500;
    for (int i = 3; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (i + 1 >= argc) {
        return Usage();
      }
      const char* value = argv[++i];
      const auto count = [&](auto& out) { return ParseCountFlag(arg, value, out); };
      const auto threads = [&](size_t& out) {
        return ParseCountFlag(arg, value, out, kMaxParallelism);
      };
      if (arg == "--watch") {
        watch_dir = value;
      } else if (!(arg == "--sessions"             ? threads(config.sessions)
                   : arg == "--max-pending"        ? threads(config.max_pending)
                   : arg == "--request-timeout-ms" ? count(config.request_timeout_ms)
                   : arg == "--drain-timeout-ms"   ? count(config.drain_timeout_ms)
                   : arg == "--poll-ms"            ? count(poll_ms)
                   : (arg == "--jobs" || arg == "-j") && threads(config.jobs))) {
        return Usage();
      }
    }
    // Block the shutdown signals BEFORE Start() spawns any thread: every
    // thread inherits the mask, so sigwait on the main thread is the one
    // consumer and SIGTERM can never hit a worker thread's default action.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
    ScanServer server(config);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "refscan serve: %s\n", error.c_str());
      return kExitHardFailure;
    }
    std::printf("refscan serve: listening on %s\n", config.socket_path.c_str());
    std::fflush(stdout);
    std::atomic<bool> watch_stop{false};
    std::thread watch_thread;
    if (!watch_dir.empty()) {
      WatchConfig watch;
      watch.tree_dir = watch_dir;
      watch.poll_ms = poll_ms;
      ScanOptions watch_options;
      watch_options.jobs = config.jobs;
      watch_thread = std::thread([watch, watch_options, &server, &watch_stop] {
        RunWatchLoop(watch, watch_options, server.store(), watch_stop, stdout);
      });
    }
    int sig = 0;
    sigwait(&set, &sig);
    watch_stop.store(true, std::memory_order_relaxed);
    if (watch_thread.joinable()) {
      watch_thread.join();
    }
    const bool clean = server.Drain();
    const ScanServer::Counters c = server.counters();
    std::printf("refscan serve: drained%s; %llu request(s), %llu scan(s), %llu shed, "
                "%llu faulted, %llu timed out\n",
                clean ? "" : " (escalated)", static_cast<unsigned long long>(c.requests),
                static_cast<unsigned long long>(c.scans), static_cast<unsigned long long>(c.shed),
                static_cast<unsigned long long>(c.faulted),
                static_cast<unsigned long long>(c.timed_out));
    return clean ? 0 : kExitHardFailure;
  }

  if (command == "health") {
    if (argc < 3) {
      return Usage();
    }
    bool want_stats = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--stats") == 0) {
        want_stats = true;
      } else {
        return Usage();
      }
    }
    std::string reply;
    std::string error;
    const uint8_t type = want_stats ? kServeStatsReq : kServeHealthReq;
    if (!RemoteRequestText(argv[2], type, "", reply, &error)) {
      std::fprintf(stderr, "refscan health: %s\n", error.c_str());
      return kExitHardFailure;
    }
    std::printf("%s%s", reply.c_str(), reply.ends_with('\n') ? "" : "\n");
    return 0;
  }

  if (command == "cache") {
    if (argc < 4 || std::strcmp(argv[2], "gc") != 0) {
      return Usage();
    }
    const std::string dir = argv[3];
    uint64_t max_bytes = 0;
    bool have_max = false;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--max-bytes") == 0 && i + 1 < argc) {
        if (!ParseCountFlag(argv[i], argv[i + 1], max_bytes)) {
          return Usage();
        }
        ++i;
        have_max = true;
      } else {
        return Usage();
      }
    }
    if (!have_max) {
      std::fprintf(stderr, "cache gc needs --max-bytes N\n");
      return Usage();
    }
    const CacheGcStats gc = RunCacheGc(dir, max_bytes);
    std::printf("cache gc: kept %llu object(s) / %llu bytes, evicted %llu object(s) / "
                "%llu bytes\n",
                static_cast<unsigned long long>(gc.kept_objects),
                static_cast<unsigned long long>(gc.kept_bytes),
                static_cast<unsigned long long>(gc.evicted_objects),
                static_cast<unsigned long long>(gc.evicted_bytes));
    return 0;
  }

  if (command == "match") {
    if (argc < 4) {
      return Usage();
    }
    CliFlags flags;
    if (!ParseFlags(argc, argv, 4, flags)) {
      return Usage();
    }
    const auto tmpl = ParseTemplate(argv[3]);
    if (!tmpl.has_value()) {
      std::fprintf(stderr, "cannot parse template: %s\n", argv[3]);
      return kExitUsage;
    }
    LoadOptions load_options;
    load_options.jobs = flags.options.jobs;
    const SourceTree tree = LoadSourceTreeFromDisk(argv[2], load_options);
    if (tree.size() == 0) {
      std::fprintf(stderr, "no C sources found under %s\n", argv[2]);
      return kExitHardFailure;
    }
    ScanOptions options;
    options.jobs = flags.options.jobs;
    const auto reports = RunTemplateChecker(*tmpl, tree, KnowledgeBase::BuiltIn(), options);
    for (const BugReport& r : reports) {
      std::printf("%s:%u: [template] %s in %s() (object '%s')\n", r.file.c_str(), r.line,
                  r.template_path.c_str(), r.function.c_str(), r.object.c_str());
    }
    std::printf("%zu match(es).\n", reports.size());
    return reports.empty() ? kExitClean : kExitReports;
  }

  if (command == "dump") {
    if (argc < 3) {
      return Usage();
    }
    std::FILE* f = std::fopen(argv[2], "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return kExitHardFailure;
    }
    std::string text;
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(f);
    const SourceFile file(argv[2], std::move(text));
    const std::string stage = argc > 3 ? argv[3] : "cpg";
    if (stage == "tokens") {
      std::printf("%s", DumpTokens(file).c_str());
      return 0;
    }
    const TranslationUnit unit = ParseFile(file);
    if (stage == "ast") {
      std::printf("%s", DumpAst(unit).c_str());
      return 0;
    }
    KnowledgeBase kb = KnowledgeBase::BuiltIn();
    kb.DiscoverFromUnit(unit);
    kb.DiscoverFromUnit(unit);
    for (const FunctionDef& fn : unit.functions) {
      const Cfg cfg = BuildCfg(fn);
      if (stage == "cfg") {
        std::printf("%s\n", DumpCfg(cfg).c_str());
        continue;
      }
      const Cpg cpg = BuildCpg(cfg, kb);
      std::printf("== %s ==\n%s\n", fn.name.c_str(), DumpCpg(cpg).c_str());
    }
    return 0;
  }

  if (command == "summaries") {
    if (argc < 3) {
      return Usage();
    }
    CliFlags flags;
    if (!ParseFlags(argc, argv, 3, flags)) {
      return Usage();
    }
    std::vector<std::string> errors;
    LoadOptions load_options;
    load_options.jobs = flags.options.jobs;
    const SourceTree tree = LoadSourceTreeFromDisk(argv[2], load_options, &errors);
    for (const std::string& error : errors) {
      std::fprintf(stderr, "warning: %s\n", error.c_str());
    }
    if (tree.size() == 0) {
      std::fprintf(stderr, "no C sources found under %s\n", argv[2]);
      return kExitHardFailure;
    }
    // Same front half as an --ipa scan (dialects, discovery, path cap),
    // then dump the summaries.
    CheckerEngine engine(KnowledgeBase::BuiltIn(), flags.options);
    std::vector<FileFailure> failures;
    const std::string out =
        engine.Summarize(tree, flags.json ? SummariesToJson : SummariesToText, &failures);
    for (const FileFailure& f : failures) {
      std::fprintf(stderr, "warning: %s: %s\n", f.path.c_str(), f.what.c_str());
    }
    std::printf("%s", out.c_str());
    return 0;
  }

  if (command == "scan" || command == "deviations" || command == "stats") {
    if (argc < 3) {
      return Usage();
    }
    CliFlags flags;
    if (!ParseFlags(argc, argv, 3, flags)) {
      return Usage();
    }
    if (command == "stats") {
      flags.stats = true;
      flags.stats_only = true;
    }
    // Arm --faults process-wide before the tree load so fs.read rules fire
    // during it (ScanOptions::fault_spec would only cover the engine). A
    // malformed spec on the command line is a usage error (the env-var
    // variant stays a hard failure: nothing was typed to correct).
    if (!flags.options.fault_spec.empty()) {
      FaultPlan plan;
      std::string fault_error;
      if (!ParseFaultSpec(flags.options.fault_spec, plan, &fault_error)) {
        std::fprintf(stderr, "bad --faults spec: %s\n", fault_error.c_str());
        return kExitUsage;
      }
      ArmFaults(std::move(plan));
    }
    // Arm a telemetry session around the whole run (load + scan) when any
    // export was requested, and disarm before writing: no span can still be
    // in flight when the buffers are read.
    Telemetry session;
    std::optional<ScopedTelemetry> telemetry_arm;
    if (!flags.trace_out.empty() || !flags.metrics_out.empty()) {
      telemetry_arm.emplace(session);
    }
    std::vector<LoadFailure> load_failures;
    LoadStats load_stats;
    LoadOptions load_options;
    load_options.jobs = flags.options.jobs;
    const SourceTree tree =
        LoadSourceTreeFromDisk(argv[2], load_options, &load_failures, &load_stats);
    for (const LoadFailure& f : load_failures) {
      std::fprintf(stderr, "warning: %s: %s\n", f.path.c_str(), f.what.c_str());
    }
    if (tree.size() == 0) {
      std::fprintf(stderr, "no C sources found under %s\n", argv[2]);
      return kExitHardFailure;
    }
    if (command == "deviations") {
      const auto reports = DetectDeviations(tree, KnowledgeBase::BuiltIn(), flags.options.jobs);
      for (const DeviationReport& r : reports) {
        std::printf("%s:%u: [%s%s] %s\n", r.file.c_str(), r.line,
                    std::string(DeviationKindName(r.kind)).c_str(), r.hidden ? ", hidden" : "",
                    r.note.c_str());
      }
      std::printf("%zu deviant API(s).\n", reports.size());
      return reports.empty() ? kExitClean : kExitReports;
    }
    int rc = RunScan(tree, flags, load_failures, load_stats);
    telemetry_arm.reset();
    if (!flags.trace_out.empty() && !WriteTextFile(flags.trace_out, session.TraceToChromeJson())) {
      return kExitHardFailure;
    }
    if (!flags.metrics_out.empty() &&
        !WriteTextFile(flags.metrics_out, session.MetricsToPrometheusText())) {
      return kExitHardFailure;
    }
    if (command == "stats" && rc == kExitReports) {
      rc = kExitClean;  // reports are not what `stats` asks about
    }
    return rc;
  }

  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  // REFSCAN_FAULTS arms the fault-injection registry for the whole run (the
  // CI fault-matrix uses this). A malformed spec fails loudly: silently
  // running un-faulted would make injection-based jobs pass vacuously.
  std::string fault_error;
  if (!refscan::ArmFaultsFromEnv(&fault_error)) {
    std::fprintf(stderr, "refscan: bad REFSCAN_FAULTS: %s\n", fault_error.c_str());
    return 1;
  }
  try {
    return RealMain(argc, argv);
  } catch (const std::exception& e) {
    // Last-resort barrier: per-file sandboxes should have contained
    // anything recoverable, so whatever reaches here is a hard failure.
    std::fprintf(stderr, "refscan: fatal: %s\n", e.what());
    return 1;
  }
}
