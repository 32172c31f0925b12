// Per-file pipeline stage bodies and the executor seam that fans them out.
//
// CheckerEngine::Scan is the only scan orchestrator: it alone runs KB
// discovery (stage 2), interprocedural summaries (stage 2.5), the circuit
// breaker, the file-ordered merge, dedup, suppression and the stats. The
// two per-file stages — stage 1 (RunParseStage: parse / cache replay) and
// stage 3 (RunCheckStage: check / report splice) — it runs through a
// ScanStageExecutor, which decides only *where* those bodies execute: the
// engine's own thread pool by default, or the `--workers` process fleet
// (src/checkers/sharded), whose workers call the very same two functions.
// A file's FileScanState and FileShard therefore cannot depend on which
// process computed them, because only one implementation exists, and
// everything order-sensitive happens once, in the engine.
//
// Each stage body runs inside the DESIGN.md §5.9 sandbox: a fresh deadline
// per attempt, one transient-I/O retry while idempotent, and exception →
// FileFailure quarantine that resets the file's partial state.

#ifndef REFSCAN_CHECKERS_SCAN_STAGES_H_
#define REFSCAN_CHECKERS_SCAN_STAGES_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ast/parser.h"
#include "src/cache/cache.h"
#include "src/cache/serial.h"
#include "src/checkers/engine.h"

namespace refscan {

// Stage-3 output for one file: the raw (pre-dedup) report shard in checker
// emission order, the file's function count, and any function bodies the
// parser quarantined (DESIGN.md §5.15), in source order.
struct FileShard {
  std::vector<BugReport> raw;
  size_t functions = 0;
  std::vector<DegradedFunction> degraded;
};

// Everything one file accumulates on its way through the pipeline.
struct FileScanState {
  CacheKey key;
  DiscoveryFacts facts;
  std::optional<TranslationUnit> unit;
  bool parsed = false;      // ParseFile ran for this file during this scan
  bool report_hit = false;  // stage-3 shard spliced from the cache
  bool retried = false;     // a transient-I/O retry was consumed (any stage)
  std::optional<FileFailure> failure;  // set = quarantined, skip later stages
};

// Builds the object store the options ask for: the injected object_store
// when set (the resident server's shared MemoryStore), else a RemoteStore
// client when cache_server is set (takes precedence over cache_dir), a
// LocalStore for cache_dir, null (disabled cache) otherwise. A local
// directory that cannot be created degrades to null, matching ScanCache's
// historical behaviour.
std::shared_ptr<ObjectStore> MakeScanStore(const ScanOptions& options);

// ---- ScanOptions on the wire (ByteWriter/ByteReader format) -----------
//
// Shared by the shard-worker kJob frame (src/checkers/sharded) and the
// serve kScanReq frame (src/serve/protocol): a remote process must behave
// exactly like the in-process stages would under the same options, so every
// value field travels — including the governor caps and the fault spec; the
// double rides as its bit pattern (memcpy, not a cast: the value must
// survive exactly). `object_store` is deliberately NOT on the wire: it is a
// live pointer into the sending process, and each side of a socket supplies
// its own store.
void WriteScanOptionsWire(ByteWriter& w, const ScanOptions& options);
bool ReadScanOptionsWire(ByteReader& r, ScanOptions& options);

// Derived per-scan constants shared by every file's stage bodies.
struct ScanStageContext {
  const ScanOptions* options = nullptr;
  ScanCache* cache = nullptr;
  bool use_cache = false;
  uint64_t options_fp = 0;
  bool want_facts = false;  // discovery enabled: stage 1 must yield facts
  // Whether stage 1 must materialise a TranslationUnit for every file. With
  // no cache, stage 3 consumes the units; in interprocedural mode, stage
  // 2.5 walks them. With the cache and neither, a file whose facts (and
  // later, reports) hit can go through the whole scan without ever being
  // parsed — the incremental fast path.
  bool need_units = false;
  // Streaming unit lifecycle (ScanOptions::streaming, DESIGN.md §5.15):
  // stage 1 still parses where it must (facts, cache fill) but drops the
  // unit before returning, and stage 3 re-parses just-in-time, so at most
  // `jobs` ASTs coexist. Forced off by interprocedural mode (stage 2.5
  // walks every unit at once).
  bool stream_units = false;
  ParseOptions popts;
};
ScanStageContext MakeScanStageContext(const ScanOptions& options, ScanCache& cache);

// Stage 1 for one file: obtain its discovery facts — and unit where needed.
// Cache hits replay the stored facts/unit instead of parsing; misses parse,
// extract, and populate the cache for the next scan. A quarantined file
// comes back with `failure` set and all partial state discarded, so the KB
// replay and stage 3 see a file that simply is not there.
FileScanState RunParseStage(const SourceFile& file, const ScanStageContext& ctx);

// Stage 3 for one file: splice the cached report shard when the KB
// fingerprint proves it valid, otherwise build contexts and run the enabled
// checkers. A file quarantined earlier returns an empty shard untouched;
// a stage-3 quarantine sets `st.failure` and returns an empty shard.
FileShard RunCheckStage(const SourceFile& file, FileScanState& st, const KnowledgeBase& kb,
                        uint64_t kb_fp, const ScanStageContext& ctx);

// Where stages 1 and 3 run for one scan. `files` is the tree in path order
// and index i is file i's slot in `states` and in the returned shards, so
// merge order never depends on who did the work. The engine picks the
// executor, not the user: interprocedural scans and rescans after a lost
// worker always use the in-process one.
class ScanStageExecutor {
 public:
  // A file whose result died with the process holding it.
  struct LostFile {
    size_t index = 0;
    std::string why;  // becomes the quarantine record's `what`
  };

  ScanStageExecutor() = default;
  ScanStageExecutor(const ScanStageExecutor&) = delete;
  ScanStageExecutor& operator=(const ScanStageExecutor&) = delete;
  virtual ~ScanStageExecutor() = default;

  // Stage 1 for every file whose state is not already quarantined.
  virtual void Parse(const std::vector<const SourceFile*>& files,
                     std::vector<FileScanState>& states, const ScanStageContext& ctx) = 0;

  // Stage 3 for every file against the frozen KB (kb_fp as in
  // RunCheckStage); updates each state's failure and cache flags.
  virtual std::vector<FileShard> Check(const std::vector<const SourceFile*>& files,
                                       std::vector<FileScanState>& states,
                                       const KnowledgeBase& kb, uint64_t kb_fp,
                                       const ScanStageContext& ctx) = 0;

  // Files lost so far. Non-empty after either stage means the engine drops
  // this executor's output, quarantines these files and rescans the rest
  // in-process, so the result equals a scan of the survivors.
  virtual std::vector<LostFile> Lost() const { return {}; }

  // Cache objects that failed validation in other processes; the engine's
  // own ScanCache counts the loads made in this one.
  virtual size_t ForeignCorruptLoads() const { return 0; }
};

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_SCAN_STAGES_H_
