#include "src/checkers/scan_stages.h"

#include <chrono>
#include <thread>

#include "src/cache/store.h"
#include "src/support/faultinject.h"
#include "src/support/governor.h"
#include "src/support/strings.h"
#include "src/support/telemetry.h"

namespace refscan {

namespace {

// Runs every enabled checker over one file's contexts, appending raw
// reports to the shard. The caller owns the shard exclusively; the KB is
// immutable and read concurrently.
FileShard CheckOneFile(const SourceFile& file, TranslationUnit unit, const KnowledgeBase& kb,
                       const ScanOptions& options) {
  FileShard shard;
  // Quarantined function bodies ride along with the shard (and, via
  // StoreReports, with the cache entry): parsing is deterministic, so the
  // list is identical whichever process or scan produced the unit.
  shard.degraded = std::move(unit.degraded);
  const UnitContext uc = BuildUnitContext(file, std::move(unit), kb);
  shard.functions = uc.functions.size();

  const auto& enabled = options.enabled_patterns;
  for (const FunctionContext& fc : uc.functions) {
    CheckDeadline("checker");
    if (enabled.contains(1)) {
      CheckReturnError(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(2)) {
      CheckReturnNull(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(3)) {
      CheckSmartLoopBreak(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(4)) {
      CheckHiddenApi(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(5)) {
      CheckErrorHandle(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(7)) {
      CheckDirectFree(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(8)) {
      CheckUseAfterDecrease(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(9)) {
      CheckReferenceEscape(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(10)) {
      CheckRawManipulation(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(11)) {
      CheckTestAndFree(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(12)) {
      CheckRefcountReset(uc, fc, kb, options, shard.raw);
    }
  }
  if (enabled.contains(6)) {
    CheckInterUnpaired(uc, kb, options, shard.raw);
  }
  return shard;
}

// Maps an injected fault to the failure taxonomy by its site prefix.
FailureKind ClassifyFault(const FaultInjected& e) {
  if (e.transient_io()) {
    return FailureKind::kIo;
  }
  const std::string& site = e.site();
  if (site.rfind("fs.", 0) == 0) {
    return FailureKind::kIo;
  }
  if (site.rfind("cache.", 0) == 0) {
    return FailureKind::kCache;
  }
  if (site.rfind("parser.", 0) == 0) {
    return FailureKind::kParse;
  }
  return FailureKind::kInternal;
}

// Runs one file's pipeline stage inside its sandbox: a fresh ScopedDeadline
// per attempt, one bounded-backoff retry for transient I/O failures (only
// while `retry_allowed` — the stage-3 body clears it once it has consumed
// the cached TranslationUnit), and exception → FileFailure classification.
// Returns false when the file is quarantined (`failure` is filled in); the
// caller must then discard the file's partial state.
template <typename Fn>
bool GuardFileStage(std::string_view path, FailureStage stage, uint32_t timeout_ms,
                    const bool& retry_allowed, Fn&& body, std::optional<FileFailure>& failure,
                    bool& retried) {
  FileFailure f;
  f.path = std::string(path);
  f.stage = stage;
  for (int attempt = 0;; ++attempt) {
    try {
      ScopedDeadline deadline(timeout_ms);
      body();
      return true;
    } catch (const FaultInjected& e) {
      if (e.transient_io() && retry_allowed && attempt == 0) {
        retried = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      f.kind = ClassifyFault(e);
      f.what = e.what();
    } catch (const ResourceLimitError& e) {
      f.kind = FailureKind::kResourceLimit;
      f.what = e.what();
    } catch (const std::exception& e) {
      f.kind = FailureKind::kInternal;
      f.what = e.what();
    } catch (...) {
      f.kind = FailureKind::kInternal;
      f.what = "unknown exception";
    }
    f.retries = retried ? 1 : 0;
    failure = std::move(f);
    return false;
  }
}

}  // namespace

std::shared_ptr<ObjectStore> MakeScanStore(const ScanOptions& options) {
  if (options.object_store != nullptr) {
    return options.object_store;  // resident injection wins over any location
  }
  if (options.cache_dir.empty()) {
    return nullptr;
  }
  auto local = std::make_shared<LocalStore>(options.cache_dir);
  if (!local->ok()) {
    return nullptr;  // degrade to a disabled cache rather than failing the scan
  }
  return local;
}

void WriteScanJob(ByteWriter& w, const ScanOptions& options,
                  const std::vector<const SourceFile*>& files) {
  WriteScanOptionsWire(w, options);
  w.U32(static_cast<uint32_t>(files.size()));
  for (const SourceFile* file : files) {
    w.Str(file->path());
    w.Str(file->text());
  }
}

bool ReadScanJob(std::string_view payload, ScanOptions& options, SourceTree& tree) {
  ByteReader r(payload);
  if (!ReadScanOptionsWire(r, options)) {
    return false;
  }
  const uint32_t nfiles = r.Count();
  for (uint32_t i = 0; r.ok() && i < nfiles; ++i) {
    std::string path = r.Str();
    std::string text = r.Str();
    if (r.ok()) {
      tree.Add(std::move(path), std::move(text));
    }
  }
  return r.ok() && r.AtEnd();
}

ScanStageContext MakeScanStageContext(const ScanOptions& options, ScanCache& cache) {
  ScanStageContext ctx;
  ctx.options = &options;
  ctx.cache = &cache;
  ctx.use_cache = cache.enabled();
  ctx.options_fp = ctx.use_cache ? ScanOptionsFingerprint(options) : 0;
  ctx.want_facts = options.discover_from_source;
  // Streaming never survives interprocedural mode: stage 2.5 needs every
  // AST resident at once, which is exactly what streaming forbids.
  ctx.stream_units = options.streaming && !options.interprocedural;
  ctx.need_units = (!ctx.use_cache || options.interprocedural) && !ctx.stream_units;
  // Parser caps from the governor options. max_ast_depth replaces the
  // silent flatten-at-200 with a hard (quarantining) cap.
  if (options.max_ast_depth > 0) {
    ctx.popts.max_depth = options.max_ast_depth;
    ctx.popts.depth_fatal = true;
  }
  ctx.popts.max_nodes = options.max_ast_nodes;
  return ctx;
}

FileScanState RunParseStage(const SourceFile& f, const ScanStageContext& ctx) {
  const ScanOptions& options = *ctx.options;
  ScanCache& cache = *ctx.cache;
  FileScanState st;
  // One event per file whatever happens inside (cache replay, parse,
  // retries): the guard's attempt loop runs within this span.
  TelemetrySpan file_span("file.parse", f.path());
  const bool stage_retry_ok = true;  // stage 1 work is idempotent, retry freely
  const bool ok = GuardFileStage(
      f.path(), FailureStage::kParse, options.file_timeout_ms, stage_retry_ok,
      [&] {
        st.key = CacheKey{};
        st.facts = DiscoveryFacts{};
        st.unit_digest = Hash128{};
        st.unit.reset();
        st.parsed = false;
        if (options.max_file_bytes > 0 && f.text().size() > options.max_file_bytes) {
          throw ResourceLimitError(
              StrFormat("input size %zu exceeds cap %zu", f.text().size(), options.max_file_bytes));
        }
        if (ctx.use_cache) {
          st.key = MakeFileKey(f.path(), f.text(), ctx.options_fp);
          if (!ctx.need_units) {
            if (!ctx.want_facts) {
              return;  // discovery off: nothing is needed before stage 3
            }
            if (std::optional<DiscoveryFacts> facts = cache.LoadFacts(st.key, &st.unit_digest)) {
              st.facts = std::move(*facts);
              return;
            }
          } else if (std::optional<TranslationUnit> unit = cache.LoadUnit(st.key)) {
            st.unit = std::move(*unit);
            if (ctx.want_facts) {
              st.facts = ExtractDiscoveryFacts(*st.unit);
            }
            return;
          }
        }
        st.unit = ParseFile(f, ctx.popts);
        st.parsed = true;
        if (ctx.want_facts) {
          st.facts = ExtractDiscoveryFacts(*st.unit);
        }
        if (ctx.use_cache) {
          st.unit_digest = cache.StoreUnit(st.key, *st.unit, f.path());
          if (ctx.want_facts) {
            cache.StoreFacts(st.key, st.facts, f.path(), st.unit_digest);
          }
        }
        if (ctx.stream_units) {
          // Streaming lifecycle: the facts are extracted (and the cache
          // fed), so the AST has served stage 1's purpose. Drop it here —
          // stage 3 re-parses just-in-time — and whole-tree peak RSS stays
          // bounded by `jobs` concurrent units instead of the tree size.
          st.unit.reset();
        }
      },
      st.failure, st.retried);
  if (!ok) {
    // Discard partial state so the KB replay and stage 3 see a file that
    // simply is not there — this is what makes the healthy-subset
    // byte-identity guarantee hold.
    st.facts = DiscoveryFacts{};
    st.unit_digest = Hash128{};
    st.unit.reset();
    st.parsed = false;
  }
  return st;
}

void RunUnitStage(const SourceFile& f, FileScanState& st, const ScanStageContext& ctx) {
  if (st.failure || st.unit.has_value()) {
    return;
  }
  ScanCache& cache = *ctx.cache;
  TelemetrySpan file_span("file.unit", f.path());
  const bool stage_retry_ok = true;  // loading or parsing again is idempotent
  const bool ok = GuardFileStage(
      f.path(), FailureStage::kParse, ctx.options->file_timeout_ms, stage_retry_ok,
      [&] {
        st.unit.reset();
        if (std::optional<TranslationUnit> unit = cache.LoadUnit(st.key)) {
          st.unit = std::move(*unit);
          return;
        }
        st.unit = ParseFile(f, ctx.popts);
        st.parsed = true;
        st.unit_digest = cache.StoreUnit(st.key, *st.unit, f.path());
      },
      st.failure, st.retried);
  if (!ok) {
    st.facts = DiscoveryFacts{};
    st.unit_digest = Hash128{};
    st.unit.reset();
    st.parsed = false;
  }
}

FileShard RunCheckStage(const SourceFile& file, FileScanState& st, const KnowledgeBase& kb,
                        uint64_t kb_fp, const ScanStageContext& ctx) {
  const ScanOptions& options = *ctx.options;
  ScanCache& cache = *ctx.cache;
  FileShard shard;
  if (st.failure) {
    return shard;  // quarantined in stage 1: empty shard, nothing to check
  }
  // One event per non-quarantined file, covering splice and cold check
  // alike (the nested cache.load span distinguishes them in a trace).
  TelemetrySpan file_span("file.check", file.path());
  // Retrying is only safe until the body moves the cached TranslationUnit
  // into CheckOneFile — after that a retry would re-check a moved-from
  // unit and silently produce wrong output, so the body revokes it.
  bool retry_ok = true;
  const bool ok = GuardFileStage(
      file.path(), FailureStage::kCheck, options.file_timeout_ms, retry_ok,
      [&] {
        shard = FileShard{};
        // With facts, the shard is keyed on the file's own KB slice, so a
        // discovery edit elsewhere only misses here if it moved an answer
        // this file can observe; without them, on the whole KB.
        const uint64_t shard_fp =
            ctx.use_cache && ctx.want_facts ? FingerprintKbSlice(kb, st.facts) : kb_fp;
        if (ctx.use_cache) {
          if (std::optional<CachedFileReports> cached = cache.LoadReports(st.key, shard_fp)) {
            st.report_hit = true;
            shard.raw = std::move(cached->reports);
            shard.functions = static_cast<size_t>(cached->functions);
            shard.degraded = std::move(cached->degraded);
            return;
          }
        }
        MaybeFault("checker.run", file.path());
        TranslationUnit unit;
        if (st.unit.has_value()) {
          retry_ok = false;
          unit = std::move(*st.unit);
          st.unit.reset();
        } else {
          // Facts were cached but this file's reports were invalidated
          // (another file moved an answer in its KB slice): re-parse just
          // this file, in-memory.
          unit = ParseFile(file, ctx.popts);
          st.parsed = true;
        }
        shard = CheckOneFile(file, std::move(unit), kb, options);
        if (ctx.use_cache) {
          CachedFileReports entry;
          entry.reports = shard.raw;
          entry.functions = shard.functions;
          entry.degraded = shard.degraded;
          cache.StoreReports(st.key, shard_fp, entry, file.path());
        }
      },
      st.failure, st.retried);
  if (!ok) {
    shard = FileShard{};  // discard any partial shard
  }
  return shard;
}

}  // namespace refscan
