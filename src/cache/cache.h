// Persistent content-addressed incremental scan cache (DESIGN.md §5.8).
//
// The steady-state workload of a per-commit scanning service is "the same
// tree with a small diff". The cache turns that from O(tree) into O(diff)
// by storing, per source file, three artifacts in a ccache/Bazel-style
// object store under <dir>/objects/:
//
//   <key>.facts     the file's DiscoveryFacts (the KB-independent stage-2
//                   projection, see src/kb) — replaces parsing on every
//                   warm path
//   <key>.unit      the parsed TranslationUnit — replaces parsing on an
//                   --ipa scan whose .ipa snapshot missed, where stage 2.5
//                   walks every unit
//   <key>-<slicefp>.reports   the raw stage-3 report shard + function count
//
// The .facts object also carries the 128-bit digest of the file's .unit
// bytes, so a scan that never loads the unit still knows exactly which AST
// it stands for. Plus two tree-level artifacts:
//
//   <key>.kb        the whole post-discovery KnowledgeBase, keyed by the
//                   ordered per-file facts plus the pre-discovery KB
//                   fingerprint — discovery is purely additive and
//                   deterministic in that pair, so a snapshot hit replaces
//                   both replay rounds (the warm-rescan bottleneck:
//                   classifying ~1k discovered APIs from scratch)
//   <key>.ipa       the whole post-summary KnowledgeBase of an --ipa scan
//                   plus its summarized-function count, keyed by the .kb
//                   key and the ordered unit digests — summaries are a pure
//                   function of (post-discovery KB, ordered units, path
//                   cap), so a hit replaces unit loading, discovery, the
//                   call graph and every summary
//
// <key> is 128 bits of FNV-1a over (format version, file path, file
// content, options fingerprint); <slicefp> additionally pins the
// post-discovery KB's answers to every lookup the file's checkers can make
// (FingerprintKbSlice), because a file's reports are a pure function of
// (content, those answers, options). Loads validate magic, version, kind
// and a payload checksum, and treat any mismatch as a miss — a corrupted or
// truncated entry can cost time, never correctness. Raw blob I/O goes
// through an ObjectStore backend (src/cache/store.h): LocalStore writes to
// a temporary file and renames, so concurrent scans sharing a cache
// directory only ever observe complete objects, and appends one index.tsv
// line per stored object for inspection (readers skip malformed lines), so
// scanners on one host share a warm cache through one --cache-dir.

#ifndef REFSCAN_CACHE_CACHE_H_
#define REFSCAN_CACHE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/ast/ast.h"
#include "src/cache/serial.h"
#include "src/cache/store.h"
#include "src/checkers/report.h"
#include "src/kb/kb.h"

namespace refscan {

// 128-bit content address (two independently-seeded FNV-1a streams).
struct CacheKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  std::string Hex() const;
  bool operator==(const CacheKey&) const = default;
};

// Key for one file's cache entries. Includes the path (two identical files
// at different paths produce distinct units and reports), the content, and
// the scan-options fingerprint.
CacheKey MakeFileKey(std::string_view path, std::string_view content, uint64_t options_fp);

// Key for the tree-level KB snapshot. Post-discovery KB state is a pure
// function of (pre-discovery KB, ordered per-file facts, nesting
// threshold): discovery only ever inserts, and every insert is determined
// by the facts sequence. Hashing exactly those inputs (plus the options
// fingerprint and format version, via MakeFileKey's framing) is what makes
// a snapshot hit sound. Note a comment-only edit leaves a file's facts
// unchanged, so small cosmetic diffs still hit.
CacheKey MakeKbSnapshotKey(uint64_t base_kb_fp, int nesting_threshold,
                           const std::vector<const DiscoveryFacts*>& facts, uint64_t options_fp);

// Key for the tree-level IPA snapshot. The post-summary KB is a pure
// function of (post-discovery KB, ordered healthy units,
// max_paths_per_function): `kb_snapshot_key` pins the first, the per-file
// digests of the exact SerializeUnit bytes pin the second, and the options
// fingerprint (ScanOptionsFingerprint covers max_paths_per_function) the
// third. A comment-only edit leaves both the facts and the unit bytes
// unchanged, so it still hits; a body edit moves that file's digest.
CacheKey MakeIpaSnapshotKey(const CacheKey& kb_snapshot_key,
                            const std::vector<Hash128>& unit_digests, uint64_t options_fp);

// Deterministic digest of the entire knowledge base (APIs with all flags,
// smartloops, refcounted structs, ownership sinks, param-deref facts) in
// map order. It pins the pre-discovery KB in the snapshot key, and keys
// report shards when discovery is off and there is no slice to take.
uint64_t FingerprintKnowledgeBase(const KnowledgeBase& kb);

// Digest of the KB's answers to every lookup one file's stage 3 can make:
// for each name in KbSliceKeys(facts), what FindApi (the whole RefApiInfo,
// name included), FindSmartLoop, FindParamDerefs, IsFreeApi,
// FindOwnershipSink and IsRefcountField return, absent answers hashed as a
// constant. The file's report shard is a pure function of (file key, these
// answers), so this — not the whole-KB fingerprint — keys its .reports
// object: a discovery edit re-checks only the files whose answers moved.
uint64_t FingerprintKbSlice(const KnowledgeBase& kb, const DiscoveryFacts& facts);

// One file's cached stage-3 output: the raw (pre-dedup) report shard in
// checker emission order, the file's function count for ScanStats, and any
// function bodies the parser quarantined (DESIGN.md §5.15) — a spliced
// shard must reproduce the degraded-functions section exactly like a cold
// check would.
struct CachedFileReports {
  std::vector<BugReport> reports;
  uint64_t functions = 0;
  std::vector<DegradedFunction> degraded;
};

// One --ipa scan's stage-2.5 output: the KB the checkers read, and how many
// functions the summary stage summarized (ScanStats::summarized_functions).
struct IpaSnapshot {
  KnowledgeBase kb;
  uint64_t summarized_functions = 0;
};

class ScanCache {
 public:
  // An empty `dir` constructs a disabled cache (every Load misses, every
  // Store is a no-op) so callers need no branches. A non-empty dir is
  // created on demand; creation failure degrades to disabled. This is the
  // on-disk LocalStore path.
  explicit ScanCache(std::string dir);

  // Backs the cache with an explicit store — how `refscan serve` plugs its
  // resident MemoryStore under the same artifact semantics (keys, header
  // framing, corruption accounting all unchanged; only raw blob I/O
  // differs). A null store constructs a disabled cache.
  explicit ScanCache(std::shared_ptr<ObjectStore> store);

  bool enabled() const { return store_ != nullptr; }
  const std::string& dir() const { return dir_; }

  // The .facts object carries the digest StoreUnit returned for the same
  // parse; `unit_digest`, when non-null, receives it on a hit.
  std::optional<DiscoveryFacts> LoadFacts(const CacheKey& key,
                                          Hash128* unit_digest = nullptr) const;
  void StoreFacts(const CacheKey& key, const DiscoveryFacts& facts, std::string_view source,
                  const Hash128& unit_digest = {});

  // StoreUnit returns the digest (HashBytesDual) of the serialized unit —
  // the same pass over the stored bytes that checksums them, taken even
  // when the store fails.
  std::optional<TranslationUnit> LoadUnit(const CacheKey& key) const;
  Hash128 StoreUnit(const CacheKey& key, const TranslationUnit& unit, std::string_view source);

  std::optional<CachedFileReports> LoadReports(const CacheKey& key, uint64_t kb_fp) const;
  void StoreReports(const CacheKey& key, uint64_t kb_fp, const CachedFileReports& reports,
                    std::string_view source);

  std::optional<KnowledgeBase> LoadKb(const CacheKey& key) const;
  void StoreKb(const CacheKey& key, const KnowledgeBase& kb, std::string_view source);

  std::optional<IpaSnapshot> LoadIpa(const CacheKey& key) const;
  void StoreIpa(const CacheKey& key, const KnowledgeBase& kb, uint64_t summarized_functions,
                std::string_view source);

  // Objects that existed on disk but failed validation (bad magic/version/
  // kind byte, truncation, checksum mismatch) or whose read failed at the
  // `cache.load` fault-injection site. Every one degraded to a miss; the
  // engine surfaces the count as ScanStats::cache_corrupt. Plain absent
  // objects are not counted.
  uint64_t corrupt_loads() const { return corrupt_loads_.load(std::memory_order_relaxed); }

  // index.tsv bookkeeping: kind, object file name, source path, stored
  // bytes. Malformed lines are skipped, not fatal. A disabled cache reports
  // empty.
  using IndexEntry = CacheIndexEntry;
  std::vector<IndexEntry> ReadIndex() const;

 private:
  // On success `payload` views the validated payload inside `blob`.
  bool LoadObject(const std::string& name, uint8_t kind, std::string& blob,
                  std::string_view& payload) const;
  // Returns HashBytesDual(payload); its `hi` half is the header checksum.
  Hash128 StoreObject(const std::string& name, uint8_t kind, std::string_view payload,
                      std::string_view kind_name, std::string_view source);

  std::string dir_;
  std::shared_ptr<ObjectStore> store_;
  mutable std::atomic<uint64_t> corrupt_loads_{0};
};

// Serializers, exposed for tests (round-trip and corruption suites).
std::string SerializeFacts(const DiscoveryFacts& facts);
std::optional<DiscoveryFacts> DeserializeFacts(std::string_view bytes);
std::string SerializeUnit(const TranslationUnit& unit);
std::optional<TranslationUnit> DeserializeUnit(std::string_view bytes);
std::string SerializeReports(const CachedFileReports& reports);
std::optional<CachedFileReports> DeserializeReports(std::string_view bytes);
std::string SerializeKb(const KnowledgeBase& kb);
std::optional<KnowledgeBase> DeserializeKb(std::string_view bytes);

}  // namespace refscan

#endif  // REFSCAN_CACHE_CACHE_H_
