// Sharded multi-process scanning (DESIGN.md §5.13).
//
// `refscan scan --workers N` runs the two per-file pipeline stages in N
// `refscan worker` subprocesses. This file holds only the execution
// strategy: the worker fleet is a ScanStageExecutor (scan_stages.h) that
// CheckerEngine::Scan drives like its in-process thread pool. The engine
// stays the one orchestrator — KB discovery, the circuit breaker, the
// file-ordered merge, dedup, suppression and the stats all run there, once,
// whatever executes stages 1 and 3. The protocol over a Unix-domain socket
// (support/ipc.h), five frame types in lockstep per worker:
//
//   worker → coordinator   kHello    worker id
//   coordinator → worker   kJob      ScanOptions + the shard's (path, text)
//   worker → coordinator   kFacts    per-file DiscoveryFacts / failures
//   coordinator → worker   kKb       the post-discovery KB snapshot
//   worker → coordinator   kResults  per-file report shards + cache flags
//
// The executor's Parse call spawns the fleet and turns the kFacts frames
// into the engine's per-file states; the engine runs discovery over them in
// global tree order; the executor's Check call broadcasts the frozen KB and
// turns the kResults frames into per-file report shards. Workers run the
// same RunParseStage/RunCheckStage bodies as the in-process executor, and
// SerializeKb round-trips every answer a KB-slice fingerprint observes, so the
// output is byte-identical to `--workers 0`.
//
// Failure semantics: a worker that dies mid-protocol (crash, kill, protocol
// error) costs its shard, not the scan. The fleet reports the shard's files
// as lost; the engine drops every worker result, quarantines those files
// ("shard worker K died") and rescans the survivors in-process — so the
// degraded scan's reports match scanning the surviving subset by
// construction, and its stats and metrics come from the same code as any
// other scan.
//
// Interprocedural scans (`--ipa`) never use the fleet: stage 2.5 walks
// every TranslationUnit of the tree in one address space, and workers ship
// discovery facts, not units. Shipping units would cost more than the
// fleet saves, so the engine runs such scans in-process.

#ifndef REFSCAN_CHECKERS_SHARDED_H_
#define REFSCAN_CHECKERS_SHARDED_H_

#include <string>
#include <vector>

#include "src/checkers/engine.h"
#include "src/support/source.h"

namespace refscan {

// Deterministic content-balanced sharding: greedy longest-processing-time
// assignment of files (largest first, path as tie-break) to the currently
// lightest shard, measured in content bytes. Returns `shards` index lists
// into `files`, each sorted ascending so every worker sees its files in
// global tree order. Pure function of (sizes, paths, shards) — the same
// tree always shards the same way.
std::vector<std::vector<size_t>> ShardFiles(const std::vector<const SourceFile*>& files,
                                            size_t shards);

struct ShardedScanConfig {
  size_t workers = 0;
  // Binary to exec for workers (argv: worker --socket PATH --id N).
  // The CLI passes /proc/self/exe; tests pass their built refscan path.
  std::string worker_cmd;
  // Directory for the coordination socket; empty = /tmp. Paths must fit
  // sockaddr_un (~107 bytes).
  std::string socket_dir;
};

// Coordinator entry point: CheckerEngine(BuiltIn, options).Scan(tree) with
// stages 1 and 3 on config.workers subprocesses. Reports, stats, failures,
// metrics and abort behaviour match the in-process scan byte for byte
// (asserted by tests/sharded_test.cc). An empty tree, `workers == 0`, an
// unusable socket or options.interprocedural scan in-process.
ScanResult ShardedScan(const SourceTree& tree, const ScanOptions& options,
                       const ShardedScanConfig& config);

// Worker entry point (`refscan worker --socket PATH --id N`): connects,
// runs stages 1 and 3 over the shard it is sent, exits 0 on a completed or
// cleanly-abandoned (coordinator closed) exchange. Throws propagate to the
// CLI's fatal handler — an injected worker.facts/worker.results fault kills
// the worker exactly like a real crash.
int RunShardWorker(const std::string& socket_path, int worker_id);

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_SHARDED_H_
