#!/bin/sh
# Records the scan-path benchmark trajectory, one history row per run, so
# performance can be diffed commit-to-commit by machines instead of
# eyeballs:
#
#   bench/record_scan_trajectory.sh                # configure+build Release, then record
#   bench/record_scan_trajectory.sh build-rel/bench/perf_pipeline BENCH_scan.json
#
# The output file wraps every recorded run:
#
#   {"refscan_bench_history": [ <google-benchmark JSON run>, ... ]}
#
# Each element is one full google-benchmark JSON document (context +
# benchmarks), newest last, so the trajectory of any benchmark is
# `jq '.refscan_bench_history[].benchmarks[] | select(.name == "...")'`.
# A legacy single-snapshot BENCH_scan.json (bare google-benchmark output) is
# migrated in place: it becomes the first history row. Appending needs jq;
# without jq the script refuses rather than silently overwriting history.
#
# With no binary argument the script configures and builds a Release tree at
# ./build-rel itself: trajectory numbers recorded from a Debug binary are
# meaningless for diffing (3-10x off) and a previous revision of this file
# let exactly that happen. The build type baked into the binary is embedded
# in each run's JSON (context.refscan_build_type) and verified below; a
# non-release binary is refused unless REFSCAN_BENCH_ALLOW_DEBUG=1.
#
# Covered benchmarks: the cold full-tree scan (BM_FullTreeScan, its
# threaded variant, and BM_FullTreeScanAllFamilies — the P10-P12 + dialect
# configuration of DESIGN.md §5.12), the warm incremental rescan at 0/1/10
# percent change rates and after a one-file KB (wrapper API) edit
# (BM_IncrementalRescan, BM_IncrementalRescanKbEdit), the sharded multi-process
# scan cold and over a shared warm store (BM_ShardedScan,
# BM_ShardedScanWarmShared — DESIGN.md §5.13), the parallel on-disk tree
# load (BM_ParallelTreeLoad), the memory-layer micro-benches
# (BM_InternerLookup, BM_KbFindApi — DESIGN.md §5.11), and the ~1 MLOC
# kernel-realism scan with streaming off/on (BM_KernelishScan — DESIGN.md
# §5.15). The speedup of BM_IncrementalRescan/0 over BM_FullTreeScan is the
# cache's headline number (target: >= 5x).
#
# Each benchmark runs 5 repetitions and a row records only their aggregates
# (`run_type == "aggregate"`: `_mean`, `_median`, `_stddev` and `_cv`, the
# stddev / mean), so a diff between rows can be read against the noise:
# `jq '.refscan_bench_history[-1].benchmarks[] | select(.aggregate_name == "median")'`.
# Older rows hold a single repetition each.
set -eu

PERF_BIN="${1:-}"
OUT_JSON="${2:-BENCH_scan.json}"

if [ -z "$PERF_BIN" ]; then
  PERF_BIN="build-rel/bench/perf_pipeline"
  echo "no binary given: building Release tree at ./build-rel" >&2
  cmake -S . -B build-rel -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-rel --target perf_pipeline -j"$(nproc)" >/dev/null
fi

if [ ! -x "$PERF_BIN" ]; then
  echo "error: benchmark binary not found at $PERF_BIN" >&2
  echo "build it first: cmake --build build-rel --target perf_pipeline" >&2
  exit 1
fi

if ! command -v jq >/dev/null 2>&1; then
  echo "error: jq is required to append to the benchmark history" >&2
  exit 1
fi

RUN_JSON="$(mktemp "${TMPDIR:-/tmp}/refscan_bench_run.XXXXXX.json")"
trap 'rm -f "$RUN_JSON"' EXIT

"$PERF_BIN" \
  --benchmark_filter='BM_FullTreeScan|BM_FullTreeScanAllFamilies|BM_FullTreeScanParallel|BM_IncrementalRescan|BM_ShardedScan|BM_ParallelTreeLoad|BM_InternerLookup|BM_KbFindApi|BM_KernelishScan' \
  --benchmark_out="$RUN_JSON" \
  --benchmark_out_format=json \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true

# perf_pipeline embeds its own CMAKE_BUILD_TYPE (context.refscan_build_type);
# don't trust library_build_type, which reflects the benchmark *library*
# (Debian ships a debug libbenchmark under release userland).
BUILD_TYPE="$(jq -r '.context.refscan_build_type // "unknown"' "$RUN_JSON")"
if [ "$BUILD_TYPE" != "Release" ] && [ "${REFSCAN_BENCH_ALLOW_DEBUG:-0}" != "1" ]; then
  echo "error: $PERF_BIN is a '$BUILD_TYPE' build; trajectory rows must come" >&2
  echo "from Release (set REFSCAN_BENCH_ALLOW_DEBUG=1 to override)" >&2
  exit 1
fi

# Append the run to the history, migrating a legacy bare snapshot into the
# first row. jq writes the merged file to a sibling temp, then rename keeps
# the update atomic against readers.
if [ -f "$OUT_JSON" ]; then
  HISTORY_KIND="$(jq -r 'if has("refscan_bench_history") then "history"
                         elif has("benchmarks") then "legacy"
                         else "other" end' "$OUT_JSON" 2>/dev/null || echo "other")"
else
  HISTORY_KIND="missing"
fi
case "$HISTORY_KIND" in
  history)
    jq --slurpfile run "$RUN_JSON" \
       '.refscan_bench_history += $run' "$OUT_JSON" >"$OUT_JSON.tmp"
    ;;
  legacy)
    jq --slurpfile run "$RUN_JSON" \
       '{refscan_bench_history: ([.] + $run)}' "$OUT_JSON" >"$OUT_JSON.tmp"
    ;;
  *)
    jq '{refscan_bench_history: [.]}' "$RUN_JSON" >"$OUT_JSON.tmp"
    ;;
esac
mv "$OUT_JSON.tmp" "$OUT_JSON"

ROWS="$(jq '.refscan_bench_history | length' "$OUT_JSON")"
echo "wrote $OUT_JSON (build type: $BUILD_TYPE, history rows: $ROWS)"
