// Wire protocol for `refscan serve`, the resident scan service.
//
// One request/response pair per frame exchange over the shared Unix-socket
// framing (support/ipc.h). A connection is a session: the client may send
// any number of requests back to back; each gets exactly one reply frame.
// Frame types:
//
//   kServeScanReq      → kServeScanResp | kServeBusy | kServeErr
//   kServeStatsReq     → kServeText (JSON object of server counters)
//   kServeSummariesReq → kServeText (SummariesToJson) | kServeErr
//   kServeHealthReq    → kServeText ("ok")
//
// kServeBusy is the backpressure shed: the admission queue is full and the
// client should back off and retry. kServeErr carries a one-line reason;
// the client surfaces it as a degraded scan (exit 2), never as silence.
//
// The scan request is a scan job (WriteScanJob, scan_stages.h — the same
// payload as the shard-worker kJob frame): the count-checked ScanOptions
// image plus every file, so the server needs no filesystem access and the
// client's loaded tree is scanned bit-for-bit. The reply carries reports via the cache's
// report serializer — the one report encoding in the codebase — plus the
// stats table, the quarantine list, and the abort state, enough to
// reconstruct a ScanResult that is indistinguishable from a local scan.

#ifndef REFSCAN_SERVE_PROTOCOL_H_
#define REFSCAN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/checkers/engine.h"
#include "src/support/source.h"

namespace refscan {

constexpr uint8_t kServeScanReq = 1;
constexpr uint8_t kServeStatsReq = 2;
constexpr uint8_t kServeSummariesReq = 3;
constexpr uint8_t kServeHealthReq = 4;
constexpr uint8_t kServeScanResp = 5;
constexpr uint8_t kServeText = 6;
constexpr uint8_t kServeBusy = 7;
constexpr uint8_t kServeErr = 8;

// Scan / summaries request payload: options image + file count + files.
std::string EncodeScanRequest(const SourceTree& tree, const ScanOptions& options);
bool DecodeScanRequest(std::string_view payload, SourceTree& tree, ScanOptions& options);

// Scan reply payload: reports, stats (ScanStatsFields order, count-checked
// on decode so a version-skewed peer fails loudly instead of misreading),
// failures, abort state.
std::string EncodeScanResult(const ScanResult& result);
bool DecodeScanResult(std::string_view payload, ScanResult& result);

}  // namespace refscan

#endif  // REFSCAN_SERVE_PROTOCOL_H_
