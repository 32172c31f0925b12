#include "src/serve/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/serve/protocol.h"
#include "src/support/telemetry.h"

namespace refscan {

std::optional<ScanResult> RemoteScan(const SourceTree& tree, const ScanOptions& options,
                                     const std::string& socket_path,
                                     const BackoffPolicy& backoff, std::string* note) {
  // The whole round trip, retries included: in a `--remote` client this is
  // where the wall time goes, and no other stage.* span covers it.
  TelemetrySpan span("stage.remote");
  const std::string request = EncodeScanRequest(tree, options);
  const int attempts = std::max(backoff.attempts, 1);
  std::string last_error = "connect failed";
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffDelayMs(backoff, attempt - 1)));
    }
    std::string error;
    OwnedFd fd = UnixConnect(socket_path, &error);
    if (!fd.valid()) {
      last_error = error;
      continue;
    }
    if (!SendFrame(fd.get(), kServeScanReq, request, &error)) {
      last_error = error;
      continue;
    }
    uint8_t type = 0;
    std::string payload;
    if (RecvFrame(fd.get(), type, payload, &error) != RecvOutcome::kFrame) {
      last_error = error.empty() ? "server closed the connection" : error;
      continue;
    }
    if (type == kServeBusy) {
      last_error = "server busy";
      continue;  // shed: back off and retry like any transient
    }
    if (type == kServeErr) {
      // The server answered and refused: surface it as a degraded scan,
      // not a silent local re-run.
      ScanResult result;
      FileFailure f;
      f.path = "<tree>";
      f.stage = FailureStage::kCheck;
      f.kind = FailureKind::kInternal;
      f.what = "remote scan failed: " + payload;
      result.failures.push_back(std::move(f));
      return result;
    }
    if (type == kServeScanResp) {
      ScanResult result;
      if (DecodeScanResult(payload, result)) {
        return result;
      }
      last_error = "malformed scan reply";
      continue;
    }
    last_error = "unexpected reply type";
  }
  if (note != nullptr) {
    *note = last_error;
  }
  return std::nullopt;
}

bool RemoteRequestText(const std::string& socket_path, uint8_t type, std::string_view payload,
                       std::string& reply, std::string* error) {
  OwnedFd fd = UnixConnect(socket_path, error);
  if (!fd.valid()) {
    return false;
  }
  if (!SendFrame(fd.get(), type, payload, error)) {
    return false;
  }
  uint8_t reply_type = 0;
  if (RecvFrame(fd.get(), reply_type, reply, error) != RecvOutcome::kFrame) {
    return false;
  }
  if (reply_type != kServeText) {
    if (error != nullptr) {
      *error = reply;
    }
    return false;
  }
  return true;
}

}  // namespace refscan
