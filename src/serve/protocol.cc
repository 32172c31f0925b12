#include "src/serve/protocol.h"

#include "src/cache/cache.h"
#include "src/cache/serial.h"
#include "src/checkers/scan_stages.h"

namespace refscan {

std::string EncodeScanRequest(const SourceTree& tree, const ScanOptions& options) {
  std::vector<const SourceFile*> files;
  files.reserve(tree.size());
  for (const auto& [path, file] : tree.files()) {
    files.push_back(&file);
  }
  ByteWriter w;
  WriteScanJob(w, options, files);
  return w.TakeBytes();
}

bool DecodeScanRequest(std::string_view payload, SourceTree& tree, ScanOptions& options) {
  return ReadScanJob(payload, options, tree);
}

std::string EncodeScanResult(const ScanResult& result) {
  ByteWriter w;
  CachedFileReports reports;
  reports.reports = result.reports;
  w.Str(SerializeReports(reports));
  const auto& fields = ScanStatsFields();
  w.U32(static_cast<uint32_t>(fields.size()));
  for (const ScanStatsField& f : fields) {
    w.U64(result.stats.*f.member);
  }
  w.U32(static_cast<uint32_t>(result.failures.size()));
  for (const FileFailure& f : result.failures) {
    w.Str(f.path);
    w.U8(static_cast<uint8_t>(f.stage));
    w.U8(static_cast<uint8_t>(f.kind));
    w.Str(f.what);
    w.I32(f.retries);
  }
  w.U32(static_cast<uint32_t>(result.degraded_functions.size()));
  for (const DegradedFunctionReport& d : result.degraded_functions) {
    w.Str(d.file);
    w.Str(d.function);
    w.U32(d.line);
    w.Str(d.what);
  }
  w.Bool(result.aborted);
  w.Str(result.abort_reason);
  return w.TakeBytes();
}

bool DecodeScanResult(std::string_view payload, ScanResult& result) {
  ByteReader r(payload);
  const std::string report_bytes = r.Str();
  if (!r.ok()) {
    return false;
  }
  std::optional<CachedFileReports> reports = DeserializeReports(report_bytes);
  if (!reports) {
    return false;
  }
  result.reports = std::move(reports->reports);
  const auto& fields = ScanStatsFields();
  if (r.U32() != fields.size()) {
    return false;  // stats-table skew: refuse rather than misattribute
  }
  for (const ScanStatsField& f : fields) {
    result.stats.*f.member = static_cast<size_t>(r.U64());
  }
  const uint32_t nfailures = r.Count();
  result.failures.clear();
  for (uint32_t i = 0; r.ok() && i < nfailures; ++i) {
    FileFailure f;
    f.path = r.Str();
    f.stage = static_cast<FailureStage>(r.U8());
    f.kind = static_cast<FailureKind>(r.U8());
    f.what = r.Str();
    f.retries = r.I32();
    result.failures.push_back(std::move(f));
  }
  const uint32_t ndegraded = r.Count();
  result.degraded_functions.clear();
  for (uint32_t i = 0; r.ok() && i < ndegraded; ++i) {
    DegradedFunctionReport d;
    d.file = r.Str();
    d.function = r.Str();
    d.line = r.U32();
    d.what = r.Str();
    result.degraded_functions.push_back(std::move(d));
  }
  result.aborted = r.Bool();
  result.abort_reason = r.Str();
  return r.ok() && r.AtEnd();
}

}  // namespace refscan
