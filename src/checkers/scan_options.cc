// The ScanOptions field table and everything it drives: the fingerprint,
// the wire image and the location reset. The CLI's flag parser and usage
// text read the same rows (tools/refscan_cli.cc).

#include <algorithm>
#include <bit>
#include <charconv>
#include <limits>
#include <type_traits>

#include "src/cache/serial.h"
#include "src/checkers/engine.h"
#include "src/checkers/scan_stages.h"
#include "src/support/strings.h"
#include "src/support/threadpool.h"

namespace refscan {

namespace {

// One member's value in the byte layout shared by the fingerprint and the
// wire image; a double travels as its bit pattern, so it survives exactly.
void Put(ByteWriter& w, size_t v) { w.U64(v); }
void Put(ByteWriter& w, int v) { w.I32(v); }
void Put(ByteWriter& w, bool v) { w.Bool(v); }
void Put(ByteWriter& w, uint32_t v) { w.U32(v); }
void Put(ByteWriter& w, double v) { w.U64(std::bit_cast<uint64_t>(v)); }
void Put(ByteWriter& w, const std::string& v) { w.Str(v); }
template <typename Container>
void Put(ByteWriter& w, const Container& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const auto& item : v) {
    Put(w, item);
  }
}
// A live pointer into this process: each side of a socket supplies its own
// store, so nothing travels.
void Put(ByteWriter&, const std::shared_ptr<ObjectStore>&) {}

void Get(ByteReader& r, size_t& v) { v = static_cast<size_t>(r.U64()); }
void Get(ByteReader& r, int& v) { v = r.I32(); }
void Get(ByteReader& r, bool& v) { v = r.Bool(); }
void Get(ByteReader& r, uint32_t& v) { v = r.U32(); }
void Get(ByteReader& r, double& v) { v = std::bit_cast<double>(r.U64()); }
void Get(ByteReader& r, std::string& v) { v = r.Str(); }
template <typename Container>
void Get(ByteReader& r, Container& v) {
  v.clear();
  const uint32_t n = r.Count();
  for (uint32_t i = 0; r.ok() && i < n; ++i) {
    typename Container::value_type item;
    Get(r, item);
    v.insert(v.end(), std::move(item));
  }
}
void Get(ByteReader&, std::shared_ptr<ObjectStore>& v) { v.reset(); }

// ---- CLI value parsers (ScanOptionField::parse) ----

// An unsigned count no greater than `ceiling` that fits its member: no
// sign, no junk, no overflow.
bool ParseBoundedCount(const ScanOptionField& field, std::string_view text, uint64_t ceiling,
                       ScanOptions& options, std::string& error) {
  return std::visit(
      [&]<typename T>(T ScanOptions::*member) {
        if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>) {
          const uint64_t max = std::min<uint64_t>(ceiling, std::numeric_limits<T>::max());
          uint64_t value = 0;
          if (ParseUnsigned(text, max, value)) {
            options.*member = static_cast<T>(value);
            return true;
          }
          error = StrFormat("expected an unsigned integer no greater than %llu",
                            static_cast<unsigned long long>(max));
        } else {
          error = "not a count option";
        }
        return false;
      },
      field.member);
}

bool ParseCountOption(const ScanOptionField& field, std::string_view text, ScanOptions& options,
                      std::string& error) {
  return ParseBoundedCount(field, text, std::numeric_limits<uint64_t>::max(), options, error);
}

// A thread count, at most kMaxParallelism.
bool ParseParallelismOption(const ScanOptionField& field, std::string_view text,
                            ScanOptions& options, std::string& error) {
  return ParseBoundedCount(field, text, kMaxParallelism, options, error);
}

// A fraction in [0, 1].
bool ParseRatioOption(const ScanOptionField& field, std::string_view text, ScanOptions& options,
                      std::string& error) {
  double value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size() || !(value >= 0.0 && value <= 1.0)) {
    error = "expected a number in [0, 1]";
    return false;
  }
  options.*std::get<double ScanOptions::*>(field.member) = value;
  return true;
}

bool ParsePatternsOption(const ScanOptionField& field, std::string_view text,
                         ScanOptions& options, std::string& error) {
  if (!ParsePatternList(text, options.*std::get<std::set<int> ScanOptions::*>(field.member))) {
    error = "expected comma-separated anti-pattern ids in 1..12";
    return false;
  }
  return true;
}

// One KnownDialects name, appended (the flag repeats).
bool ParseDialectOption(const ScanOptionField& field, std::string_view text,
                        ScanOptions& options, std::string& error) {
  const std::vector<std::string>& known = KnownDialects();
  if (std::find(known.begin(), known.end(), text) == known.end()) {
    error = "unknown dialect (known: " + Join(known, ", ") + ")";
    return false;
  }
  (options.*std::get<std::vector<std::string> ScanOptions::*>(field.member)).emplace_back(text);
  return true;
}

bool ParseTextOption(const ScanOptionField& field, std::string_view text, ScanOptions& options,
                     std::string& error) {
  options.*std::get<std::string ScanOptions::*>(field.member) = std::string(text);
  return true;
}

}  // namespace

const std::vector<ScanOptionField>& ScanOptionFields() {
  // Row order is the wire order and, over the `fingerprint` rows, the byte
  // order ScanOptionsFingerprint has always hashed, so caches written by
  // earlier builds stay warm (tests/options_test.cc pins the values).
  static const auto* fields = new std::vector<ScanOptionField>{
      // Also caps the summary stage, so it reaches the .ipa snapshot key.
      {.name = "max_paths_per_function", .member = &ScanOptions::max_paths_per_function,
       .fingerprint = true},
      {.name = "nesting_threshold", .member = &ScanOptions::nesting_threshold, .fingerprint = true},
      {.name = "discover_from_source", .member = &ScanOptions::discover_from_source,
       .flag = "--no-discovery",
       .help = "check against the built-in KB only: no API or smartloop\n"
               "discovery over the scanned tree",
       .fingerprint = true},
      {.name = "enabled_patterns", .member = &ScanOptions::enabled_patterns, .flag = "--patterns",
       .value_name = "LIST", .parse = ParsePatternsOption,
       .help = "comma-separated anti-pattern ids in 1..12, e.g. 1,4,10\n"
               "(P10-P12 are opt-in; the default is 1..9)",
       .fingerprint = true},
      {.name = "prune_null_branches", .member = &ScanOptions::prune_null_branches,
       .fingerprint = true},
      {.name = "model_ownership_transfer", .member = &ScanOptions::model_ownership_transfer,
       .fingerprint = true},
      // The deterministic governor caps change what a parse produces.
      {.name = "max_file_bytes", .member = &ScanOptions::max_file_bytes, .fingerprint = true},
      {.name = "max_ast_nodes", .member = &ScanOptions::max_ast_nodes, .fingerprint = true},
      {.name = "max_ast_depth", .member = &ScanOptions::max_ast_depth, .fingerprint = true},
      // Dialects seed the KB before discovery, so scans with different
      // dialect sets must never share cached facts, units or report shards.
      {.name = "dialects", .member = &ScanOptions::dialects, .flag = "--dialect",
       .value_name = "NAME", .parse = ParseDialectOption,
       .help = "merge a userspace refcount dialect catalogue into the\n"
               "KB before scanning (repeatable); known: glib, uacpi",
       .fingerprint = true},
      // Not fingerprinted: it changes only the KB, never a facts or unit
      // object, so plain and --ipa scans share those; report shards are
      // keyed on the file's KB slice (which sees every summary), and only
      // --ipa scans probe the .ipa snapshot.
      {.name = "interprocedural", .member = &ScanOptions::interprocedural,
       .flag = "--interprocedural", .alias = "--ipa",
       .help = "fold bottom-up call-graph summaries into the KB\nbefore checking"},
      // Not fingerprinted: reports are identical at every thread count.
      {.name = "jobs", .member = &ScanOptions::jobs, .flag = "--jobs", .alias = "-j",
       .value_name = "N", .parse = ParseParallelismOption,
       .help = "scan threads (0 = all hardware threads, the default);\n"
               "output is identical at every thread count"},
      // Locations say where artifacts live, never what they hold: none is
      // fingerprinted.
      {.name = "cache_dir", .member = &ScanOptions::cache_dir, .flag = "--cache-dir",
       .value_name = "DIR", .parse = ParseTextOption,
       .help = "incremental scan cache: rescans replay the cached parses\n"
               "and reports of unchanged files (output is unchanged)",
       .location = true},
      {.name = "object_store", .member = &ScanOptions::object_store, .location = true},
      // Not fingerprinted, like jobs: it changes the unit lifecycle, never
      // an artifact, so streaming and resident scans share one warm cache.
      {.name = "streaming", .member = &ScanOptions::streaming, .flag = "--streaming",
       .help = "drop each AST after stage 1 and re-parse in stage 3, so\n"
               "at most --jobs ASTs coexist (ignored with --ipa)"},
      // The injection and wall-clock knobs are not fingerprinted: a file
      // that faults or times out stores no artifacts.
      {.name = "fault_spec", .member = &ScanOptions::fault_spec, .flag = "--faults",
       .value_name = "SPEC", .parse = ParseTextOption,
       .help = "arm fault injection for this run (src/support/\n"
               "faultinject.h), e.g. 'parser.parse:file=*.broken.c'"},
      {.name = "file_timeout_ms", .member = &ScanOptions::file_timeout_ms,
       .flag = "--file-timeout-ms", .value_name = "N", .parse = ParseCountOption,
       .help = "per-file wall-clock budget; overruns quarantine the\n"
               "file instead of stalling the scan (0 = off)"},
      {.name = "max_failure_ratio", .member = &ScanOptions::max_failure_ratio,
       .flag = "--max-failure-ratio", .value_name = "R", .parse = ParseRatioOption,
       .help = "abort when more than this fraction of files fail\n"
               "(0 = complete degraded, the default)"},
  };
  return *fields;
}

const ScanOptionField* FindScanOptionFlag(std::string_view flag) {
  for (const ScanOptionField& f : ScanOptionFields()) {
    if ((f.flag != nullptr && flag == f.flag) || (f.alias != nullptr && flag == f.alias)) {
      return &f;
    }
  }
  return nullptr;
}

void ClearScanLocations(ScanOptions& options) {
  static const ScanOptions defaults;
  for (const ScanOptionField& f : ScanOptionFields()) {
    if (f.location) {
      std::visit([&](auto member) { options.*member = defaults.*member; }, f.member);
    }
  }
}

uint64_t ScanOptionsFingerprint(const ScanOptions& options) {
  ByteWriter w;
  for (const ScanOptionField& f : ScanOptionFields()) {
    if (f.fingerprint) {
      std::visit([&](auto member) { Put(w, options.*member); }, f.member);
    }
  }
  return HashBytes(w.bytes());
}

void WriteScanOptionsWire(ByteWriter& w, const ScanOptions& options) {
  const std::vector<ScanOptionField>& fields = ScanOptionFields();
  w.U32(static_cast<uint32_t>(fields.size()));
  for (const ScanOptionField& f : fields) {
    std::visit([&](auto member) { Put(w, options.*member); }, f.member);
  }
}

bool ReadScanOptionsWire(ByteReader& r, ScanOptions& options) {
  const std::vector<ScanOptionField>& fields = ScanOptionFields();
  if (r.U32() != fields.size()) {
    return false;  // a version-skewed peer: fail loudly, never misread
  }
  for (const ScanOptionField& f : fields) {
    std::visit([&](auto member) { Get(r, options.*member); }, f.member);
  }
  return r.ok();
}

}  // namespace refscan
