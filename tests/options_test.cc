// Tests for the ScanOptions field table (ScanOptionFields): one row per
// member, the wire image it drives (round trip and count-checked skew), the
// fingerprint rows (exclusions and values pinned across builds), the
// location reset, and the CLI value parsers.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "src/cache/serial.h"
#include "src/cache/store.h"
#include "src/checkers/engine.h"
#include "src/checkers/scan_stages.h"
#include "src/serve/protocol.h"
#include "src/support/strings.h"
#include "src/support/threadpool.h"

namespace refscan {
namespace {

// Converts to any member type, so `T{AnyMember{}...}` compiles for exactly
// as many initializers as the aggregate T has members.
struct AnyMember {
  template <typename T>
  operator T() const;
};

template <typename T, typename... Inits>
constexpr size_t AggregateMemberCount() {
  if constexpr (requires { T{Inits{}..., AnyMember{}}; }) {
    return AggregateMemberCount<T, Inits..., AnyMember>();
  } else {
    return sizeof...(Inits);
  }
}

// Sets the member `f` names to a value different from its default.
void SetNonDefault(const ScanOptionField& f, ScanOptions& options) {
  std::visit(
      [&]<typename T>(T ScanOptions::*member) {
        T& v = options.*member;
        if constexpr (std::is_same_v<T, bool>) {
          v = !v;
        } else if constexpr (std::is_same_v<T, double>) {
          v = v == 0.25 ? 0.5 : 0.25;
        } else if constexpr (std::is_arithmetic_v<T>) {
          v = static_cast<T>(v + 7);
        } else if constexpr (std::is_same_v<T, std::string>) {
          v = std::string("non-default ") + f.name;
        } else if constexpr (std::is_same_v<T, std::set<int>>) {
          v = {2, 11};
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          v = {"uacpi", "glib"};
        } else {
          v = std::make_shared<MemoryStore>();
        }
      },
      f.member);
}

bool SameMember(const ScanOptionField& f, const ScanOptions& a, const ScanOptions& b) {
  return std::visit([&](auto member) { return a.*member == b.*member; }, f.member);
}

bool IsObjectStore(const ScanOptionField& f) {
  return std::holds_alternative<std::shared_ptr<ObjectStore> ScanOptions::*>(f.member);
}

ScanOptions AllNonDefault() {
  ScanOptions options;
  for (const ScanOptionField& f : ScanOptionFields()) {
    SetNonDefault(f, options);
  }
  return options;
}

std::string OptionsImage(const ScanOptions& options) {
  ByteWriter w;
  WriteScanOptionsWire(w, options);
  return w.TakeBytes();
}

TEST(ScanOptionFieldsTest, OneRowPerMember) {
  static_assert(std::is_aggregate_v<ScanOptions>);
  const std::vector<ScanOptionField>& fields = ScanOptionFields();
  EXPECT_EQ(fields.size(), AggregateMemberCount<ScanOptions>())
      << "every ScanOptions member needs exactly one ScanOptionFields row";
  std::set<std::string> names;
  for (size_t i = 0; i < fields.size(); ++i) {
    EXPECT_TRUE(names.insert(fields[i].name).second) << fields[i].name;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_TRUE(fields[i].member != fields[j].member) << fields[i].name << " repeats a member";
    }
    // A flag row has help, and a switch (no parser) can only be a bool.
    if (fields[i].flag != nullptr) {
      EXPECT_NE(fields[i].help, nullptr) << fields[i].name;
      if (fields[i].parse == nullptr) {
        EXPECT_TRUE(std::holds_alternative<bool ScanOptions::*>(fields[i].member))
            << fields[i].name;
      }
    }
  }
}

TEST(ScanOptionFieldsTest, EveryRowSurvivesTheWire) {
  const ScanOptions sent = AllNonDefault();
  ScanOptions received;
  const std::string image = OptionsImage(sent);
  ByteReader r(image);
  ASSERT_TRUE(ReadScanOptionsWire(r, received));
  EXPECT_TRUE(r.AtEnd());

  SourceTree tree;
  tree.Add("a.c", "int a;\n");
  SourceTree decoded_tree;
  ScanOptions decoded;
  ASSERT_TRUE(DecodeScanRequest(EncodeScanRequest(tree, sent), decoded_tree, decoded));
  ASSERT_NE(decoded_tree.Find("a.c"), nullptr);

  for (const ScanOptionField& f : ScanOptionFields()) {
    if (IsObjectStore(f)) {
      // A live pointer never leaves its process.
      EXPECT_EQ(received.object_store, nullptr);
      EXPECT_EQ(decoded.object_store, nullptr);
      continue;
    }
    EXPECT_FALSE(SameMember(f, sent, ScanOptions{})) << f.name << " kept its default";
    EXPECT_TRUE(SameMember(f, sent, received)) << f.name;
    EXPECT_TRUE(SameMember(f, sent, decoded)) << f.name;
  }
}

TEST(ScanOptionFieldsTest, SkewedOptionsImagesAreRejected) {
  const std::vector<ScanOptionField>& fields = ScanOptionFields();
  const ScanOptions options = AllNonDefault();
  SourceTree tree;
  tree.Add("a.c", "int a;\n");
  const std::string image = OptionsImage(options);
  const std::string request = EncodeScanRequest(tree, options);
  ASSERT_EQ(request.compare(0, image.size(), image), 0);
  const std::string files = request.substr(image.size());
  const std::string body = image.substr(4);  // past the row count

  // One field too many: a peer with an extra trailing bool row.
  ByteWriter more;
  more.U32(static_cast<uint32_t>(fields.size() + 1));
  // One field too few: a peer without the last row, a double (8 bytes).
  ASSERT_STREQ(fields.back().name, "max_failure_ratio");
  ByteWriter fewer;
  fewer.U32(static_cast<uint32_t>(fields.size() - 1));
  const std::string skewed[] = {more.bytes() + body + std::string(1, '\1') + files,
                                fewer.bytes() + body.substr(0, body.size() - 8) + files};
  for (const std::string& payload : skewed) {
    SourceTree t;
    ScanOptions o;
    EXPECT_FALSE(DecodeScanRequest(payload, t, o));  // serve kScanReq
    SourceTree t2;
    ScanOptions o2;
    EXPECT_FALSE(ReadScanJob(payload, o2, t2));  // shard kJob
  }
  SourceTree t;
  ScanOptions o;
  EXPECT_TRUE(ReadScanJob(request, o, t));
  EXPECT_FALSE(ReadScanJob(request + std::string(1, '\0'), o, t));  // trailing bytes
}

TEST(ScanOptionFieldsTest, FingerprintMovesExactlyWithFingerprintRows) {
  const uint64_t base = ScanOptionsFingerprint(ScanOptions{});
  for (const ScanOptionField& f : ScanOptionFields()) {
    ScanOptions changed;
    SetNonDefault(f, changed);
    EXPECT_EQ(ScanOptionsFingerprint(changed) != base, f.fingerprint) << f.name;
  }
}

// Values computed by the hand-written fingerprint the table replaced: a
// cache written by an earlier build must stay warm.
TEST(ScanOptionFieldsTest, FingerprintValuesArePinned) {
  const auto fp = [](auto&& mutate) {
    ScanOptions o;
    mutate(o);
    return ScanOptionsFingerprint(o);
  };
  EXPECT_EQ(ScanOptionsFingerprint(ScanOptions{}), 0x01ac72a5e154c5f1ull);
  EXPECT_EQ(fp([](ScanOptions& o) { o.max_paths_per_function = 64; }), 0x274f04f51183bd4full);
  EXPECT_EQ(fp([](ScanOptions& o) { o.nesting_threshold = 5; }), 0x2e4ad6b7f7736bbbull);
  EXPECT_EQ(fp([](ScanOptions& o) { o.discover_from_source = false; }), 0x5ea9e62037b2f8d2ull);
  EXPECT_EQ(fp([](ScanOptions& o) { o.enabled_patterns = {1, 4, 10}; }), 0xb616f36ea680d64dull);
  EXPECT_EQ(fp([](ScanOptions& o) { o.prune_null_branches = false; }), 0xf0f5c3fa40eeccd4ull);
  EXPECT_EQ(fp([](ScanOptions& o) { o.model_ownership_transfer = false; }),
            0xe8dd8123065b831eull);
  EXPECT_EQ(fp([](ScanOptions& o) { o.max_file_bytes = 4096; }), 0x91f3e138d995dfa1ull);
  EXPECT_EQ(fp([](ScanOptions& o) { o.max_ast_nodes = 1000; }), 0x74a54757c2f0fae8ull);
  EXPECT_EQ(fp([](ScanOptions& o) { o.max_ast_depth = 50; }), 0x2f4e7148a627fc43ull);
  EXPECT_EQ(fp([](ScanOptions& o) { o.dialects = {"glib", "uacpi"}; }), 0x0020822acc7bd8f2ull);
  EXPECT_EQ(fp([](ScanOptions& o) {
              o.enabled_patterns = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
              o.dialects = {"glib", "uacpi"};
            }),
            0xe048fc68669548aaull);
}

TEST(ScanOptionFieldsTest, ClearScanLocationsResetsOnlyLocations) {
  const ScanOptions set = AllNonDefault();
  ScanOptions cleared = set;
  ClearScanLocations(cleared);
  for (const ScanOptionField& f : ScanOptionFields()) {
    EXPECT_TRUE(SameMember(f, cleared, f.location ? ScanOptions{} : set)) << f.name;
  }
  EXPECT_TRUE(cleared.cache_dir.empty());
  EXPECT_EQ(cleared.object_store, nullptr);
}

TEST(ScanOptionFieldsTest, FlagsResolveToTheirRows) {
  ASSERT_NE(FindScanOptionFlag("--ipa"), nullptr);
  EXPECT_EQ(FindScanOptionFlag("--ipa"), FindScanOptionFlag("--interprocedural"));
  EXPECT_EQ(FindScanOptionFlag("-j"), FindScanOptionFlag("--jobs"));
  EXPECT_STREQ(FindScanOptionFlag("--no-discovery")->name, "discover_from_source");
  EXPECT_EQ(FindScanOptionFlag("--mmap"), nullptr);
  EXPECT_EQ(FindScanOptionFlag("--workers"), nullptr);  // the CLI's own flag
}

// Runs the named flag's parser on `text`; false when it rejects it.
bool Parse(const char* flag, std::string_view text, ScanOptions& options) {
  const ScanOptionField* f = FindScanOptionFlag(flag);
  std::string error;
  const bool ok = f != nullptr && f->parse != nullptr && f->parse(*f, text, options, error);
  EXPECT_EQ(ok, error.empty()) << flag << " " << text;
  return ok;
}

TEST(ScanOptionFieldsTest, CountParsersRejectSignsJunkAndOverflow) {
  ScanOptions o;
  EXPECT_TRUE(Parse("--jobs", "8", o));
  EXPECT_EQ(o.jobs, 8u);
  for (const char* bad : {"-1", "+1", "", " 1", "1x", "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(Parse("--jobs", bad, o)) << bad;
  }
  EXPECT_EQ(o.jobs, 8u);  // rejected text leaves the member alone
  // A thread count stops at kMaxParallelism (parsing only: no thread starts).
  EXPECT_TRUE(Parse("--jobs", std::to_string(kMaxParallelism), o));
  EXPECT_EQ(o.jobs, kMaxParallelism);
  EXPECT_FALSE(Parse("--jobs", std::to_string(kMaxParallelism + 1), o));
  EXPECT_FALSE(Parse("--jobs", "18446744073709551615", o));
  EXPECT_TRUE(Parse("--file-timeout-ms", "4294967295", o));
  EXPECT_EQ(o.file_timeout_ms, 4294967295u);
  EXPECT_FALSE(Parse("--file-timeout-ms", "4294967296", o));  // overflows uint32_t
}

TEST(ScanOptionFieldsTest, ValueParsersValidate) {
  ScanOptions o;
  EXPECT_TRUE(Parse("--max-failure-ratio", "0", o));
  EXPECT_TRUE(Parse("--max-failure-ratio", "1", o));
  EXPECT_TRUE(Parse("--max-failure-ratio", "0.5", o));
  EXPECT_EQ(o.max_failure_ratio, 0.5);
  for (const char* bad : {"1.5", "-0.1", "nan", "x", ""}) {
    EXPECT_FALSE(Parse("--max-failure-ratio", bad, o)) << bad;
  }
  EXPECT_TRUE(Parse("--patterns", "1,4,10", o));
  EXPECT_EQ(o.enabled_patterns, (std::set<int>{1, 4, 10}));
  EXPECT_FALSE(Parse("--patterns", "0", o));
  EXPECT_TRUE(Parse("--dialect", "glib", o));
  EXPECT_TRUE(Parse("--dialect", "uacpi", o));  // repeatable: appends
  EXPECT_EQ(o.dialects, (std::vector<std::string>{"glib", "uacpi"}));
  EXPECT_FALSE(Parse("--dialect", "gtk", o));
  EXPECT_TRUE(Parse("--cache-dir", "/tmp/c", o));
  EXPECT_EQ(o.cache_dir, "/tmp/c");
}

TEST(ParseUnsignedTest, BoundsAndRejections) {
  uint64_t v = 42;
  EXPECT_TRUE(ParseUnsigned("0", 10, v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUnsigned("10", 10, v));
  EXPECT_FALSE(ParseUnsigned("11", 10, v));
  EXPECT_FALSE(ParseUnsigned("-0", 10, v));
  EXPECT_FALSE(ParseUnsigned("99999999999999999999", std::numeric_limits<uint64_t>::max(), v));
  EXPECT_EQ(v, 10u);
}

}  // namespace
}  // namespace refscan
