// Flat binary serialization for cache artifacts.
//
// A deliberately tiny, versioned little-endian format: fixed-width integers,
// length-prefixed strings, no alignment, no back-references. The reader is
// written for hostile input — every length is bounds-checked against the
// remaining payload, and any overrun flips a sticky ok() flag instead of
// throwing or reading out of bounds, so a truncated or bit-flipped cache
// file degrades to "cache miss", never to UB (the corruption-tolerance
// contract of src/cache).

#ifndef REFSCAN_CACHE_SERIAL_H_
#define REFSCAN_CACHE_SERIAL_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace refscan {

// FNV-1a over `data`, seedable so independent hash streams stay independent
// (the 128-bit cache keys hash the same bytes under two seeds).
uint64_t HashBytes(std::string_view data, uint64_t seed = 0xcbf29ce484222325ull);

// Both FNV-1a streams in a single pass over `data` — equivalent to two
// HashBytes calls with the two seeds, at half the memory traffic (file
// contents are the largest input the cache keys ever hash).
struct Hash128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Hash128&) const = default;
};
Hash128 HashBytesDual(std::string_view data);

// Mixes one 64-bit value into a running hash (splitmix64 finalizer).
uint64_t HashMix(uint64_t hash, uint64_t value);

class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void Str(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string TakeBytes() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  bool Bool() { return U8() != 0; }
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  std::string Str();

  // Reads an element count and rejects counts that could not possibly fit
  // in the remaining payload (>= 1 byte per element), capping the damage a
  // corrupt length field can do before the per-element reads fail.
  uint32_t Count();

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Take(size_t n);  // false (and sticky-fails) if fewer than n bytes remain

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace refscan

#endif  // REFSCAN_CACHE_SERIAL_H_
