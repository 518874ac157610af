// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Byte-level serialization for the batch exploration service's on-disk
// artifacts (checkpoints, cached results, scenario results).  The
// encoding is deliberately boring: every unsigned integer as a
// little-endian u64, doubles as their IEEE-754 bit patterns (bit_cast,
// so round-trips are bitwise exact -- the resume and cache contracts
// depend on that), bools as one byte, and a u64 count before every
// string and vector.
//
// Each persisted record lists its fields ONCE, in on-disk order, in a
// fields(io, rec) template beside its codec, e.g.
//
//   template <class IO, RecordOf<StoredTsv> R>
//   void fields(IO& io, R& t) { io(t.x, t.y, t.count, t.kind, t.net); }
//
// ByteWriter and ByteReader both accept io(a, b, ...): the writer appends
// each field, the reader overwrites it, and a nested record recurses into
// its own fields() (found by argument-dependent lookup).  Encoder and
// decoder therefore cannot disagree; tests/test_artifact_golden.cpp pins
// the resulting bytes.  The reader bounds-checks every access -- a
// container count against the remaining payload before anything is
// allocated -- and throws on truncation; the file-level frame
// (service/frame.hpp) adds magic, version and an FNV-1a checksum on top.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace tsc3d::service {

/// FNV-1a 64-bit over a byte range; `seed` chains multiple ranges.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

[[nodiscard]] inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                                           std::uint64_t seed = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(p[i]);
    h *= kFnvPrime;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a64(const std::string& s,
                                           std::uint64_t seed = kFnvOffset) {
  return fnv1a64(s.data(), s.size(), seed);
}

/// `R` is the record `T`, const for ByteWriter or mutable for ByteReader,
/// so one fields(io, rec) template serves both directions.
template <class R, class T>
concept RecordOf = std::same_as<std::remove_const_t<R>, T>;

namespace detail {
template <class T>
inline constexpr bool is_vector = false;
template <class T, class A>
inline constexpr bool is_vector<std::vector<T, A>> = true;
/// std::uint64_t and std::size_t (bool is one byte, so it never matches).
template <class T>
concept Word = std::unsigned_integral<T> && sizeof(T) == 8;
}  // namespace detail

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  /// Append each field in order (see file comment).
  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return buf_;
  }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::same_as<T, bool>) {
      u8(v ? 1 : 0);
    } else if constexpr (std::same_as<T, double>) {
      u64(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (detail::Word<T>) {
      u64(v);
    } else if constexpr (std::same_as<T, std::string>) {
      u64(v.size());
      buf_.insert(buf_.end(), v.begin(), v.end());
    } else if constexpr (std::is_array_v<T>) {
      for (const auto& x : v) put(x);
    } else if constexpr (detail::is_vector<T>) {
      u64(v.size());
      for (const auto& x : v) put(x);
    } else {
      fields(*this, v);
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a byte range; throws std::runtime_error on
/// any read past the end (truncated / corrupt artifact).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(
                                                       i)])
           << (8 * i);
    pos_ += 8;
    return v;
  }

  /// Overwrite each field in order (see file comment).
  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  template <class T>
  void get(T& v) {
    if constexpr (std::same_as<T, bool>) {
      v = u8() != 0;
    } else if constexpr (std::same_as<T, double>) {
      v = std::bit_cast<double>(u64());
    } else if constexpr (detail::Word<T>) {
      v = u64();
    } else if constexpr (std::same_as<T, std::string>) {
      const std::size_t n = count();
      v.assign(reinterpret_cast<const char*>(data_ + pos_), n);
      pos_ += n;
    } else if constexpr (std::is_array_v<T>) {
      for (auto& x : v) get(x);
    } else if constexpr (detail::is_vector<T>) {
      // Nothing is reserved: the vector grows only as elements decode.
      const std::size_t n = count();
      v.clear();
      for (std::size_t i = 0; i < n; ++i) get(v.emplace_back());
    } else {
      fields(*this, v);
    }
  }

  /// Read a container's element count and reject one the rest of the
  /// payload cannot hold at one byte per element (every encoding takes at
  /// least one), so a hostile count -- 2^40, or near 2^64 -- is a clean
  /// truncation before anything is allocated.
  std::size_t count() {
    const std::uint64_t n = u64();
    need(n);
    return static_cast<std::size_t>(n);
  }

  void need(std::uint64_t n) const {
    if (n > remaining()) truncated();
  }

  [[noreturn]] static void truncated() {
    throw std::runtime_error("ByteReader: truncated artifact");
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace tsc3d::service
