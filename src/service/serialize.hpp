// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// Byte-level serialization primitives for the batch exploration
// service's on-disk artifacts (checkpoints, cached results).  The
// encoding is deliberately boring: little-endian fixed-width integers,
// doubles as their IEEE-754 bit patterns (bit_cast, so round-trips are
// bitwise exact -- the resume and cache contracts depend on that), and
// length-prefixed containers.  Readers bounds-check every access and
// throw on truncation; the file-level frame (service/frame.hpp) adds
// magic, version and an FNV-1a checksum on top.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
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

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (const std::uint64_t x : v) u64(x);
  }

  void vec_size(const std::vector<std::size_t>& v) {
    u64(v.size());
    for (const std::size_t x : v) u64(x);
  }

  void vec_f64(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return buf_;
  }

 private:
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

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] bool boolean() { return u8() != 0; }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  [[nodiscard]] std::vector<std::uint64_t> vec_u64() {
    const std::uint64_t n = u64();
    need_elems(n, 8);
    std::vector<std::uint64_t> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(u64());
    return v;
  }

  [[nodiscard]] std::vector<std::size_t> vec_size() {
    const std::vector<std::uint64_t> raw = vec_u64();
    return {raw.begin(), raw.end()};
  }

  [[nodiscard]] std::vector<double> vec_f64() {
    const std::uint64_t n = u64();
    need_elems(n, 8);
    std::vector<double> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
    return v;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::uint64_t n) const {
    if (n > size_ - pos_)
      throw std::runtime_error("ByteReader: truncated artifact");
  }

  // Overflow-safe element-count check: `n * elem_size` can wrap for a
  // hostile length prefix near 2^64, which would sail past need() and
  // then loop essentially forever.  Divide instead of multiply.
  void need_elems(std::uint64_t n, std::uint64_t elem_size) const {
    if (n > (size_ - pos_) / elem_size)
      throw std::runtime_error("ByteReader: truncated artifact");
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace tsc3d::service
