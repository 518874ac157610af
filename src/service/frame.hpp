// tsc3d -- thermal side-channel-aware 3D floorplanning.
//
// The one artifact frame every service file uses (checkpoints, cached
// results, scenario results), and the one atomic file writer behind it.
//
// Frame layout (all integers little-endian):
//
//   magic    8 bytes, names the artifact kind ("TSC3DCKP", ...)
//   version  u64, the kind's format version (service/version.hpp)
//   size     u64, payload byte count
//   checksum u64, FNV-1a 64 of the payload
//   payload  the codec's own encoding
//
// Reading is fail-soft: EVERY defect -- missing file, wrong magic,
// unknown format version, truncated payload, checksum mismatch, a
// rejection by the codec's decoder, trailing bytes -- comes back as a
// reason string, never as an exception or a wrong accept.  Each codec
// (checkpoint_io, result_io, campaign/scenario_io) keeps only its
// records' fields() lists (service/serialize.hpp); read_record() below
// decodes the results and scenario results whole.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>

#include "core/rng.hpp"
#include "service/serialize.hpp"

namespace tsc3d::service {

/// Write `bytes` to `path` atomically and durably: a process-unique temp
/// file is written and fdatasync'd, renamed over `path`, and the parent
/// directory is fsync'd.  A reader sees either the previous file or the
/// complete new one, never a half-written file, and once this returns
/// the new file survives a power loss -- so an artifact reaches disk
/// before any marker written after it (a queue done/ entry) can.
/// Concurrent writers of the same destination each use their own temp
/// file; the last rename wins.  Throws std::runtime_error on I/O failure
/// (the temp file is removed).
void write_file_atomic(const std::filesystem::path& path,
                       std::string_view bytes);

/// One artifact kind's frame header constants.
struct FrameFormat {
  char magic[8];
  std::uint64_t version;
  const char* name;  ///< "checkpoint" -> missing file = "no checkpoint file"
};

/// Frame `payload` (magic, version, size, checksum) and write it with
/// write_file_atomic.
void write_frame(const std::filesystem::path& path, const FrameFormat& format,
                 const ByteWriter& payload);

/// Read and validate the frame at `path`, then hand its payload to
/// `decode`, which returns a rejection reason or "" to accept.  Returns
/// "" on success, otherwise the reason of the first defect (see file
/// comment).  Decoder exceptions (ByteReader truncation and kin) become
/// their what() text.
[[nodiscard]] std::string read_frame(
    const std::filesystem::path& path, const FrameFormat& format,
    const std::function<std::string(ByteReader&)>& decode);

/// Read the frame at `path` into `rec`, a record that opens with its
/// identity (a `context` member).  When `expect` is set, a stored
/// context other than `*expect` is rejected as "context mismatch" before
/// the rest of the payload is decoded.  Returns read_frame's reason.
template <class Record>
[[nodiscard]] std::string read_record(
    const std::filesystem::path& path, const FrameFormat& format,
    const decltype(Record::context)* expect, Record& rec) {
  return read_frame(path, format, [&](ByteReader& r) {
    if (expect != nullptr) {
      ByteReader head = r;
      decltype(Record::context) stored;
      head(stored);
      if (!(stored == *expect)) return std::string("context mismatch");
    }
    r(rec);
    return std::string{};
  });
}

/// The RNG stream position, as every artifact that stores one encodes it.
template <class IO, RecordOf<Rng::State> R>
void fields(IO& io, R& st) {
  io(st.s, st.cached_gaussian, st.has_cached_gaussian);
}

}  // namespace tsc3d::service
