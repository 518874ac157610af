#include "service/frame.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace tsc3d::service {

namespace {

/// A scratch name for writing `path`.  Unique per (process, call), so
/// concurrent writers of the SAME destination -- e.g. two scenario jobs
/// caching their shared exploration result -- never clobber each other's
/// half-written temp file.
std::filesystem::path unique_tmp_path(const std::filesystem::path& path) {
  static std::atomic<unsigned long long> counter{0};
  const unsigned long long n =
      counter.fetch_add(1, std::memory_order_relaxed);
  return path.string() + ".tmp." +
         std::to_string(static_cast<long long>(::getpid())) + "." +
         std::to_string(n);
}

[[noreturn]] void fail(const char* what, const std::filesystem::path& p,
                       int err) {
  throw std::runtime_error(std::string("write_file_atomic: ") + what + " " +
                           p.string() + ": " + std::strerror(err));
}

/// fsync a directory so a rename inside it is on disk.  EINVAL means
/// the filesystem cannot sync directories at all; there is nothing more
/// to do there.
void sync_dir(const std::filesystem::path& dir) {
  const std::filesystem::path d = dir.empty() ? "." : dir;
  const int fd = ::open(d.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail("cannot open directory", d, errno);
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0 && err != EINVAL) fail("cannot sync directory", d, err);
}

}  // namespace

void write_file_atomic(const std::filesystem::path& path,
                       std::string_view bytes) {
  const std::filesystem::path tmp = unique_tmp_path(path);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("cannot open", tmp, errno);
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n > 0)
      done += static_cast<std::size_t>(n);
    else if (n == 0 || errno != EINTR)
      break;
  }
  const bool written = done == bytes.size() && ::fdatasync(fd) == 0;
  const int err = errno;
  if (::close(fd) != 0 || !written) {
    const int why = written ? errno : err;
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    fail("cannot write", tmp, why);
  }
  std::filesystem::rename(tmp, path);
  sync_dir(path.parent_path());
}

void write_frame(const std::filesystem::path& path, const FrameFormat& format,
                 const ByteWriter& payload) {
  const std::vector<std::uint8_t>& body = payload.bytes();
  ByteWriter file;
  for (const char m : format.magic) file.u8(static_cast<std::uint8_t>(m));
  file.u64(format.version);
  file.u64(body.size());
  file.u64(fnv1a64(body.data(), body.size()));
  std::string bytes(file.bytes().begin(), file.bytes().end());
  bytes.append(reinterpret_cast<const char*>(body.data()), body.size());
  write_file_atomic(path, bytes);
}

std::string read_frame(const std::filesystem::path& path,
                       const FrameFormat& format,
                       const std::function<std::string(ByteReader&)>& decode) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::string("no ") + format.name + " file";
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  try {
    ByteReader header(bytes);
    for (const char m : format.magic)
      if (header.u8() != static_cast<std::uint8_t>(m)) return "bad magic";
    if (header.u64() != format.version) return "unknown format version";
    const std::uint64_t payload_size = header.u64();
    const std::uint64_t checksum = header.u64();
    if (payload_size != header.remaining())
      return "truncated or oversized payload";
    const std::uint8_t* payload =
        bytes.data() + (bytes.size() - header.remaining());
    const auto size = static_cast<std::size_t>(payload_size);
    if (fnv1a64(payload, size) != checksum) return "checksum mismatch";

    ByteReader r(payload, size);
    std::string reason = decode(r);
    if (reason.empty() && !r.exhausted()) reason = "trailing bytes";
    return reason;
  } catch (const std::exception& e) {
    return e.what();  // ByteReader truncation and kin
  }
}

}  // namespace tsc3d::service
