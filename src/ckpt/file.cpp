#include "ckpt/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "ckpt/bytes.h"
#include "ckpt/crc32.h"

namespace mach::ckpt {

namespace {

constexpr std::uint8_t kMagic[8] = {'M', 'A', 'C', 'H', 'C', 'K', 'P', 0x01};
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4;

/// Persists a rename: fsyncs the directory holding `path`. Best effort:
/// some filesystems refuse O_RDONLY on directories.
void fsync_parent_dir(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

bool fail(std::string* error, std::string reason) {
  if (error != nullptr) *error = std::move(reason);
  return false;
}

}  // namespace

void throw_errno(const std::string& what, const std::string& path) {
  const int err = errno;
  throw std::runtime_error(what + " " + path + ": " + std::strerror(err));
}

void write_all(int fd, std::span<const std::uint8_t> bytes,
               const std::string& path) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("cannot write", path);
    }
    done += static_cast<std::size_t>(n);
  }
}

void write_durable_file(
    const std::string& path,
    std::initializer_list<std::span<const std::uint8_t>> parts) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot create", tmp);
  try {
    for (const auto part : parts) write_all(fd, part, tmp);
    if (::fsync(fd) != 0) throw_errno("fsync failed for", tmp);
    // close(2) releases the descriptor even when it fails: never close twice.
    if (::close(std::exchange(fd, -1)) != 0) throw_errno("close failed for", tmp);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      throw_errno("rename failed for", path);
    }
  } catch (...) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  // Persist the rename itself, so the new entry survives a power cut, not
  // just a process kill.
  fsync_parent_dir(path);
}

void write_checkpoint_file(const std::string& path, std::uint32_t version,
                           std::span<const std::uint8_t> payload) {
  ByteWriter header;
  for (const std::uint8_t b : kMagic) header.u8(b);
  header.u32(version);
  header.u64(payload.size());
  header.u32(crc32(payload));
  write_durable_file(path, {header.data(), payload});
}

std::optional<CheckpointBlob> read_checkpoint_file(const std::string& path,
                                                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(error, "cannot open " + path + ": " + std::strerror(errno));
    return std::nullopt;
  }
  std::vector<std::uint8_t> raw((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  // Zero-length and truncated-header files are the normal debris of a crash
  // between open and the first write of a non-atomic writer (or of a full
  // disk); both are corrupt snapshots, named distinctly for the fallback log.
  if (raw.empty()) {
    fail(error, path + ": empty snapshot file (zero bytes)");
    return std::nullopt;
  }
  if (raw.size() < kHeaderSize) {
    fail(error, path + ": truncated header (" + std::to_string(raw.size()) +
                    " of " + std::to_string(kHeaderSize) + " header bytes)");
    return std::nullopt;
  }
  ByteReader reader(raw);
  for (const std::uint8_t expected : kMagic) {
    if (reader.u8() != expected) {
      fail(error, path + ": bad magic");
      return std::nullopt;
    }
  }
  CheckpointBlob blob;
  blob.version = reader.u32();
  const std::uint64_t declared = reader.u64();
  const std::uint32_t stored_crc = reader.u32();
  if (declared != raw.size() - kHeaderSize) {
    fail(error, path + ": truncated payload (declared " + std::to_string(declared) +
                    " bytes, found " + std::to_string(raw.size() - kHeaderSize) + ")");
    return std::nullopt;
  }
  blob.payload.assign(raw.begin() + kHeaderSize, raw.end());
  const std::uint32_t actual_crc = crc32(blob.payload);
  if (actual_crc != stored_crc) {
    fail(error, path + ": CRC mismatch (corrupt payload)");
    return std::nullopt;
  }
  return blob;
}

}  // namespace mach::ckpt
