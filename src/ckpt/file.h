// Crash-safe checkpoint file I/O.
//
// On-disk layout (little-endian):
//   offset 0   8 bytes  magic "MACHCKP\x01"
//   offset 8   u32      payload format version (caller-defined)
//   offset 12  u64      payload size in bytes
//   offset 20  u32      CRC-32 of the payload
//   offset 24  ...      payload
//
// Writes go through write_durable_file: a `<path>.tmp.<pid>` sibling is
// written and fsync'd, then atomically renamed over `path`, and the
// containing directory is fsync'd — a reader (including a resumed process
// after SIGKILL) only ever sees either the complete previous file or the
// complete new one. The sweep journal's repair and the sweep report use the
// same function. Reads validate magic, declared length against the real
// file size, and the CRC; any mismatch is reported as a reason string,
// never thrown — torn files are an expected input after a crash.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mach::ckpt {

struct CheckpointBlob {
  std::uint32_t version = 0;
  std::vector<std::uint8_t> payload;
};

/// Throws std::runtime_error "<what> <path>: <strerror(errno)>".
[[noreturn]] void throw_errno(const std::string& what, const std::string& path);

/// Writes every byte to `fd`, retrying short writes and EINTR. `path` names
/// the file in the error thrown (through throw_errno) when write(2) fails.
void write_all(int fd, std::span<const std::uint8_t> bytes,
               const std::string& path);

/// Atomically and durably (re)writes `path` with the concatenation of
/// `parts`: temp sibling, write loop, fsync, close, rename, fsync of the
/// directory. Throws through throw_errno when the filesystem refuses
/// (missing or unwritable directory, disk full); on every failure the
/// descriptor is closed and the temp file unlinked.
void write_durable_file(const std::string& path,
                        std::initializer_list<std::span<const std::uint8_t>> parts);

/// Atomically (re)writes `path` through write_durable_file.
void write_checkpoint_file(const std::string& path, std::uint32_t version,
                           std::span<const std::uint8_t> payload);

/// Reads and validates `path`. Returns nullopt and fills `error` (when
/// non-null) with the reason on any validation failure — missing file, short
/// header, bad magic, truncated payload, CRC mismatch.
std::optional<CheckpointBlob> read_checkpoint_file(const std::string& path,
                                                   std::string* error = nullptr);

}  // namespace mach::ckpt
