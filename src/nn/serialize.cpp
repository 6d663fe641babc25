#include "nn/serialize.h"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace mach::nn {

namespace {

constexpr std::uint32_t kMagic = 0x4d414348;      // "MACH" — flat weights
constexpr std::uint32_t kOptimMagic = 0x4d4f5054;  // "MOPT" — optimizer state
constexpr std::uint32_t kVersion = 1;
// Optimizer kind discriminator inside a "MOPT" file: a file of another kind
// is a hard error, not a silent misinterpretation of the buffers.
constexpr std::uint32_t kKindSgd = 1;

/// errno as captured right after the failed stream operation. ofstream/
/// ifstream set errno on the underlying open/read/write syscalls, so this is
/// the actionable half of the error message (ENOENT, EACCES, ENOSPC, ...).
[[noreturn]] void throw_io_error(const std::string& what, const std::string& path) {
  const int err = errno;
  std::string message = what + ": " + path;
  if (err != 0) {
    message += " (";
    message += std::strerror(err);
    message += ")";
  }
  throw std::runtime_error(message);
}

void write_bytes(std::ofstream& out, const void* data, std::size_t bytes,
                 const std::string& what, const std::string& path) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out) throw_io_error(what + ": write failed", path);
}

void read_bytes(std::ifstream& in, void* data, std::size_t bytes,
                const std::string& what, const std::string& path) {
  in.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (!in) throw_io_error(what + ": truncated file", path);
}

/// Nested float buffers (SGD velocities): outer count, then per-buffer
/// length + float32 payload.
void write_buffers(std::ofstream& out, const std::vector<std::vector<float>>& buffers,
                   const std::string& what, const std::string& path) {
  const auto outer = static_cast<std::uint64_t>(buffers.size());
  write_bytes(out, &outer, sizeof(outer), what, path);
  for (const auto& buffer : buffers) {
    const auto inner = static_cast<std::uint64_t>(buffer.size());
    write_bytes(out, &inner, sizeof(inner), what, path);
    write_bytes(out, buffer.data(), buffer.size() * sizeof(float), what, path);
  }
}

std::vector<std::vector<float>> read_buffers(std::ifstream& in,
                                             const std::string& what,
                                             const std::string& path) {
  std::uint64_t outer = 0;
  read_bytes(in, &outer, sizeof(outer), what, path);
  std::vector<std::vector<float>> buffers(static_cast<std::size_t>(outer));
  for (auto& buffer : buffers) {
    std::uint64_t inner = 0;
    read_bytes(in, &inner, sizeof(inner), what, path);
    buffer.resize(static_cast<std::size_t>(inner));
    read_bytes(in, buffer.data(), buffer.size() * sizeof(float), what, path);
  }
  return buffers;
}

std::ofstream open_for_write(const std::string& path, const std::string& what) {
  errno = 0;
  std::ofstream out(path, std::ios::binary);
  if (!out) throw_io_error(what + ": cannot create", path);
  return out;
}

std::ifstream open_for_read(const std::string& path, const std::string& what) {
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_io_error(what + ": cannot open", path);
  return in;
}

/// Shared "MOPT" preamble reader: validates magic/version and returns the
/// kind tag for the caller to check against its expected optimizer.
std::uint32_t read_optimizer_preamble(std::ifstream& in, const std::string& what,
                                      const std::string& path) {
  std::uint32_t magic = 0, version = 0, kind = 0;
  read_bytes(in, &magic, sizeof(magic), what, path);
  read_bytes(in, &version, sizeof(version), what, path);
  read_bytes(in, &kind, sizeof(kind), what, path);
  if (magic != kOptimMagic) {
    throw std::runtime_error(what + ": bad magic in " + path);
  }
  if (version != kVersion) {
    throw std::runtime_error(what + ": unsupported version in " + path);
  }
  return kind;
}

}  // namespace

void save_parameters(Sequential& model, const std::string& path) {
  const std::string what = "save_parameters";
  std::ofstream out = open_for_write(path, what);
  const std::vector<float> flat = model.get_parameters();
  const auto count = static_cast<std::uint64_t>(flat.size());
  write_bytes(out, &kMagic, sizeof(kMagic), what, path);
  write_bytes(out, &kVersion, sizeof(kVersion), what, path);
  write_bytes(out, &count, sizeof(count), what, path);
  write_bytes(out, flat.data(), flat.size() * sizeof(float), what, path);
  out.flush();
  if (!out) throw_io_error(what + ": flush failed", path);
}

void load_parameters(Sequential& model, const std::string& path) {
  const std::string what = "load_parameters";
  std::ifstream in = open_for_read(path, what);
  std::uint32_t magic = 0, version = 0;
  std::uint64_t count = 0;
  read_bytes(in, &magic, sizeof(magic), what, path);
  if (magic != kMagic) {
    throw std::runtime_error(what + ": bad magic in " + path);
  }
  read_bytes(in, &version, sizeof(version), what, path);
  if (version != kVersion) {
    throw std::runtime_error(what + ": unsupported version in " + path);
  }
  read_bytes(in, &count, sizeof(count), what, path);
  if (count != model.num_parameters()) {
    throw std::invalid_argument(what + ": parameter count mismatch");
  }
  std::vector<float> flat(count);
  read_bytes(in, flat.data(), flat.size() * sizeof(float), what, path);
  model.set_parameters(flat);
}

void save_optimizer_state(const Sgd& optimizer, const std::string& path) {
  const std::string what = "save_optimizer_state(sgd)";
  std::ofstream out = open_for_write(path, what);
  write_bytes(out, &kOptimMagic, sizeof(kOptimMagic), what, path);
  write_bytes(out, &kVersion, sizeof(kVersion), what, path);
  write_bytes(out, &kKindSgd, sizeof(kKindSgd), what, path);
  write_buffers(out, optimizer.velocities(), what, path);
  out.flush();
  if (!out) throw_io_error(what + ": flush failed", path);
}

void load_optimizer_state(Sgd& optimizer, const std::string& path) {
  const std::string what = "load_optimizer_state(sgd)";
  std::ifstream in = open_for_read(path, what);
  if (read_optimizer_preamble(in, what, path) != kKindSgd) {
    throw std::runtime_error(what + ": " + path + " holds a different optimizer kind");
  }
  optimizer.set_velocities(read_buffers(in, what, path));
}

}  // namespace mach::nn
