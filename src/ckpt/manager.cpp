#include "ckpt/manager.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "ckpt/file.h"
#include "ckpt/run_state.h"
#include "common/log.h"

namespace mach::ckpt {

namespace fs = std::filesystem;

namespace {

constexpr char kPrefix[] = "ckpt_";
constexpr char kSuffix[] = ".mach";
constexpr int kStepDigits = 12;

std::string snapshot_name(std::uint64_t step) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s%0*llu%s", kPrefix, kStepDigits,
                static_cast<unsigned long long>(step), kSuffix);
  return buffer;
}

/// Parses `ckpt_<digits>.mach` back to its step; nullopt for foreign files.
std::optional<std::uint64_t> parse_step(const std::string& name) {
  const std::size_t prefix_len = sizeof(kPrefix) - 1;
  const std::size_t suffix_len = sizeof(kSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return std::nullopt;
  if (name.compare(0, prefix_len, kPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t step = 0;
  for (std::size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    step = step * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return step;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, std::size_t keep)
    : dir_(std::move(dir)), keep_(std::max<std::size_t>(keep, 1)) {
  if (dir_.empty()) {
    throw std::invalid_argument("CheckpointManager: empty directory");
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("CheckpointManager: cannot create " + dir_ + ": " +
                             ec.message());
  }
}

std::string CheckpointManager::save(std::uint64_t step,
                                    std::span<const std::uint8_t> payload) const {
  const std::string path = (fs::path(dir_) / snapshot_name(step)).string();
  write_checkpoint_file(path, kRunStateVersion, payload);

  // Keep the newest `keep_` snapshots; everything older is garbage. Deleting
  // after the rename means a crash mid-GC leaves extra files, never fewer.
  std::vector<std::string> snapshots = list();
  while (snapshots.size() > keep_) {
    std::error_code ec;
    fs::remove(snapshots.front(), ec);
    snapshots.erase(snapshots.begin());
  }
  return path;
}

std::vector<std::string> CheckpointManager::list() const {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (const auto step = parse_step(name)) {
      found.emplace_back(*step, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [step, path] : found) paths.push_back(std::move(path));
  return paths;
}

std::optional<LoadedCheckpoint> CheckpointManager::load_latest() const {
  std::vector<std::string> snapshots = list();
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    std::string error;
    auto blob = read_checkpoint_file(*it, &error);
    // Another payload layout cannot resume this engine: skipped like a torn
    // file, so an older snapshot of the current layout still can.
    if (blob.has_value() && blob->version != kRunStateVersion) {
      error = *it + ": payload version " + std::to_string(blob->version) +
              " (this engine reads " + std::to_string(kRunStateVersion) + ")";
      blob.reset();
    }
    if (blob.has_value()) {
      LoadedCheckpoint loaded;
      loaded.step = parse_step(fs::path(*it).filename().string()).value_or(0);
      loaded.payload = std::move(blob->payload);
      // Name what was actually restored: after a corrupt-latest fallback the
      // "resumed from" step differs from the newest filename, and a silent
      // substitution is exactly what an operator debugging lost work needs
      // surfaced.
      common::log_info("checkpoint: loaded ", *it, " (step ", loaded.step, ")");
      return loaded;
    }
    common::log_warn("checkpoint: skipping invalid snapshot — ", error,
                     " (falling back to previous snapshot)");
  }
  return std::nullopt;
}

}  // namespace mach::ckpt
