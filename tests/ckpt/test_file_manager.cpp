// Checkpoint file-format and directory-manager coverage: atomic write/read
// round-trips, torn-file detection (short header, truncated payload, flipped
// bits vs CRC), failed writes that leave no temp file, keep-K garbage
// collection, the corrupt-latest fallback and the version rule (snapshots of
// another payload version are skipped).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/file.h"
#include "ckpt/manager.h"
#include "ckpt/run_state.h"

namespace mach::ckpt {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> payload_of(std::initializer_list<std::uint8_t> bytes) {
  return std::vector<std::uint8_t>(bytes);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

/// Overwrites the file with its first `bytes` bytes.
void truncate_file(const std::string& path, std::size_t bytes) {
  std::error_code ec;
  fs::resize_file(path, bytes, ec);
  ASSERT_FALSE(ec) << ec.message();
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

TEST(CheckpointFile, RoundTrip) {
  const std::string path = testing::TempDir() + "roundtrip.mach";
  const auto payload = payload_of({1, 2, 3, 4, 5});
  write_checkpoint_file(path, 7, payload);
  std::string error;
  const auto blob = read_checkpoint_file(path, &error);
  ASSERT_TRUE(blob.has_value()) << error;
  EXPECT_EQ(blob->version, 7u);
  EXPECT_EQ(blob->payload, payload);
  std::remove(path.c_str());
}

TEST(CheckpointFile, OverwriteIsAtomicAndKeepsTheNewContent) {
  const std::string path = testing::TempDir() + "overwrite.mach";
  write_checkpoint_file(path, 1, payload_of({1, 1, 1}));
  write_checkpoint_file(path, 2, payload_of({2, 2}));
  const auto blob = read_checkpoint_file(path);
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(blob->version, 2u);
  EXPECT_EQ(blob->payload, payload_of({2, 2}));
  // No .tmp siblings survive a successful write.
  for (const auto& entry : fs::directory_iterator(testing::TempDir())) {
    EXPECT_EQ(entry.path().string().find("overwrite.mach.tmp"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileReportsReason) {
  std::string error;
  EXPECT_FALSE(read_checkpoint_file("/no/such/ckpt.mach", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointFile, ShortHeaderReportsReason) {
  const std::string path = testing::TempDir() + "short.mach";
  write_checkpoint_file(path, 1, payload_of({9, 9, 9, 9}));
  truncate_file(path, 10);  // inside the 24-byte header
  std::string error;
  EXPECT_FALSE(read_checkpoint_file(path, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(CheckpointFile, TruncatedPayloadReportsReason) {
  const std::string path = testing::TempDir() + "torn.mach";
  write_checkpoint_file(path, 1, std::vector<std::uint8_t>(64, 0xEE));
  truncate_file(path, 24 + 32);  // header intact, payload cut in half
  std::string error;
  EXPECT_FALSE(read_checkpoint_file(path, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(CheckpointFile, BadMagicReportsReason) {
  const std::string path = testing::TempDir() + "magic.mach";
  write_checkpoint_file(path, 1, payload_of({1}));
  flip_byte(path, 2);  // inside the magic
  std::string error;
  EXPECT_FALSE(read_checkpoint_file(path, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(CheckpointFile, BitFlipInPayloadFailsTheCrc) {
  const std::string path = testing::TempDir() + "bitflip.mach";
  write_checkpoint_file(path, 1, std::vector<std::uint8_t>(48, 0x33));
  flip_byte(path, 24 + 17);
  std::string error;
  EXPECT_FALSE(read_checkpoint_file(path, &error).has_value());
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  std::remove(path.c_str());
}

std::ptrdiff_t entries_in(const std::string& dir) {
  return std::distance(fs::directory_iterator(dir), fs::directory_iterator());
}

TEST(CheckpointFile, WriteIntoAMissingDirectoryThrowsAndLeavesNoTemp) {
  const std::string dir =
      fresh_dir("ckpt_missing_" + std::to_string(::getpid()));
  const std::string path = dir + "/snap.mach";
  try {
    write_checkpoint_file(path, 1, payload_of({1, 2, 3}));
    ADD_FAILURE() << "wrote into a missing directory";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ".tmp."), std::string::npos)
        << e.what();
  }
  // Nothing was created: neither the directory nor a temp file in it.
  EXPECT_FALSE(fs::exists(dir));
}

TEST(CheckpointFile, FailedRenameClosesAndUnlinksTheTemp) {
  // A non-empty directory at the target makes rename(2) fail after the temp
  // file was written, fsync'd and closed.
  const std::string dir = fresh_dir("ckpt_rename_" + std::to_string(::getpid()));
  const std::string path = dir + "/snap.mach";
  fs::create_directories(path + "/occupied");
  const std::ptrdiff_t descriptors = entries_in("/proc/self/fd");
  EXPECT_THROW(write_checkpoint_file(path, 1, payload_of({1, 2, 3})),
               std::runtime_error);
  EXPECT_EQ(entries_in("/proc/self/fd"), descriptors);
  // Only the occupied target is left: no temp file survives.
  EXPECT_EQ(entries_in(dir), 1);
  EXPECT_TRUE(fs::is_directory(path));
  fs::remove_all(dir);
}

TEST(CheckpointManager, EmptyDirIsRejected) {
  EXPECT_THROW(CheckpointManager("", 2), std::invalid_argument);
}

TEST(CheckpointManager, KeepsOnlyTheNewestK) {
  const std::string dir = fresh_dir("ckpt_gc");
  CheckpointManager manager(dir, 2);
  for (std::uint64_t step : {2, 4, 6, 8}) {
    manager.save(step, payload_of({static_cast<std::uint8_t>(step)}));
  }
  const auto snapshots = manager.list();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_NE(snapshots[0].find("000000000006"), std::string::npos);
  EXPECT_NE(snapshots[1].find("000000000008"), std::string::npos);
  fs::remove_all(dir);
}

TEST(CheckpointManager, LoadLatestReturnsTheNewestValidSnapshot) {
  const std::string dir = fresh_dir("ckpt_latest");
  CheckpointManager manager(dir, 3);
  manager.save(3, payload_of({3}));
  manager.save(5, payload_of({5}));
  const auto loaded = manager.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->step, 5u);
  EXPECT_EQ(loaded->payload, payload_of({5}));
  fs::remove_all(dir);
}

TEST(CheckpointManager, TornLatestFallsBackToThePreviousSnapshot) {
  const std::string dir = fresh_dir("ckpt_fallback");
  CheckpointManager manager(dir, 3);
  manager.save(3, payload_of({3, 3, 3}));
  manager.save(5, payload_of({5, 5, 5}));
  // Tear the newest file the way SIGKILL mid-write would (partial content).
  const auto snapshots = manager.list();
  ASSERT_EQ(snapshots.size(), 2u);
  truncate_file(snapshots.back(), 12);
  const auto loaded = manager.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->step, 3u);
  EXPECT_EQ(loaded->payload, payload_of({3, 3, 3}));
  fs::remove_all(dir);
}

TEST(CheckpointManager, SnapshotsOfAnotherVersionAreSkipped) {
  const std::string dir = fresh_dir("ckpt_versions");
  CheckpointManager manager(dir, 3);
  manager.save(3, payload_of({3}));
  manager.save(5, payload_of({5}));
  // The newest file carries another payload layout: it cannot resume the
  // engine, so the older snapshot of the current layout is used.
  const auto snapshots = manager.list();
  ASSERT_EQ(snapshots.size(), 2u);
  write_checkpoint_file(snapshots.back(), kRunStateVersion + 1, payload_of({5}));
  const auto loaded = manager.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->step, 3u);
  EXPECT_EQ(loaded->payload, payload_of({3}));
  // Only other versions left (an older layout too): nothing resumes.
  write_checkpoint_file(snapshots.front(), kRunStateVersion - 1, payload_of({3}));
  EXPECT_FALSE(manager.load_latest().has_value());
  fs::remove_all(dir);
}

TEST(CheckpointManager, AllSnapshotsCorruptMeansNoResume) {
  const std::string dir = fresh_dir("ckpt_all_bad");
  CheckpointManager manager(dir, 2);
  manager.save(2, payload_of({2, 2}));
  manager.save(4, payload_of({4, 4}));
  for (const auto& path : manager.list()) truncate_file(path, 5);
  EXPECT_FALSE(manager.load_latest().has_value());
  fs::remove_all(dir);
}

TEST(CheckpointManager, ForeignFilesInTheDirAreIgnored) {
  const std::string dir = fresh_dir("ckpt_foreign");
  CheckpointManager manager(dir, 2);
  manager.save(7, payload_of({7}));
  {
    std::ofstream junk(dir + "/notes.txt");
    junk << "not a checkpoint";
    std::ofstream imposter(dir + "/ckpt_xyz.mach");
    imposter << "wrong digits";
  }
  const auto snapshots = manager.list();
  ASSERT_EQ(snapshots.size(), 1u);
  const auto loaded = manager.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->step, 7u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mach::ckpt
