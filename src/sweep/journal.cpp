#include "sweep/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "ckpt/bytes.h"
#include "ckpt/crc32.h"
#include "ckpt/file.h"
#include "common/log.h"

namespace mach::sweep {

namespace {

constexpr std::uint8_t kMagic[8] = {'M', 'A', 'C', 'H', 'S', 'W', 'J', 0x01};
constexpr std::size_t kFrameHeader = 4 + 4;  // payload length + CRC
// A journal record is a few hundred bytes; anything claiming more is a
// corrupt length field, not a record.
constexpr std::uint32_t kMaxPayload = 1u << 20;

std::vector<std::uint8_t> encode(const JournalRecord& record) {
  ckpt::ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(record.kind));
  payload.str(record.fingerprint);
  payload.str(record.canonical);
  payload.u32(record.attempt);
  payload.u32(static_cast<std::uint32_t>(record.exit_code));
  payload.u32(static_cast<std::uint32_t>(record.term_signal));
  payload.str(record.reason);
  return payload.data();
}

/// Decodes one payload; throws ckpt::CorruptPayload on structural damage.
JournalRecord decode(std::span<const std::uint8_t> payload) {
  ckpt::ByteReader reader(payload);
  JournalRecord record;
  const std::uint8_t kind = reader.u8();
  if (kind < 1 || kind > 3) {
    throw ckpt::CorruptPayload("sweep journal: unknown record kind");
  }
  record.kind = static_cast<RecordKind>(kind);
  record.fingerprint = reader.str();
  record.canonical = reader.str();
  record.attempt = reader.u32();
  record.exit_code = static_cast<std::int32_t>(reader.u32());
  record.term_signal = static_cast<std::int32_t>(reader.u32());
  record.reason = reader.str();
  if (!reader.at_end()) {
    throw ckpt::CorruptPayload("sweep journal: trailing bytes in record");
  }
  return record;
}

}  // namespace

SweepJournal::SweepJournal(std::string path) : path_(std::move(path)) {
  std::vector<std::uint8_t> raw;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      raw.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    }
  }

  std::size_t valid = 0;
  if (raw.empty()) {
    // Fresh journal (or debris of a crash before the header write landed):
    // start over with just the magic.
  } else if (raw.size() < sizeof(kMagic) ||
             std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0) {
    if (raw.size() >= sizeof(kMagic)) {
      throw std::runtime_error("sweep journal: " + path_ +
                               " exists but is not a mach sweep journal "
                               "(bad magic) — refusing to overwrite it");
    }
    // A torn header is crash debris, not a foreign file.
  } else {
    valid = sizeof(kMagic);
    while (valid + kFrameHeader <= raw.size()) {
      std::uint32_t length = 0;
      std::uint32_t crc = 0;
      for (int i = 0; i < 4; ++i) {
        length |= static_cast<std::uint32_t>(raw[valid + i]) << (8 * i);
        crc |= static_cast<std::uint32_t>(raw[valid + 4 + i]) << (8 * i);
      }
      if (length > kMaxPayload) break;
      if (valid + kFrameHeader + length > raw.size()) break;
      const std::span<const std::uint8_t> payload(
          raw.data() + valid + kFrameHeader, length);
      if (ckpt::crc32(payload) != crc) break;
      try {
        JournalRecord record = decode(payload);
        fold(record);
        records_.push_back(std::move(record));
      } catch (const ckpt::CorruptPayload&) {
        break;
      }
      valid += kFrameHeader + length;
    }
  }

  if (valid != raw.size() || raw.empty()) {
    // Torn tail (or empty/headerless file): rewrite the valid prefix
    // atomically so the append fd starts at a clean record boundary.
    repaired_bytes_ = raw.size() - valid;
    if (repaired_bytes_ > 0 && valid > 0) {
      common::log_warn("sweep journal: dropping ", repaired_bytes_,
                       " torn tail byte(s) from ", path_);
    }
    ckpt::write_durable_file(
        path_, {valid == 0 ? std::span<const std::uint8_t>(kMagic)
                           : std::span<const std::uint8_t>(raw.data(), valid)});
  }

  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) ckpt::throw_errno("sweep journal: cannot open for append", path_);
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void SweepJournal::append(const JournalRecord& record) {
  const std::vector<std::uint8_t> payload = encode(record);
  ckpt::ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(ckpt::crc32(payload));
  std::vector<std::uint8_t> bytes = frame.data();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  // One write, one fsync: either the whole frame is durable or replay drops
  // it as a torn tail — never a half-applied state transition.
  ckpt::write_all(fd_, bytes, path_);
  if (::fsync(fd_) != 0) {
    ckpt::throw_errno("sweep journal: fsync failed for", path_);
  }
  fold(record);
  records_.push_back(record);
}

void SweepJournal::fold(const JournalRecord& record) {
  PointState& state = states_[record.fingerprint];
  if (state.canonical.empty()) state.canonical = record.canonical;
  switch (record.kind) {
    case RecordKind::AttemptFailed:
      state.failures.push_back({record.attempt, record.exit_code,
                                record.term_signal, record.reason});
      break;
    case RecordKind::Done:
      state.done = true;
      break;
    case RecordKind::Quarantined:
      state.quarantined = true;
      break;
  }
}

}  // namespace mach::sweep
