// Little-endian wire primitives for codec payloads (internal to src/comm/).
//
// Codec payloads are raw byte vectors with an explicit little-endian layout,
// so encoded sizes — the quantity the ByteLedger charges per message — are
// platform-independent and byte-exact. std::bit_cast keeps every float <->
// bits conversion UBSan-clean (no unions, no type-punned pointers).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace mach::comm::wire {

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

inline void put_f32(std::vector<std::uint8_t>& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}

/// Writes v's four little-endian bytes at p (a payload sized beforehand).
inline void set_f32(std::uint8_t* p, float v) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
  for (int b = 0; b < 4; ++b) p[b] = static_cast<std::uint8_t>(bits >> (8 * b));
}

inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline float get_f32(const std::uint8_t* p) {
  return std::bit_cast<float>(get_u32(p));
}

}  // namespace mach::comm::wire
