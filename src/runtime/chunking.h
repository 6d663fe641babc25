// Fixed-size chunking of an index range [0, total).
//
// Both evaluation passes (test-set accuracy/loss and the confusion matrix)
// walk the test split in contiguous chunks, one parallel section over the
// chunks, and gather each chunk into one batch; these helpers are the single
// source of that chunk geometry.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace mach::runtime {

/// Half-open index range of one chunk.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const noexcept { return end - begin; }
};

/// Number of chunks covering [0, total) at the given chunk size.
inline std::size_t num_chunks(std::size_t total, std::size_t chunk_size) noexcept {
  return chunk_size == 0 ? 0 : (total + chunk_size - 1) / chunk_size;
}

/// The chunk_index-th chunk of [0, total); the last chunk may be short.
inline ChunkRange chunk_range(std::size_t chunk_index, std::size_t total,
                              std::size_t chunk_size) noexcept {
  const std::size_t begin = std::min(chunk_index * chunk_size, total);
  return ChunkRange{begin, std::min(begin + chunk_size, total)};
}

/// Fills `indices` with range.begin .. range.end-1 (the gather pattern the
/// evaluation paths share). Reuses the vector's capacity.
inline void fill_iota(std::vector<std::size_t>& indices, ChunkRange range) {
  indices.resize(range.size());
  for (std::size_t i = range.begin; i < range.end; ++i) {
    indices[i - range.begin] = i;
  }
}

}  // namespace mach::runtime
