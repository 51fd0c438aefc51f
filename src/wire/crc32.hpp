// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for wire framing.
//
// Every message carries a CRC over its header fields and payload so a
// corrupted or desynchronised byte stream is rejected at the framing layer
// instead of feeding garbage pixels into a detector. A Frame message is
// ~330 KB of f64 planes, and the checksum runs over all of it twice (client
// seal, server decode), so it dominates the wire path's CPU unless it is
// fast: the update step is the dispatched simd::Kernels::crc32_update
// (PCLMULQDQ folding on the AVX2 table, slicing-by-8 on the scalar one).
// Both tables compute the same function, so the bytes on the wire do not
// depend on the machine.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.hpp"

namespace lumichat::wire {

/// Initial running value for crc32_update chains.
inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;

/// Folds `len` bytes into a running CRC state (start from kCrc32Init).
[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t state,
                                                const std::uint8_t* data,
                                                std::size_t len) {
  return simd::active().crc32_update(state, data, len);
}

/// Finalises a running state into the emitted checksum value.
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

}  // namespace lumichat::wire
