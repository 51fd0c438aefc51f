// Exactness of the dispatched CRC-32 kernel: both tables against the
// standard check value and against an independent bit-at-a-time reference
// over every length 0..4096 at every start offset 0..63, over one full
// 96x72 Frame payload, and across arbitrary split points of a chained
// update. The wire seals every message with this function, so any
// divergence between tables would make the bytes on the wire depend on the
// machine.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "simd/dispatch.hpp"

namespace lumichat::simd {
namespace {

constexpr std::uint32_t kInit = 0xFFFFFFFFu;

/// Bitwise reference: one polynomial step per input bit, no tables.
std::uint32_t reference_update(std::uint32_t state, const std::uint8_t* data,
                               std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    state ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1u)));
    }
  }
  return state;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    b = static_cast<std::uint8_t>(seed >> 56);
  }
  return out;
}

/// Every table this build and CPU can run.
std::vector<const Kernels*> tables() {
  std::vector<const Kernels*> out{&scalar_kernels()};
  if (const Kernels* avx2 = avx2_kernels()) out.push_back(avx2);
  return out;
}

TEST(Crc32Kernel, KnownAnswers) {
  const char* check = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(check);
  for (const Kernels* k : tables()) {
    EXPECT_EQ(k->crc32_update(kInit, p, std::strlen(check)) ^ kInit,
              0xCBF43926u)
        << k->name;
    EXPECT_EQ(k->crc32_update(kInit, p, 0) ^ kInit, 0u) << k->name;
  }
  EXPECT_EQ(reference_update(kInit, p, std::strlen(check)) ^ kInit,
            0xCBF43926u);
}

TEST(Crc32Kernel, MatchesReferenceAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 4096;
  constexpr std::size_t kMaxOffset = 63;
  const auto buf = random_bytes(kMaxLen + kMaxOffset, 31);
  const auto all = tables();
  for (std::size_t off = 0; off <= kMaxOffset; ++off) {
    const std::uint8_t* p = buf.data() + off;
    // The reference state over p[0, len) for every len, built in one pass.
    std::uint32_t ref = kInit;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      for (const Kernels* k : all) {
        const std::uint32_t got = k->crc32_update(kInit, p, len);
        if (got != ref) {
          ADD_FAILURE() << k->name << " len=" << len << " off=" << off
                        << " got=" << got << " want=" << ref;
          return;
        }
      }
      if (len < kMaxLen) ref = reference_update(ref, p + len, 1);
    }
  }
}

TEST(Crc32Kernel, MatchesReferenceOnFullFramePayload) {
  // One 96x72 transmitted + received pair of f64 RGB planes plus the
  // 32-byte fixed Frame prefix: the span every wire frame seals.
  const std::size_t payload = 32 + 2 * 96 * 72 * 3 * sizeof(double);
  const auto buf = random_bytes(payload, 96072);
  const std::uint32_t want = reference_update(kInit, buf.data(), payload);
  for (const Kernels* k : tables()) {
    EXPECT_EQ(k->crc32_update(kInit, buf.data(), payload), want) << k->name;
  }
}

TEST(Crc32Kernel, ChainedUpdatesEqualOnePass) {
  constexpr std::size_t kLen = 2048 + 13;
  const auto buf = random_bytes(kLen, 77);
  const auto all = tables();
  const std::uint32_t whole = reference_update(kInit, buf.data(), kLen);
  for (std::size_t split = 0; split <= kLen; ++split) {
    // Every (first table, second table) pair: the running state is the
    // same raw register whichever table produced it.
    for (const Kernels* a : all) {
      for (const Kernels* b : all) {
        const std::uint32_t head = a->crc32_update(kInit, buf.data(), split);
        const std::uint32_t got =
            b->crc32_update(head, buf.data() + split, kLen - split);
        if (got != whole) {
          ADD_FAILURE() << a->name << "+" << b->name << " split=" << split;
          return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lumichat::simd
