// Exp-Golomb order-0 codes, the entropy coding of the column, swebp and
// lossless image codecs: ue(v) is N zeros, then v + 1 in N + 1 bits, where
// N is the position of v + 1's top bit; se(v) maps 0, 1, -1, 2, -2, ...
// onto ue's 0, 1, 2, 3, 4, ....
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace sonic::image {

// Bits ue(v) occupies: 2·floor(log2(v + 1)) + 1.
inline int ue_bits(std::uint32_t v) { return 2 * (63 - std::countl_zero(std::uint64_t{v} + 1)) + 1; }

// The ue code of se(v).
inline std::uint32_t se_code(int v) {
  return v <= 0 ? static_cast<std::uint32_t>(-2 * v) : static_cast<std::uint32_t>(2 * v - 1);
}

// Largest run r with ue_bits(r) <= `bits_left`: ue_bits(r) <= b holds for
// r + 1 < 2^((b - 1) / 2 + 1).
inline std::uint64_t max_run_within(std::size_t bits_left) {
  if (bits_left == 0) return 0;
  const std::size_t e = (bits_left - 1) / 2 + 1;
  return e >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << e) - 2;
}

// ue(v) as one write of v + 1 in ue_bits(v) bits, which fits the writer's
// 56 while v + 1 < 2^28. Every encoder stays far below that: swebp's
// quantized DCT levels and DC deltas lie within ±2048 (quantizers are >= 1
// and an 8x8 DCT of samples within ±128 stays within ±1024), lossless
// residuals within ±255, and the column codec's components within 256 and
// its runs within 0xffff rows.
inline void put_ue(util::BitWriter& bw, std::uint32_t v) { bw.bits(std::uint64_t{v} + 1, ue_bits(v)); }

inline void put_se(util::BitWriter& bw, int v) { put_ue(bw, se_code(v)); }

namespace detail {

// ue(v) bit by bit: past the end reads return 0 and clear ok(), and more
// than 32 leading zeros return 0 with ok() kept.
inline std::uint32_t get_ue_bitwise(util::BitReader& br) {
  int zeros = 0;
  while (br.ok() && br.bit() == 0) {
    if (++zeros > 32) return 0;
  }
  std::uint32_t v = 1;
  for (int i = 0; i < zeros; ++i) v = (v << 1) | static_cast<std::uint32_t>(br.bit());
  return v - 1;
}

}  // namespace detail

// Codes of up to 28 leading zeros that end inside the data are read from
// the reader's 64-bit window; everything else — longer codes, codes running
// past the end — goes bit by bit with the same result.
inline std::uint32_t get_ue(util::BitReader& br) {
  const std::uint64_t w = br.window();
  const int zeros = std::countl_zero(w);
  if (zeros <= 28) {
    const int len = 2 * zeros + 1;
    if (static_cast<std::size_t>(len) <= br.bits_left()) {
      br.skip(static_cast<std::size_t>(len));
      return static_cast<std::uint32_t>(w >> (64 - len)) - 1;
    }
  }
  return detail::get_ue_bitwise(br);
}

inline int get_se(util::BitReader& br) {
  const std::uint32_t u = get_ue(br);
  return (u & 1) ? static_cast<int>((u + 1) / 2) : -static_cast<int>(u / 2);
}

}  // namespace sonic::image
