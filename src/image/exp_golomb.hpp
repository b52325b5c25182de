// Exp-Golomb order-0 codes, the entropy coding of the swebp and lossless
// image codecs: ue(v) is N zeros, then v + 1 in N + 1 bits, where N is the
// position of v + 1's top bit; se(v) maps 0, 1, -1, 2, -2, ... onto ue's
// 0, 1, 2, 3, 4, ....
#pragma once

#include <bit>
#include <cstdint>

#include "util/bytes.hpp"

namespace sonic::image {

// ue(v) as one 2N + 1-bit write, which fits 32 bits while v + 1 < 2^16.
// Both encoders stay far below that: swebp's quantized DCT levels and DC
// deltas lie within ±2048 (v + 1 <= 4097; quantizers are >= 1 and an 8x8
// DCT of samples within ±128 stays within ±1024), and lossless residuals
// within ±255 (v + 1 <= 511).
inline void put_ue(util::BitWriter& bw, std::uint32_t v) {
  const std::uint32_t vp1 = v + 1;
  bw.bits(vp1, 2 * std::bit_width(vp1) - 1);
}

inline void put_se(util::BitWriter& bw, int v) {
  put_ue(bw, v <= 0 ? static_cast<std::uint32_t>(-2 * v) : static_cast<std::uint32_t>(2 * v - 1));
}

}  // namespace sonic::image
