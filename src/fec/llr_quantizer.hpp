// Soft bytes from max-log LLRs. The receiver's demappers hand out
// llr = ln(P(bit == 1) / P(bit == 0)); the Viterbi decoder takes bytes.
// The byte of a received bit is defined in the probability domain:
//
//   llr_soft_byte_reference(llr, flip)
//       = ConvolutionalCodec::quantize_soft(flip ? 1 - p : p),
//   p = 1 / (1 + exp(-llr)) in float (libm expf),
//
// flip being the bit's scrambler bit. LlrQuantizer gives the same byte
// from one table lookup, with no expf or divide.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fec/convolutional.hpp"
#include "util/lanes.hpp"

namespace sonic::fec {

// P(bit == 1) of a bit whose LLR is `llr`: 1.0f / (1.0f + std::exp(-llr)).
float llr_probability(float llr);

// quantize_soft(flip ? 1 - p : p), p = llr_probability(llr). The flip comes
// before the quantizer: 254 - quantize_soft(p) is a different byte at 2382
// floats.
std::uint8_t llr_soft_byte_reference(float llr, bool flip);

// llr_soft_byte_reference as a step function of the LLR. Per flip the byte
// is monotone in the LLR (checked over all 2^32 floats by
// `bench/micro_dsp_fec --exhaustive-llr`), so it changes at 254 thresholds.
// The table keys the flip = 1 byte by -llr, which makes both keyed
// functions nondecreasing. Keys from kLo to kLo + kBuckets / kScale fall in
// kBuckets equal buckets (the end buckets extend to -inf and +inf); each
// bucket holds at most one threshold, since a bucket (1/80 wide) is
// narrower than the thresholds' smallest spacing (4/254 near LLR 0, where
// dp/dllr peaks at 1/4). The byte of key k in bucket b is
// base[b] + (thr[b] <= k), with NaN as the sentinel of a bucket without a
// threshold (NaN <= k is false for every k, +inf included); a NaN LLR
// reads as kSoftErasure.
//
// The table is built once per process, at run time, by a binary search
// over the ordered float keys on llr_soft_byte_reference, so it follows
// the libm the reference calls. Building it throws std::runtime_error if
// two thresholds share a bucket (a jump of two bytes at one float, or a
// libm whose thresholds crowd closer than a bucket).
class LlrQuantizer {
 public:
  // The process's table.
  static const LlrQuantizer& get();

  // The soft bytes of four received bits: byte l is
  // llr_soft_byte_reference(llr[l], flip[l]), flip[l] being 0 or 1. The
  // keys and their buckets are lane selects, not branches: a confident
  // bit's LLR lies beyond the table's range, so a clamp branch would go
  // both ways on received data.
  std::array<std::uint8_t, 4> operator()(util::Lanes4::F llr, util::Lanes4::I flip) const {
    using U = util::Lanes4::U;
    const auto sign = reinterpret_cast<U>(flip) << 31;
    const auto key = reinterpret_cast<util::Lanes4::F>(reinterpret_cast<U>(llr) ^ sign);
    const util::Lanes4::I b = buckets(key) + flip * static_cast<int>(kBuckets);
    return {byte(b[0], key[0]), byte(b[1], key[1]), byte(b[2], key[2]), byte(b[3], key[3])};
  }

  // The soft byte of one received bit: llr_soft_byte_reference(llr, flip).
  std::uint8_t operator()(float llr, bool flip) const {
    const auto key = std::bit_cast<float>(std::bit_cast<std::uint32_t>(llr) ^ (std::uint32_t{flip} << 31));
    return byte(buckets(util::Lanes4::F{key})[0] + static_cast<int>(flip) * static_cast<int>(kBuckets), key);
  }

  // The keys at which the byte of `flip` steps up by one, ascending (the
  // LLRs themselves for flip = 0, their negations for flip = 1).
  std::vector<float> thresholds(bool flip) const;

 private:
  static constexpr std::size_t kBuckets = 1024;
  static constexpr float kLo = -6.4f;
  static constexpr float kScale = 80.0f;

  LlrQuantizer();

  // The bucket of each key: (key - kLo) * kScale, clamped to
  // [0, kBuckets - 1] (NaN to 0), truncated. Monotone in the key.
  static util::Lanes4::I buckets(util::Lanes4::F key) {
    auto t = (key - kLo) * kScale;
    t = t > 0.0f ? t : 0.0f;
    t = t < static_cast<float>(kBuckets - 1) ? t : static_cast<float>(kBuckets - 1);
    return __builtin_convertvector(t, util::Lanes4::I);
  }

  // The byte of `key` in table entry `b` (a bucket, plus kBuckets where
  // flip); a NaN key reads as the erasure.
  std::uint8_t byte(int b, float key) const {
    const int q = base_[b] + (thr_[b] <= key);
    return static_cast<std::uint8_t>(key != key ? ConvolutionalCodec::kSoftErasure : q);
  }

  float thr_[2 * kBuckets];
  std::uint8_t base_[2 * kBuckets];
};

}  // namespace sonic::fec
