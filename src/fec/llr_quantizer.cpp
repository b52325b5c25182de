#include "fec/llr_quantizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sonic::fec {
namespace {

// Non-NaN floats onto uint32 in float order: -inf lowest, -0 just below +0,
// +inf highest.
std::uint32_t ordered(float x) {
  const auto u = std::bit_cast<std::uint32_t>(x);
  return u & 0x80000000u ? ~u : u | 0x80000000u;
}

float from_ordered(std::uint32_t k) { return std::bit_cast<float>(k & 0x80000000u ? k & 0x7fffffffu : ~k); }

}  // namespace

float llr_probability(float llr) { return 1.0f / (1.0f + std::exp(-llr)); }

std::uint8_t llr_soft_byte_reference(float llr, bool flip) {
  const float p = llr_probability(llr);
  return ConvolutionalCodec::quantize_soft(flip ? 1.0f - p : p);
}

const LlrQuantizer& LlrQuantizer::get() {
  static const LlrQuantizer table;
  return table;
}

LlrQuantizer::LlrQuantizer() {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const bool flip : {false, true}) {
    const auto byte = [flip](float key) { return llr_soft_byte_reference(flip ? -key : key, flip); };
    float* thr = thr_ + static_cast<std::size_t>(flip) * kBuckets;
    std::uint8_t* base = base_ + static_cast<std::size_t>(flip) * kBuckets;
    std::fill(thr, thr + kBuckets, std::numeric_limits<float>::quiet_NaN());
    // Step k: the lowest key whose byte reaches k, by bisection over the
    // ordered keys (the byte is nondecreasing in the key).
    const int lowest = byte(-kInf), highest = byte(kInf);
    std::size_t next = 0;  // first bucket whose base is not yet set
    for (int k = lowest + 1; k <= highest; ++k) {
      std::uint32_t lo = ordered(-kInf), hi = ordered(kInf);  // byte(lo) < k <= byte(hi)
      while (hi - lo > 1) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        (byte(from_ordered(mid)) >= k ? hi : lo) = mid;
      }
      const float step = from_ordered(hi);
      const auto b = static_cast<std::size_t>(buckets(util::Lanes4::F{step})[0]);
      if (b < next) throw std::runtime_error("LlrQuantizer: two soft-byte thresholds share a bucket");
      for (; next <= b; ++next) base[next] = static_cast<std::uint8_t>(k - 1);
      thr[b] = step;
    }
    for (; next < kBuckets; ++next) base[next] = static_cast<std::uint8_t>(highest);
  }
}

std::vector<float> LlrQuantizer::thresholds(bool flip) const {
  std::vector<float> out;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const float t = thr_[static_cast<std::size_t>(flip) * kBuckets + b];
    if (t == t) out.push_back(t);
  }
  return out;
}

}  // namespace sonic::fec
