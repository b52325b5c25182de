#include "oracles/viterbi_reference.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

namespace sonic::oracles {
namespace {

// Depunctures `soft` into in_bits (out0, out1) pairs, each value through
// `convert`. The pattern runs over consecutive (out0, out1) positions,
// 1 = sent; punctured and missing positions read as `erasure`.
template <typename T, typename Convert>
std::vector<T> depuncture(const fec::ConvSpec& spec, std::span<const float> soft, std::size_t in_bits,
                          T erasure, Convert convert) {
  std::vector<int> pattern;
  switch (spec.rate) {
    case fec::PunctureRate::kRate1_2: pattern = {1, 1}; break;
    case fec::PunctureRate::kRate2_3: pattern = {1, 1, 1, 0}; break;
    case fec::PunctureRate::kRate3_4: pattern = {1, 1, 0, 1, 1, 0}; break;
  }
  std::vector<T> pairs(in_bits * 2, erasure);
  std::size_t soft_idx = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pattern[i % pattern.size()]) {
      if (soft_idx < soft.size()) pairs[i] = convert(soft[soft_idx]);
      ++soft_idx;
    }
  }
  return pairs;
}

// Per-state Viterbi over depunctured pairs, where `one` is the received
// value of a confident 1 (and 0 of a confident 0), decoding
// `payload_bytes` bytes plus the K-1 flush bits.
template <typename T>
util::Bytes viterbi(fec::ConvCode conv_code, const std::vector<T>& pairs, T one, std::size_t payload_bytes) {
  const ConvPolys code = conv_polys(conv_code);
  const int num_states = 1 << (code.k - 1);
  const std::size_t in_bits = pairs.size() / 2;

  // Trellis: expected output values of every (state << 1 | input bit)
  // register value.
  std::vector<T> expect_a(static_cast<std::size_t>(num_states) * 2);
  std::vector<T> expect_b(expect_a.size());
  for (std::uint32_t reg = 0; reg < expect_a.size(); ++reg) {
    expect_a[reg] = (std::popcount(reg & code.poly_a) & 1) ? one : T(0);
    expect_b[reg] = (std::popcount(reg & code.poly_b) & 1) ? one : T(0);
  }

  constexpr T kInf = std::numeric_limits<T>::max() / 4;
  std::vector<T> metric(static_cast<std::size_t>(num_states), kInf);
  std::vector<T> next_metric(static_cast<std::size_t>(num_states), kInf);
  metric[0] = T(0);  // encoder starts in state 0

  // Transitioning prev -> next with input bit b gives
  // next = ((prev << 1) | b) & mask, so b == (next & 1) and prev is fully
  // determined by next plus prev's evicted MSB. One evicted bit per
  // (step, state) is all the traceback needs.
  std::vector<std::uint8_t> survivors(in_bits * static_cast<std::size_t>(num_states));
  const std::uint32_t state_mask = static_cast<std::uint32_t>(num_states - 1);
  for (std::size_t step = 0; step < in_bits; ++step) {
    const T s0 = pairs[step * 2];
    const T s1 = pairs[step * 2 + 1];
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    std::uint8_t* surv = survivors.data() + step * static_cast<std::size_t>(num_states);
    for (int state = 0; state < num_states; ++state) {
      const T base = metric[static_cast<std::size_t>(state)];
      if (base >= kInf) continue;
      for (int bit = 0; bit < 2; ++bit) {
        const std::uint32_t reg = (static_cast<std::uint32_t>(state) << 1) | static_cast<std::uint32_t>(bit);
        // Branch metric: L1 distance between expected and observed soft
        // values, summed before it is added to the path metric.
        const T bm = std::abs(s0 - expect_a[reg]) + std::abs(s1 - expect_b[reg]);
        const T m = base + bm;
        const std::uint32_t next = reg & state_mask;
        if (m < next_metric[next]) {
          next_metric[next] = m;
          surv[next] = static_cast<std::uint8_t>((state >> (code.k - 2)) & 1);  // evicted MSB of prev
        }
      }
    }
    metric.swap(next_metric);
  }

  // Traceback from state 0 (guaranteed by the K-1 flush bits).
  std::uint32_t state = 0;
  std::vector<std::uint8_t> bits(in_bits);
  for (std::size_t step = in_bits; step-- > 0;) {
    bits[step] = static_cast<std::uint8_t>(state & 1);  // the input bit that produced `state`
    const std::uint32_t evicted = survivors[step * static_cast<std::size_t>(num_states) + state];
    state = (state >> 1) | (evicted << (code.k - 2));
  }

  util::Bytes out(payload_bytes, 0);
  for (std::size_t i = 0; i < payload_bytes * 8; ++i) {
    if (bits[i]) out[i / 8] |= static_cast<std::uint8_t>(1u << (7 - i % 8));
  }
  return out;
}

std::size_t input_bits(const fec::ConvSpec& spec, std::size_t payload_bytes) {
  return payload_bytes * 8 + static_cast<std::size_t>(conv_polys(spec.code).k - 1);
}

}  // namespace

util::Bytes conv_encode_reference(const fec::ConvSpec& spec, std::span<const std::uint8_t> data) {
  const ConvPolys code = conv_polys(spec.code);
  std::vector<std::uint8_t> raw;
  raw.reserve(data.size() * 16 + 32);
  std::uint32_t state = 0;
  auto push = [&](std::uint32_t bit) {
    const std::uint32_t reg = (state << 1) | bit;
    raw.push_back(static_cast<std::uint8_t>(std::popcount(reg & code.poly_a) & 1));
    raw.push_back(static_cast<std::uint8_t>(std::popcount(reg & code.poly_b) & 1));
    state = reg & ((1u << (code.k - 1)) - 1);
  };
  for (std::uint8_t byte : data) {
    for (int i = 7; i >= 0; --i) push((byte >> i) & 1u);
  }
  for (int i = 0; i < code.k - 1; ++i) push(0);  // flush to state 0

  std::vector<std::uint8_t> pattern;
  switch (spec.rate) {
    case fec::PunctureRate::kRate1_2: pattern = {1, 1}; break;
    case fec::PunctureRate::kRate2_3: pattern = {1, 1, 1, 0}; break;
    case fec::PunctureRate::kRate3_4: pattern = {1, 1, 0, 1, 1, 0}; break;
  }
  util::BitWriter bw;
  std::size_t p = 0;
  for (std::uint8_t bit : raw) {
    if (pattern[p]) bw.bit(bit);
    if (++p == pattern.size()) p = 0;
  }
  return bw.take();
}

ConvPolys conv_polys(fec::ConvCode code) {
  switch (code) {
    case fec::ConvCode::kV27: return {7, 0x6d, 0x4f};
    case fec::ConvCode::kV29: return {9, 0x1af, 0x11d};
  }
  throw std::invalid_argument("unknown convolutional code");
}

std::int64_t quantize_soft_reference(float s) {
  constexpr int q = fec::ConvolutionalCodec::kSoftScale;
  if (std::isnan(s)) return q / 2;
  const float clamped = std::min(1.0f, std::max(0.0f, s));
  return static_cast<std::int64_t>(std::floor(clamped * q + 0.5f));
}

util::Bytes decode_soft_reference(const fec::ConvSpec& spec, std::span<const float> soft,
                                  std::size_t payload_bytes) {
  const auto pairs = depuncture(spec, soft, input_bits(spec, payload_bytes), 0.5f, [](float s) { return s; });
  return viterbi(spec.code, pairs, 1.0f, payload_bytes);
}

util::Bytes decode_soft_quantized_reference(const fec::ConvSpec& spec, std::span<const float> soft,
                                            std::size_t payload_bytes) {
  const auto pairs = depuncture(spec, soft, input_bits(spec, payload_bytes),
                                quantize_soft_reference(0.5f), quantize_soft_reference);
  return viterbi(spec.code, pairs, std::int64_t{fec::ConvolutionalCodec::kSoftScale}, payload_bytes);
}

}  // namespace sonic::oracles
