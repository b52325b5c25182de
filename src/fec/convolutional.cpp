#include "fec/convolutional.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace sonic::fec {
namespace {

int parity(std::uint32_t v) { return std::popcount(v) & 1; }

// Puncturing patterns over consecutive (out0, out1) pairs; 1 = transmit.
constexpr std::uint8_t kPattern1_2[] = {1, 1};
constexpr std::uint8_t kPattern2_3[] = {1, 1, 1, 0};
constexpr std::uint8_t kPattern3_4[] = {1, 1, 0, 1, 1, 0};

std::span<const std::uint8_t> puncture_pattern(PunctureRate rate) {
  switch (rate) {
    case PunctureRate::kRate1_2: return kPattern1_2;
    case PunctureRate::kRate2_3: return kPattern2_3;
    case PunctureRate::kRate3_4: return kPattern3_4;
  }
  return kPattern1_2;
}

// Eight int16 ACS lanes and the ops decode_soft runs on them: SSE2
// intrinsics, or the same lane-wise arithmetic without SSE2.
#if defined(__SSE2__)
using V8 = __m128i;

inline V8 load(const std::int16_t* p) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)); }
inline void store(std::int16_t* p, V8 v) { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v); }
inline V8 splat(std::int16_t v) { return _mm_set1_epi16(v); }
inline V8 adds(V8 a, V8 b) { return _mm_adds_epi16(a, b); }
inline V8 subs(V8 a, V8 b) { return _mm_subs_epi16(a, b); }
inline V8 min(V8 a, V8 b) { return _mm_min_epi16(a, b); }
inline V8 greater(V8 a, V8 b) { return _mm_cmpgt_epi16(a, b); }
inline V8 interleave_lo(V8 a, V8 b) { return _mm_unpacklo_epi16(a, b); }
inline V8 interleave_hi(V8 a, V8 b) { return _mm_unpackhi_epi16(a, b); }
// Lanes of `set` where `mask` is all ones, else lanes of `clear`.
inline V8 select(V8 mask, V8 set, V8 clear) {
  return _mm_or_si128(_mm_and_si128(mask, set), _mm_andnot_si128(mask, clear));
}
// Bit i: lane i of mask `lo` is set; bit 8 + i: lane i of mask `hi`.
inline unsigned movemask(V8 lo, V8 hi) {
  return static_cast<unsigned>(_mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
}
#else
typedef std::int16_t V8 __attribute__((vector_size(16)));

inline V8 load(const std::int16_t* p) {
  V8 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store(std::int16_t* p, V8 v) { std::memcpy(p, &v, sizeof v); }
inline V8 splat(std::int16_t v) { return V8{v, v, v, v, v, v, v, v}; }
inline V8 adds(V8 a, V8 b) {
  V8 v;
  for (int i = 0; i < 8; ++i) v[i] = static_cast<std::int16_t>(std::clamp(a[i] + b[i], -32768, 32767));
  return v;
}
inline V8 subs(V8 a, V8 b) {
  V8 v;
  for (int i = 0; i < 8; ++i) v[i] = static_cast<std::int16_t>(std::clamp(a[i] - b[i], -32768, 32767));
  return v;
}
inline V8 min(V8 a, V8 b) { return a < b ? a : b; }
inline V8 greater(V8 a, V8 b) { return a > b; }
inline V8 interleave_lo(V8 a, V8 b) { return __builtin_shufflevector(a, b, 0, 8, 1, 9, 2, 10, 3, 11); }
inline V8 interleave_hi(V8 a, V8 b) { return __builtin_shufflevector(a, b, 4, 12, 5, 13, 6, 14, 7, 15); }
inline V8 select(V8 mask, V8 set, V8 clear) { return (mask & set) | (~mask & clear); }
inline unsigned movemask(V8 lo, V8 hi) {
  unsigned bits = 0;
  for (int i = 0; i < 8; ++i) bits |= ((lo[i] & 1u) << i) | ((hi[i] & 1u) << (8 + i));
  return bits;
}
#endif

// The smallest of the eight lanes.
inline std::int16_t lane_min(V8 v) {
  std::int16_t lanes[8];
  std::memcpy(lanes, &v, sizeof lanes);
  return *std::min_element(lanes, lanes + 8);
}

constexpr std::int16_t kErasure = ConvolutionalCodec::kSoftScale / 2;
static_assert(ConvolutionalCodec::kSoftScale % 2 == 0, "0.5 must quantize exactly");

// round(clamp(s, 0, 1) * kSoftScale), with NaN read as an erasure.
std::int16_t quantize(float s) {
  if (std::isnan(s)) return kErasure;
  return static_cast<std::int16_t>(std::clamp(s, 0.0f, 1.0f) * ConvolutionalCodec::kSoftScale + 0.5f);
}

}  // namespace

ConvolutionalCodec::ConvolutionalCodec(ConvSpec spec) : spec_(spec) {
  switch (spec.code) {
    case ConvCode::kV27:
      k_ = 7;
      poly_a_ = 0x6d;
      poly_b_ = 0x4f;
      break;
    case ConvCode::kV29:
      k_ = 9;
      poly_a_ = 0x1af;
      poly_b_ = 0x11d;
      break;
    default:
      throw std::invalid_argument("unknown convolutional code");
  }
  num_states_ = 1 << (k_ - 1);
  branches_.resize(static_cast<std::size_t>(num_states_) << 1);
  for (int state = 0; state < num_states_; ++state) {
    for (int bit = 0; bit < 2; ++bit) {
      const std::uint32_t reg = (static_cast<std::uint32_t>(state) << 1) | static_cast<std::uint32_t>(bit);
      Branch& br = branches_[(static_cast<std::size_t>(state) << 1) | static_cast<std::size_t>(bit)];
      br.out0 = static_cast<std::uint8_t>(parity(reg & poly_a_));
      br.out1 = static_cast<std::uint8_t>(parity(reg & poly_b_));
    }
  }
  // decode_soft's butterfly needs both polynomials to tap the register's
  // MSB and LSB, and whole decision bytes (half a multiple of 8).
  const std::uint32_t ends = 1u | (1u << (k_ - 1));
  if ((poly_a_ & ends) != ends || (poly_b_ & ends) != ends || num_states_ < 16) {
    throw std::logic_error("convolutional code does not fit the butterfly decoder");
  }
  // s_j, the symbol of butterfly j's branch j -> 2j (branches_[j << 1]),
  // is linear in j over GF(2), and 8g and i < 8 share no bits, so
  // s_(8g + i) = s_(8g) ^ s_i.
  auto sym = [&](std::size_t j) {
    const Branch& br = branches_[j << 1];
    return static_cast<std::uint8_t>(br.out0 * 2 + br.out1);
  };
  for (std::size_t i = 0; i < 8; ++i) lane_sym_[i] = sym(i);
  group_sym_.resize(static_cast<std::size_t>(num_states_) / 16);
  for (std::size_t g = 0; g < group_sym_.size(); ++g) group_sym_[g] = sym(8 * g);
}

double ConvolutionalCodec::rate() const {
  switch (spec_.rate) {
    case PunctureRate::kRate1_2: return 0.5;
    case PunctureRate::kRate2_3: return 2.0 / 3.0;
    case PunctureRate::kRate3_4: return 0.75;
  }
  return 0.5;
}

void ConvolutionalCodec::raw_encode_bits(std::span<const std::uint8_t> data,
                                         std::vector<std::uint8_t>& out_bits) const {
  std::uint32_t state = 0;
  auto push = [&](int bit) {
    const Branch& br = branches_[(static_cast<std::size_t>(state) << 1) | static_cast<std::size_t>(bit)];
    out_bits.push_back(br.out0);
    out_bits.push_back(br.out1);
    state = ((state << 1) | static_cast<std::uint32_t>(bit)) & static_cast<std::uint32_t>(num_states_ - 1);
  };
  for (std::uint8_t byte : data) {
    for (int i = 7; i >= 0; --i) push((byte >> i) & 1);
  }
  for (int i = 0; i < k_ - 1; ++i) push(0);  // flush to state 0
}

std::size_t ConvolutionalCodec::encoded_bits(std::size_t payload_bytes) const {
  const std::size_t in_bits = payload_bytes * 8 + static_cast<std::size_t>(k_ - 1);
  const std::size_t raw = in_bits * 2;
  const auto pat = puncture_pattern(spec_.rate);
  std::size_t kept_per_period = 0;
  for (std::uint8_t keep : pat) kept_per_period += keep;
  const std::size_t full = raw / pat.size();
  std::size_t bits = full * kept_per_period;
  for (std::size_t i = 0; i < raw - full * pat.size(); ++i) bits += pat[i];
  return bits;
}

util::Bytes ConvolutionalCodec::encode(std::span<const std::uint8_t> data) const {
  std::vector<std::uint8_t> raw;
  raw.reserve(data.size() * 16 + 32);
  raw_encode_bits(data, raw);

  const auto pat = puncture_pattern(spec_.rate);
  util::BitWriter bw;
  std::size_t p = 0;
  for (std::uint8_t bit : raw) {
    if (pat[p]) bw.bit(bit);
    if (++p == pat.size()) p = 0;
  }
  return bw.take();
}

void ConvolutionalCodec::depuncture(std::span<const float> soft, std::size_t in_bits,
                                    std::vector<std::int16_t>& pairs) const {
  // De-puncture into per-step quantized (out0, out1) pairs; punctured and
  // missing positions are erasures.
  const auto pat = puncture_pattern(spec_.rate);
  pairs.assign(in_bits * 2, kErasure);
  std::size_t soft_idx = 0;
  std::size_t p = 0;
  for (std::size_t i = 0; i < in_bits * 2; ++i) {
    if (pat[p]) {
      if (soft_idx < soft.size()) pairs[i] = quantize(soft[soft_idx]);
      ++soft_idx;
    }
    if (++p == pat.size()) p = 0;
  }
}

namespace {

// Buffers for decode_soft, reused across calls. Thread-local rather than a
// codec member so concurrent decodes on a shared codec stay safe.
struct ViterbiWorkspace {
  std::vector<std::int16_t> pairs;
  std::vector<std::int16_t> metric;  // path metric of each state
  std::vector<std::int16_t> next_metric;
  std::vector<std::uint8_t> decisions;  // in_bits * ns / 8 bitmap bytes
  std::vector<std::uint8_t> bits;
};

}  // namespace

util::Bytes ConvolutionalCodec::decode_soft(std::span<const float> soft,
                                            std::size_t payload_bytes) const {
  const std::size_t in_bits = payload_bytes * 8 + static_cast<std::size_t>(k_ - 1);
  const std::size_t ns = static_cast<std::size_t>(num_states_);
  const std::size_t half = ns / 2;
  const std::size_t step_bytes = ns / 8;
  constexpr std::int16_t Q = kSoftScale;

  thread_local ViterbiWorkspace ws;
  depuncture(soft, in_bits, ws.pairs);

  // State 0 starts at 0, every other state at 16384 (see the header on
  // why int16 holds).
  constexpr std::int16_t kUnreached = 16384;
  ws.metric.assign(ns, kUnreached);
  ws.metric[0] = 0;
  ws.next_metric.resize(ns);
  ws.decisions.resize(in_bits * step_bytes);  // every byte is written below

  // Lanes whose symbol s_i has out0 (bit 1) or out1 (bit 0) set.
  std::int16_t out0[8], out1[8];
  for (std::size_t i = 0; i < 8; ++i) {
    out0[i] = static_cast<std::int16_t>(lane_sym_[i] & 2 ? -1 : 0);
    out1[i] = static_cast<std::int16_t>(lane_sym_[i] & 1 ? -1 : 0);
  }
  const V8 out0_mask = load(out0);
  const V8 out1_mask = load(out1);

  const std::uint8_t* group_sym = group_sym_.data();
  std::int16_t* metric = ws.metric.data();
  std::int16_t* next_metric = ws.next_metric.data();
  for (std::size_t step = 0; step < in_bits; ++step) {
    const std::int16_t q0 = ws.pairs[step * 2];
    const std::int16_t q1 = ws.pairs[step * 2 + 1];
    // The step's four lane patterns: lanes[c] holds bm[s_i ^ c] in lane i,
    // which is `a` of every group with base symbol c and `b` of every group
    // with base symbol c ^ 3. Each half of bm is the distance of one
    // received value to the expected bit: q for a 0, Q - q for a 1.
    const V8 d0 = splat(q0), d0c = splat(static_cast<std::int16_t>(Q - q0));
    const V8 d1 = splat(q1), d1c = splat(static_cast<std::int16_t>(Q - q1));
    const V8 x0 = select(out0_mask, d0c, d0), x0_flip = select(out0_mask, d0, d0c);
    const V8 x1 = select(out1_mask, d1c, d1), x1_flip = select(out1_mask, d1, d1c);
    const V8 lanes[4] = {adds(x0, x1), adds(x0, x1_flip), adds(x0_flip, x1), adds(x0_flip, x1_flip)};

    const std::int16_t* m_lo = metric;
    const std::int16_t* m_hi = metric + half;
    std::int16_t* __restrict nm = next_metric;
    std::uint8_t* dec_even = ws.decisions.data() + step * step_bytes;
    std::uint8_t* dec_odd = dec_even + half / 8;

    // Butterflies 8g .. 8g+7.
    for (std::size_t g = 0; g < half / 8; ++g) {
      const V8 a = lanes[group_sym[g]];
      const V8 b = lanes[group_sym[g] ^ 3];
      const V8 lo = load(m_lo + 8 * g), hi = load(m_hi + 8 * g);
      const V8 m0e = adds(lo, a), m1e = adds(hi, b);
      const V8 m0o = adds(lo, b), m1o = adds(hi, a);
      const V8 ne = min(m0e, m1e);
      const V8 no = min(m0o, m1o);
      store(nm + 16 * g, interleave_lo(ne, no));
      store(nm + 16 * g + 8, interleave_hi(ne, no));
      const unsigned taken = movemask(greater(m0e, m1e), greater(m0o, m1o));
      dec_even[g] = static_cast<std::uint8_t>(taken);
      dec_odd[g] = static_cast<std::uint8_t>(taken >> 8);
    }
    std::swap(metric, next_metric);

    if (step % 8 == 7) {
      V8 lowest = load(metric);
      for (std::size_t i = 8; i < ns; i += 8) lowest = min(lowest, load(metric + i));
      const V8 shift = splat(lane_min(lowest));
      for (std::size_t i = 0; i < ns; i += 8) store(metric + i, subs(load(metric + i), shift));
    }
  }

  // Traceback from state 0 (guaranteed by the K-1 flush bits). A set
  // decision means the winning predecessor was the high one, whose evicted
  // MSB was 1.
  std::uint32_t state = 0;
  util::Bytes out(payload_bytes, 0);
  ws.bits.resize(in_bits);
  for (std::size_t step = in_bits; step-- > 0;) {
    ws.bits[step] = static_cast<std::uint8_t>(state & 1);  // input bit that produced `state`
    const std::size_t idx = (state & 1) * half + (state >> 1);
    const std::uint32_t evicted = (ws.decisions[step * step_bytes + idx / 8] >> (idx % 8)) & 1u;
    state = (state >> 1) | (evicted << (k_ - 2));
  }

  for (std::size_t i = 0; i < payload_bytes * 8; ++i) {
    if (ws.bits[i]) out[i / 8] |= static_cast<std::uint8_t>(1u << (7 - i % 8));
  }
  return out;
}

}  // namespace sonic::fec
