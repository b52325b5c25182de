#include "fec/convolutional.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace sonic::fec {
namespace {

constexpr int parity(std::uint32_t v) { return std::popcount(v) & 1; }

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

// The trellis of one code, fixed at compile time: constraint length K and
// the polynomials of out0 and out1.
template <int K, std::uint32_t PolyA, std::uint32_t PolyB>
struct Trellis {
  static constexpr int k = K;
  static constexpr std::uint32_t poly_a = PolyA;
  static constexpr std::uint32_t poly_b = PolyB;
  static constexpr std::size_t states = std::size_t{1} << (K - 1);
  static constexpr std::size_t half = states / 2;
  static constexpr std::size_t groups = half / 8;  // of eight butterflies

  // s_j = out0 * 2 + out1 of butterfly j's branch j -> 2j.
  static constexpr unsigned sym(std::size_t j) {
    const auto reg = static_cast<std::uint32_t>(j << 1);
    return static_cast<unsigned>(parity(reg & PolyA) * 2 + parity(reg & PolyB));
  }

  // s_j is linear in j over GF(2), and 8g and i < 8 share no bits, so
  // s_(8g + i) = s_(8g) ^ s_i: one set of lane vectors serves every group.
  static constexpr bool lanes_split() {
    for (std::size_t j = 0; j < half; ++j) {
      if (sym(j) != (sym(j & ~std::size_t{7}) ^ sym(j & 7))) return false;
    }
    return true;
  }

  static constexpr std::uint32_t ends = 1u | (1u << (K - 1));
  static_assert((PolyA & ends) == ends && (PolyB & ends) == ends,
                "the butterfly needs both polynomials to tap the register's MSB and LSB");
  static_assert(groups >= 1 && lanes_split());
};

using V27 = Trellis<7, 0x6d, 0x4f>;
using V29 = Trellis<9, 0x1af, 0x11d>;

// Eight int16 ACS lanes and the ops decode_soft runs on them: SSE2
// intrinsics, or the same lane-wise arithmetic without SSE2.
#if defined(__SSE2__)
using V8 = __m128i;

inline V8 load(const std::int16_t* p) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)); }
inline void store(std::int16_t* p, V8 v) { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v); }
inline V8 splat(std::int16_t v) { return _mm_set1_epi16(v); }
inline V8 add(V8 a, V8 b) { return _mm_add_epi16(a, b); }
inline V8 sub(V8 a, V8 b) { return _mm_sub_epi16(a, b); }
inline V8 bit_xor(V8 a, V8 b) { return _mm_xor_si128(a, b); }
inline V8 min(V8 a, V8 b) { return _mm_min_epi16(a, b); }
inline V8 greater(V8 a, V8 b) { return _mm_cmpgt_epi16(a, b); }
inline V8 interleave_lo(V8 a, V8 b) { return _mm_unpacklo_epi16(a, b); }
inline V8 interleave_hi(V8 a, V8 b) { return _mm_unpackhi_epi16(a, b); }
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
inline V8 add(V8 a, V8 b) { return a + b; }
inline V8 sub(V8 a, V8 b) { return a - b; }
inline V8 bit_xor(V8 a, V8 b) { return a ^ b; }
inline V8 min(V8 a, V8 b) { return a < b ? a : b; }
inline V8 greater(V8 a, V8 b) { return a > b; }
inline V8 interleave_lo(V8 a, V8 b) { return __builtin_shufflevector(a, b, 0, 8, 1, 9, 2, 10, 3, 11); }
inline V8 interleave_hi(V8 a, V8 b) { return __builtin_shufflevector(a, b, 4, 12, 5, 13, 6, 14, 7, 15); }
// Each all-ones lane keeps its own bit of a lane constant; the lanes are
// then OR-ed together as 16-bit fields of two words, which holds on either
// byte order.
inline unsigned movemask(V8 lo, V8 hi) {
  typedef std::uint16_t V8u __attribute__((vector_size(16)));
  constexpr V8u kLoBits = {1, 2, 4, 8, 16, 32, 64, 128};
  constexpr V8u kHiBits = {256, 512, 1024, 2048, 4096, 8192, 16384, 32768};
  const V8u v = (reinterpret_cast<V8u>(lo) & kLoBits) | (reinterpret_cast<V8u>(hi) & kHiBits);
  std::uint64_t words[2];
  std::memcpy(words, &v, sizeof words);
  std::uint64_t x = words[0] | words[1];
  x |= x >> 32;
  x |= x >> 16;
  return static_cast<unsigned>(x & 0xffffu);
}
#endif

// The smallest of the eight lanes.
inline std::int16_t lane_min(V8 v) {
  std::int16_t lanes[8];
  std::memcpy(lanes, &v, sizeof lanes);
  return *std::min_element(lanes, lanes + 8);
}

constexpr std::int16_t kErasure = ConvolutionalCodec::kSoftErasure;
static_assert(ConvolutionalCodec::kSoftScale % 2 == 0, "0.5 must quantize exactly");

// Depunctures the soft bytes through the pattern Pat into in_bits (q0, q1)
// pairs, whole periods unrolled; punctured and missing positions are
// erasures, and bytes above kSoftScale read as kSoftScale.
template <const auto& Pat>
void depuncture(std::span<const std::uint8_t> soft, std::size_t in_bits, std::vector<std::int16_t>& pairs) {
  constexpr std::size_t period = std::size(Pat);
  constexpr std::size_t kept = static_cast<std::size_t>(std::count(std::begin(Pat), std::end(Pat), 1));
  constexpr std::uint8_t Q = ConvolutionalCodec::kSoftScale;
  const std::size_t total = in_bits * 2;
  const std::size_t used =
      std::min(soft.size(), total / period * kept + static_cast<std::size_t>(std::count(Pat, Pat + total % period, 1)));
  pairs.resize(total);
  const std::uint8_t* q = soft.data();
  std::int16_t* out = pairs.data();
  const std::size_t periods = std::min(total / period, used / kept);
  for (std::size_t n = 0; n < periods; ++n) {
    std::size_t k = n * kept;
    for (std::size_t p = 0; p < period; ++p) out[n * period + p] = Pat[p] ? std::min(q[k++], Q) : kErasure;
  }
  std::size_t idx = periods * kept;
  for (std::size_t i = periods * period, p = 0; i < total; ++i, p = p + 1 == period ? 0 : p + 1) {
    out[i] = Pat[p] && idx < used ? std::min(q[idx], Q) : kErasure;
    idx += Pat[p];
  }
}

// Lane i: `set` where bit `bit` of s_i is set (bit 1 is out0, bit 0
// out1), else `clear`.
template <class T, unsigned bit, std::int16_t set, std::int16_t clear>
inline V8 lane_constant() {
  static constexpr auto lanes = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<std::int16_t, 8>{(T::sym(I) & bit ? set : clear)...};
  }(std::make_index_sequence<8>{});
  return load(lanes.data());
}

// Butterflies 8G .. 8G+7: each metric vector is loaded once, and the
// group's decisions are one 16-bit word, even successors in the low byte.
template <class T, std::size_t G>
[[gnu::always_inline]] inline void butterflies(const V8 (&lanes)[4], const std::int16_t* __restrict metric,
                                               std::int16_t* __restrict next, std::uint16_t* __restrict dec) {
  constexpr unsigned c = T::sym(8 * G);
  const V8 a = lanes[c];
  const V8 b = lanes[c ^ 3];
  const V8 lo = load(metric + 8 * G), hi = load(metric + T::half + 8 * G);
  const V8 m0e = add(lo, a), m1e = add(hi, b);
  const V8 m0o = add(lo, b), m1o = add(hi, a);
  const V8 ne = min(m0e, m1e);
  const V8 no = min(m0o, m1o);
  store(next + 16 * G, interleave_lo(ne, no));
  store(next + 16 * G + 8, interleave_hi(ne, no));
  dec[G] = static_cast<std::uint16_t>(movemask(greater(m0e, m1e), greater(m0o, m1o)));
}

// One trellis step on the quantized pair (q0, q1): metric -> next, and the
// step's T::groups decision words into dec.
template <class T>
[[gnu::always_inline]] inline void acs_step(std::int16_t q0, std::int16_t q1, const std::int16_t* __restrict metric,
                                            std::int16_t* __restrict next, std::uint16_t* __restrict dec) {
  constexpr std::int16_t Q = ConvolutionalCodec::kSoftScale;
  // The step's four lane patterns: lanes[c] holds bm[s_i ^ c] in lane i,
  // which is `a` of every group with base symbol c and `b` of every group
  // with base symbol c ^ 3. Each half of bm is the distance of one received
  // value to the expected bit: q for a 0, Q - q for a 1. So x0, the
  // distance of q0 to lane i's out0, is (q0 ^ m) + (m ? Q + 1 : 0) with m
  // all ones where out0 is 1; x0_flip, the distance to the other bit, is
  // Q - x0. x1 likewise.
  const V8 x0 = add(bit_xor(splat(q0), lane_constant<T, 2, -1, 0>()), lane_constant<T, 2, Q + 1, 0>());
  const V8 x1 = add(bit_xor(splat(q1), lane_constant<T, 1, -1, 0>()), lane_constant<T, 1, Q + 1, 0>());
  const V8 x0_flip = sub(splat(Q), x0), x1_flip = sub(splat(Q), x1);
  const V8 lanes[4] = {add(x0, x1), add(x0, x1_flip), add(x0_flip, x1), add(x0_flip, x1_flip)};
  [&]<std::size_t... G>(std::index_sequence<G...>) {
    (butterflies<T, G>(lanes, metric, next, dec), ...);
  }(std::make_index_sequence<T::groups>{});
}

// Subtracts the smallest metric from all of them.
template <class T>
inline void renormalize(std::int16_t* metric) {
  V8 lowest = load(metric);
  for (std::size_t i = 8; i < T::states; i += 8) lowest = min(lowest, load(metric + i));
  const V8 shift = splat(lane_min(lowest));
  for (std::size_t i = 0; i < T::states; i += 8) store(metric + i, sub(load(metric + i), shift));
}

// Runs the trellis over in_bits quantized (q0, q1) pairs and writes each
// step's T::groups decision words.
template <class T>
void add_compare_select(const std::int16_t* pairs, std::size_t in_bits, std::uint16_t* dec) {
  // State 0 starts at 0, every other state at kUnreached, and the
  // smallest metric is subtracted every kRenormalize steps. A metric grows
  // by at most 2Q a step, and after the first K-1 steps none exceeds the
  // smallest by more than (K-1) * 2Q (see the header), so no sum leaves
  // int16 and plain wrapping adds are exact.
  constexpr int kUnreached = 16384, kRenormalize = 16, kMaxBranch = 2 * ConvolutionalCodec::kSoftScale;
  static_assert(kRenormalize >= T::k - 1 && kUnreached + kRenormalize * kMaxBranch <= 32767);
  static_assert((T::k - 1 + kRenormalize) * kMaxBranch <= 32767);
  alignas(16) std::int16_t buffers[2][T::states];
  std::int16_t* metric = buffers[0];
  std::int16_t* next = buffers[1];
  std::fill_n(metric, T::states, static_cast<std::int16_t>(kUnreached));
  metric[0] = 0;
  for (std::size_t step = 0; step < in_bits; ++step) {
    acs_step<T>(pairs[2 * step], pairs[2 * step + 1], metric, next, dec + step * T::groups);
    std::swap(metric, next);
    if (step % kRenormalize == kRenormalize - 1) renormalize<T>(metric);
  }
}

// The trellis bypass (see the header): walks from state 0 along the hard
// decisions q > kErasure, writing the payload bits to out as it goes.
// Returns false, with out partly written, at the first step whose two
// positions are both erasures or whose kept positions disagree, or at a
// flush step that implies a 1; else the walked path is the one the ACS and
// traceback would return.
template <class T>
bool walk_hard_decisions(const std::int16_t* pairs, std::size_t in_bits, std::size_t payload_bytes,
                         std::uint8_t* out) {
  static constexpr auto syms = []<std::size_t... S>(std::index_sequence<S...>) {
    return std::array<std::uint8_t, T::states>{static_cast<std::uint8_t>(T::sym(S))...};
  }(std::make_index_sequence<T::states>{});
  const std::size_t payload_bits = payload_bytes * 8;
  std::uint32_t state = 0, byte = 0;
  for (std::size_t step = 0; step < in_bits; ++step) {
    const std::int16_t q0 = pairs[2 * step], q1 = pairs[2 * step + 1];
    // The input bit u gives out0 = u ^ (state's out0 parity), out1 likewise.
    const std::uint32_t sym = syms[state];
    const std::uint32_t u0 = static_cast<std::uint32_t>(q0 > kErasure) ^ (sym >> 1);
    const std::uint32_t u1 = static_cast<std::uint32_t>(q1 > kErasure) ^ (sym & 1u);
    std::uint32_t bit;
    if (q0 != kErasure) {
      if (q1 != kErasure && u1 != u0) return false;
      bit = u0;
    } else if (q1 != kErasure) {
      bit = u1;
    } else {
      return false;
    }
    state = ((state << 1) | bit) & static_cast<std::uint32_t>(T::states - 1);
    if (step < payload_bits) {
      byte = (byte << 1) | bit;
      if (step % 8 == 7) out[step / 8] = static_cast<std::uint8_t>(byte);
    } else if (bit != 0) {
      return false;
    }
  }
  return true;
}

// Traceback from state 0 (the K-1 flush bits end there), writing each
// payload byte as its eight steps are passed. The input bit that produced
// a state is its LSB; a set decision means the winning predecessor was the
// high one, whose evicted MSB was 1.
template <class T>
void traceback(const std::uint16_t* dec, std::size_t payload_bytes, std::uint8_t* out) {
  std::uint32_t state = 0;
  auto back = [&](std::size_t step) {
    const std::uint32_t word = dec[step * T::groups + (state >> 4)];
    const std::uint32_t evicted = (word >> ((state & 1) * 8 + ((state >> 1) & 7))) & 1u;
    state = (state >> 1) | (evicted << (T::k - 2));
  };
  std::size_t step = payload_bytes * 8 + static_cast<std::size_t>(T::k - 1);
  while (step > payload_bytes * 8) back(--step);
  for (std::size_t byte = payload_bytes; byte-- > 0;) {
    std::uint32_t bits = 0;  // step 8 * byte + 7 - b is bit b, counted from the LSB
    for (std::uint32_t b = 0; b < 8; ++b) {
      bits |= (state & 1u) << b;
      back(--step);
    }
    out[byte] = static_cast<std::uint8_t>(bits);
  }
}

}  // namespace

ConvolutionalCodec::ConvolutionalCodec(ConvSpec spec) : spec_(spec) {
  switch (spec.code) {
    case ConvCode::kV27:
      k_ = V27::k;
      poly_a_ = V27::poly_a;
      poly_b_ = V27::poly_b;
      break;
    case ConvCode::kV29:
      k_ = V29::k;
      poly_a_ = V29::poly_a;
      poly_b_ = V29::poly_b;
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

namespace {

// Buffers for decode_soft, reused across calls. Thread-local rather than a
// codec member so concurrent decodes on a shared codec stay safe.
struct ViterbiWorkspace {
  std::vector<std::int16_t> pairs;
  std::vector<std::uint16_t> decisions;  // in_bits * groups decision words
};

template <class T>
void viterbi(const std::vector<std::int16_t>& pairs, std::size_t payload_bytes, std::vector<std::uint16_t>& dec,
             std::uint8_t* out) {
  const std::size_t in_bits = pairs.size() / 2;
  if (walk_hard_decisions<T>(pairs.data(), in_bits, payload_bytes, out)) return;
  dec.resize(in_bits * T::groups);  // every word is written below
  add_compare_select<T>(pairs.data(), in_bits, dec.data());
  traceback<T>(dec.data(), payload_bytes, out);
}

}  // namespace

util::Bytes ConvolutionalCodec::decode_soft(std::span<const std::uint8_t> soft,
                                            std::size_t payload_bytes) const {
  const std::size_t in_bits = payload_bytes * 8 + static_cast<std::size_t>(k_ - 1);
  thread_local ViterbiWorkspace ws;
  switch (spec_.rate) {
    case PunctureRate::kRate1_2: depuncture<kPattern1_2>(soft, in_bits, ws.pairs); break;
    case PunctureRate::kRate2_3: depuncture<kPattern2_3>(soft, in_bits, ws.pairs); break;
    case PunctureRate::kRate3_4: depuncture<kPattern3_4>(soft, in_bits, ws.pairs); break;
  }
  util::Bytes out(payload_bytes);
  if (spec_.code == ConvCode::kV27) {
    viterbi<V27>(ws.pairs, payload_bytes, ws.decisions, out.data());
  } else {
    viterbi<V29>(ws.pairs, payload_bytes, ws.decisions, out.data());
  }
  return out;
}

}  // namespace sonic::fec
