#include "fec/convolutional.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "util/cpu.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
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

  // s_j is linear in j over GF(2), and n * m and i < n share no bits for
  // n a power of two, so s_(n * m + i) = s_(n * m) ^ s_i: one set of n lane
  // vectors serves every n butterflies (n = 8: a group; 16: a pair of them).
  static constexpr bool lanes_split(std::size_t n) {
    for (std::size_t j = 0; j < half; ++j) {
      if (sym(j) != (sym(j & ~(n - 1)) ^ sym(j & (n - 1)))) return false;
    }
    return true;
  }

  static constexpr std::uint32_t ends = 1u | (1u << (K - 1));
  static_assert((PolyA & ends) == ends && (PolyB & ends) == ends,
                "the butterfly needs both polynomials to tap the register's MSB and LSB");
  static_assert(groups % 2 == 0 && lanes_split(8) && lanes_split(16),
                "the AVX2 pack runs groups 2P and 2P+1 on one set of lane vectors");
};

using V27 = Trellis<7, 0x6d, 0x4f>;
using V29 = Trellis<9, 0x1af, 0x11d>;

// Calls f with the trellis of `code`, a V27 or V29 value.
template <class F>
decltype(auto) with_trellis(ConvCode code, F&& f) {
  return code == ConvCode::kV27 ? f(V27{}) : f(V29{});
}

// A lane pack: `groups` groups of eight int16 ACS lanes in one register and
// the ops decode_soft runs on them. Pack8 holds one group: SSE2 intrinsics,
// or the same lane-wise arithmetic without SSE2.
#if defined(__SSE2__)
struct Pack8 {
  using V = __m128i;
  using Word = std::uint16_t;  // the pack's decision words
  static constexpr std::size_t groups = 1;

  static V load(const std::int16_t* p) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)); }
  static void store(std::int16_t* p, V v) { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v); }
  static V splat(std::int16_t v) { return _mm_set1_epi16(v); }
  static V add(V a, V b) { return _mm_add_epi16(a, b); }
  static V sub(V a, V b) { return _mm_sub_epi16(a, b); }
  static V bit_xor(V a, V b) { return _mm_xor_si128(a, b); }
  static V min(V a, V b) { return _mm_min_epi16(a, b); }
  static V greater(V a, V b) { return _mm_cmpgt_epi16(a, b); }
  // Lane i of `even` to p[2i], lane i of `odd` to p[2i + 1].
  static void store_interleaved(std::int16_t* p, V even, V odd) {
    store(p, _mm_unpacklo_epi16(even, odd));
    store(p + 8, _mm_unpackhi_epi16(even, odd));
  }
  // Bit i: lane i of mask `even` is set; bit 8 + i: lane i of mask `odd`.
  static Word decisions(V even, V odd) {
    return static_cast<Word>(_mm_movemask_epi8(_mm_packs_epi16(even, odd)));
  }
};

// Two groups per AVX2 register, group 2P in the low 128 bits. Each op
// carries the avx2 target, so it inlines only into the avx2 instance of
// add_compare_select; decode_soft runs that instance only where the CPU
// has AVX2 (util::simd_width()).
struct Pack16 {
  using V = __m256i;
  using Word = std::uint32_t;  // group 2P's word in the low half
  static constexpr std::size_t groups = 2;

  [[gnu::target("avx2")]] static V load(const std::int16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  [[gnu::target("avx2")]] static void store(std::int16_t* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  [[gnu::target("avx2")]] static V splat(std::int16_t v) { return _mm256_set1_epi16(v); }
  [[gnu::target("avx2")]] static V add(V a, V b) { return _mm256_add_epi16(a, b); }
  [[gnu::target("avx2")]] static V sub(V a, V b) { return _mm256_sub_epi16(a, b); }
  [[gnu::target("avx2")]] static V bit_xor(V a, V b) { return _mm256_xor_si256(a, b); }
  [[gnu::target("avx2")]] static V min(V a, V b) { return _mm256_min_epi16(a, b); }
  [[gnu::target("avx2")]] static V greater(V a, V b) { return _mm256_cmpgt_epi16(a, b); }
  // vpunpck{l,h}wd interleave within each 128-bit half; vperm2i128 puts
  // the halves back in state order.
  [[gnu::target("avx2")]] static void store_interleaved(std::int16_t* p, V even, V odd) {
    const V lo = _mm256_unpacklo_epi16(even, odd), hi = _mm256_unpackhi_epi16(even, odd);
    store(p, _mm256_permute2x128_si256(lo, hi, 0x20));
    store(p + 16, _mm256_permute2x128_si256(lo, hi, 0x31));
  }
  // vpacksswb packs within each 128-bit half, so bits 0-15 are group 2P's
  // word and bits 16-31 group 2P+1's.
  [[gnu::target("avx2")]] static Word decisions(V even, V odd) {
    return static_cast<Word>(_mm256_movemask_epi8(_mm256_packs_epi16(even, odd)));
  }
};
#else
struct Pack8 {
  typedef std::int16_t V __attribute__((vector_size(16)));
  using Word = std::uint16_t;
  static constexpr std::size_t groups = 1;

  static V load(const std::int16_t* p) {
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  static void store(std::int16_t* p, V v) { std::memcpy(p, &v, sizeof v); }
  static V splat(std::int16_t v) { return V{v, v, v, v, v, v, v, v}; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V bit_xor(V a, V b) { return a ^ b; }
  static V min(V a, V b) { return a < b ? a : b; }
  static V greater(V a, V b) { return a > b; }
  static void store_interleaved(std::int16_t* p, V even, V odd) {
    store(p, __builtin_shufflevector(even, odd, 0, 8, 1, 9, 2, 10, 3, 11));
    store(p + 8, __builtin_shufflevector(even, odd, 4, 12, 5, 13, 6, 14, 7, 15));
  }
  // Each all-ones lane keeps its own bit of a lane constant; the lanes are
  // then OR-ed together as 16-bit fields of two words, which holds on
  // either byte order.
  static Word decisions(V even, V odd) {
    typedef std::uint16_t Vu __attribute__((vector_size(16)));
    constexpr Vu kEvenBits = {1, 2, 4, 8, 16, 32, 64, 128};
    constexpr Vu kOddBits = {256, 512, 1024, 2048, 4096, 8192, 16384, 32768};
    const Vu v = (reinterpret_cast<Vu>(even) & kEvenBits) | (reinterpret_cast<Vu>(odd) & kOddBits);
    std::uint64_t words[2];
    std::memcpy(words, &v, sizeof words);
    std::uint64_t x = words[0] | words[1];
    x |= x >> 32;
    x |= x >> 16;
    return static_cast<Word>(x & 0xffffu);
  }
};
#endif

// The smallest of a Pack8's eight lanes.
inline std::int16_t lane_min(Pack8::V v) {
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

// The templates from here to acs_loop run on either pack. Their Pack16
// instances hold 256-bit values in functions without the avx2 target, for
// which GCC warns that passing them would change the ABI; they exist only
// inlined into acs_loop_avx2, which has the target, so none is passed.
// GCC reports the warning at the end of the file, so it stays off to there.
#pragma GCC diagnostic ignored "-Wpsabi"

// Lane i of a pack: `set` where bit `bit` of s_i is set (bit 1 is out0,
// bit 0 out1), else `clear`.
template <class T, class P, unsigned bit, std::int16_t set, std::int16_t clear>
[[gnu::always_inline]] inline typename P::V lane_constant() {
  static constexpr auto lanes = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<std::int16_t, 8 * P::groups>{(T::sym(I) & bit ? set : clear)...};
  }(std::make_index_sequence<8 * P::groups>{});
  return P::load(lanes.data());
}

// Pack K's butterflies, 8 * P::groups of them from butterfly
// 8 * P::groups * K on: each metric vector is loaded once, and each
// group's decisions are one 16-bit word, even successors in the low byte.
template <class T, class P, std::size_t K>
[[gnu::always_inline]] inline void butterflies(const typename P::V (&lanes)[4], const std::int16_t* __restrict metric,
                                               std::int16_t* __restrict next, std::uint16_t* __restrict dec) {
  using V = typename P::V;
  constexpr std::size_t first = 8 * P::groups * K;
  constexpr unsigned c = T::sym(first);
  const V a = lanes[c];
  const V b = lanes[c ^ 3];
  const V lo = P::load(metric + first), hi = P::load(metric + T::half + first);
  const V m0e = P::add(lo, a), m1e = P::add(hi, b);
  const V m0o = P::add(lo, b), m1o = P::add(hi, a);
  P::store_interleaved(next + 2 * first, P::min(m0e, m1e), P::min(m0o, m1o));
  const typename P::Word word = P::decisions(P::greater(m0e, m1e), P::greater(m0o, m1o));
  std::memcpy(dec + P::groups * K, &word, sizeof word);
}

// Every pack's butterflies, unrolled. A helper rather than a lambda: a
// lambda in the avx2 instance would not inherit its target.
template <class T, class P, std::size_t... K>
[[gnu::always_inline]] inline void all_butterflies(const typename P::V (&lanes)[4], const std::int16_t* __restrict metric,
                                                   std::int16_t* __restrict next, std::uint16_t* __restrict dec,
                                                   std::index_sequence<K...>) {
  (butterflies<T, P, K>(lanes, metric, next, dec), ...);
}

// One trellis step on the quantized pair (q0, q1): metric -> next, and the
// step's T::groups decision words into dec.
template <class T, class P>
[[gnu::always_inline]] inline void acs_step(std::int16_t q0, std::int16_t q1, const std::int16_t* __restrict metric,
                                            std::int16_t* __restrict next, std::uint16_t* __restrict dec) {
  using V = typename P::V;
  constexpr std::int16_t Q = ConvolutionalCodec::kSoftScale;
  // The step's four lane patterns: lanes[c] holds bm[s_i ^ c] in lane i,
  // which is `a` of every pack with base symbol c and `b` of every pack
  // with base symbol c ^ 3. Each half of bm is the distance of one received
  // value to the expected bit: q for a 0, Q - q for a 1. So x0, the
  // distance of q0 to lane i's out0, is (q0 ^ m) + (m ? Q + 1 : 0) with m
  // all ones where out0 is 1; x0_flip, the distance to the other bit, is
  // Q - x0. x1 likewise.
  const V x0 = P::add(P::bit_xor(P::splat(q0), lane_constant<T, P, 2, -1, 0>()), lane_constant<T, P, 2, Q + 1, 0>());
  const V x1 = P::add(P::bit_xor(P::splat(q1), lane_constant<T, P, 1, -1, 0>()), lane_constant<T, P, 1, Q + 1, 0>());
  const V x0_flip = P::sub(P::splat(Q), x0), x1_flip = P::sub(P::splat(Q), x1);
  const V lanes[4] = {P::add(x0, x1), P::add(x0, x1_flip), P::add(x0_flip, x1), P::add(x0_flip, x1_flip)};
  all_butterflies<T, P>(lanes, metric, next, dec, std::make_index_sequence<T::groups / P::groups>{});
}

// Subtracts the smallest metric from all of them, eight lanes at a time in
// either instance: it runs once every kRenormalize steps.
template <class T>
[[gnu::always_inline]] inline void renormalize(std::int16_t* metric) {
  Pack8::V lowest = Pack8::load(metric);
  for (std::size_t i = 8; i < T::states; i += 8) lowest = Pack8::min(lowest, Pack8::load(metric + i));
  const Pack8::V shift = Pack8::splat(lane_min(lowest));
  for (std::size_t i = 0; i < T::states; i += 8) Pack8::store(metric + i, Pack8::sub(Pack8::load(metric + i), shift));
}

// Runs the trellis over in_bits quantized (q0, q1) pairs on lane pack P
// and writes each step's T::groups decision words.
template <class T, class P>
[[gnu::always_inline]] inline void acs_loop(const std::int16_t* pairs, std::size_t in_bits, std::uint16_t* dec) {
  // State 0 starts at 0, every other state at kUnreached, and the
  // smallest metric is subtracted every kRenormalize steps. A metric grows
  // by at most 2Q a step, and after the first K-1 steps none exceeds the
  // smallest by more than (K-1) * 2Q (see the header), so no sum leaves
  // int16 and plain wrapping adds are exact.
  constexpr int kUnreached = 16384, kRenormalize = 16, kMaxBranch = 2 * ConvolutionalCodec::kSoftScale;
  static_assert(kRenormalize >= T::k - 1 && kUnreached + kRenormalize * kMaxBranch <= 32767);
  static_assert((T::k - 1 + kRenormalize) * kMaxBranch <= 32767);
  alignas(32) std::int16_t buffers[2][T::states];
  std::int16_t* metric = buffers[0];
  std::int16_t* next = buffers[1];
  std::fill_n(metric, T::states, static_cast<std::int16_t>(kUnreached));
  metric[0] = 0;
  for (std::size_t step = 0; step < in_bits; ++step) {
    acs_step<T, P>(pairs[2 * step], pairs[2 * step + 1], metric, next, dec + step * T::groups);
    std::swap(metric, next);
    if (step % kRenormalize == kRenormalize - 1) renormalize<T>(metric);
  }
}

#if defined(__SSE2__)
// The Pack16 instance. flatten inlines the Pack16 ops, which only a
// function with the avx2 target may inline.
template <class T>
[[gnu::target("avx2"), gnu::flatten]] void acs_loop_avx2(const std::int16_t* pairs, std::size_t in_bits,
                                                        std::uint16_t* dec) {
  acs_loop<T, Pack16>(pairs, in_bits, dec);
}
#endif

// The trellis at `width`: 8 lanes per register at k128, 16 at k256.
template <class T>
void add_compare_select(const std::int16_t* pairs, std::size_t in_bits, std::uint16_t* dec, util::SimdWidth width) {
#if defined(__SSE2__)
  if (width == util::SimdWidth::k256) return acs_loop_avx2<T>(pairs, in_bits, dec);
#endif
  (void)width;
  acs_loop<T, Pack8>(pairs, in_bits, dec);
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

// The mother code's output bits of `data` (MSB first) and the K-1 flush
// bits, out0 then out1 per input bit.
template <class T>
void raw_encode_bits(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out_bits) {
  std::uint32_t state = 0;
  auto push = [&](std::uint32_t bit) {
    const std::uint32_t reg = (state << 1) | bit;
    out_bits.push_back(static_cast<std::uint8_t>(parity(reg & T::poly_a)));
    out_bits.push_back(static_cast<std::uint8_t>(parity(reg & T::poly_b)));
    state = reg & static_cast<std::uint32_t>(T::states - 1);
  };
  for (std::uint8_t byte : data) {
    for (int i = 7; i >= 0; --i) push((byte >> i) & 1u);
  }
  for (int i = 0; i < T::k - 1; ++i) push(0);  // flush to state 0
}

// Trellis steps of a payload: its bits and the K-1 flush bits.
std::size_t input_bits(ConvCode code, std::size_t payload_bytes) {
  return payload_bytes * 8 + with_trellis(code, [](auto t) { return static_cast<std::size_t>(decltype(t)::k - 1); });
}

}  // namespace

ConvolutionalCodec::ConvolutionalCodec(ConvSpec spec) : spec_(spec) {
  if (spec.code != ConvCode::kV27 && spec.code != ConvCode::kV29) {
    throw std::invalid_argument("unknown convolutional code");
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

std::size_t ConvolutionalCodec::encoded_bits(std::size_t payload_bytes) const {
  const std::size_t raw = input_bits(spec_.code, payload_bytes) * 2;
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
  with_trellis(spec_.code, [&](auto t) { raw_encode_bits<decltype(t)>(data, raw); });

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
             std::uint8_t* out, util::SimdWidth width) {
  const std::size_t in_bits = pairs.size() / 2;
  if (walk_hard_decisions<T>(pairs.data(), in_bits, payload_bytes, out)) return;
  dec.resize(in_bits * T::groups);  // every word is written below
  add_compare_select<T>(pairs.data(), in_bits, dec.data(), width);
  traceback<T>(dec.data(), payload_bytes, out);
}

}  // namespace

util::Bytes ConvolutionalCodec::decode_soft(std::span<const std::uint8_t> soft, std::size_t payload_bytes) const {
  return decode_soft(soft, payload_bytes, util::simd_width());
}

util::Bytes ConvolutionalCodec::decode_soft(std::span<const std::uint8_t> soft, std::size_t payload_bytes,
                                            util::SimdWidth width) const {
  util::checked_simd_width(width);
  const std::size_t in_bits = input_bits(spec_.code, payload_bytes);
  thread_local ViterbiWorkspace ws;
  switch (spec_.rate) {
    case PunctureRate::kRate1_2: depuncture<kPattern1_2>(soft, in_bits, ws.pairs); break;
    case PunctureRate::kRate2_3: depuncture<kPattern2_3>(soft, in_bits, ws.pairs); break;
    case PunctureRate::kRate3_4: depuncture<kPattern3_4>(soft, in_bits, ws.pairs); break;
  }
  util::Bytes out(payload_bytes);
  with_trellis(spec_.code, [&](auto t) { viterbi<decltype(t)>(ws.pairs, payload_bytes, ws.decisions, out.data(), width); });
  return out;
}

}  // namespace sonic::fec
