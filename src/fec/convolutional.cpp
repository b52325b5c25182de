#include "fec/convolutional.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "util/lanes.hpp"

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

// Groups of eight butterflies in one int16 vector of pack P: one in
// Lanes4's eight lanes, two in Lanes8's sixteen.
template <class P>
constexpr std::size_t kGroups = P::n / 4;

// Lane i of an int16 vector of P: `set` where bit `bit` of s_i is set (bit
// 1 is out0, bit 0 out1), else `clear`.
template <class T, class P, unsigned bit, std::int16_t set, std::int16_t clear>
[[gnu::always_inline]] inline void lane_constant(typename P::S& v) {
  static constexpr auto lanes = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<std::int16_t, 8 * kGroups<P>>{(T::sym(I) & bit ? set : clear)...};
  }(std::make_index_sequence<8 * kGroups<P>>{});
  util::load_to(v, lanes.data());
}

// Vector K's butterflies, 8 * kGroups<P> of them from butterfly
// 8 * kGroups<P> * K on: each metric vector is loaded once, and each
// group's decisions are one 16-bit word, even successors in the low byte.
// Wrapping int16 adds, pminsw and pcmpgtw (vp* in the Lanes8 instance).
template <class T, class P, std::size_t K>
[[gnu::always_inline]] inline void butterflies(const typename P::S (&lanes)[4], const std::int16_t* __restrict metric,
                                               std::int16_t* __restrict next, std::uint16_t* __restrict dec) {
  using S = typename P::S;
  constexpr std::size_t first = 8 * kGroups<P> * K;
  constexpr unsigned c = T::sym(first);
  const S& a = lanes[c];
  const S& b = lanes[c ^ 3];
  S lo, hi;
  util::load_to(lo, metric + first);
  util::load_to(hi, metric + T::half + first);
  const S m0e = lo + a, m1e = hi + b;
  const S m0o = lo + b, m1o = hi + a;
  P::store_interleaved(next + 2 * first, m0e < m1e ? m0e : m1e, m0o < m1o ? m0o : m1o);
  P::decisions(m0e > m1e, m0o > m1o, dec + kGroups<P> * K);
}

// Every vector's butterflies, unrolled.
template <class T, class P, std::size_t... K>
[[gnu::always_inline]] inline void all_butterflies(const typename P::S (&lanes)[4], const std::int16_t* __restrict metric,
                                                   std::int16_t* __restrict next, std::uint16_t* __restrict dec,
                                                   std::index_sequence<K...>) {
  (butterflies<T, P, K>(lanes, metric, next, dec), ...);
}

// One trellis step on the quantized pair (q0, q1): metric -> next, and the
// step's T::groups decision words into dec.
template <class T, class P>
[[gnu::always_inline]] inline void acs_step(std::int16_t q0, std::int16_t q1, const std::int16_t* __restrict metric,
                                            std::int16_t* __restrict next, std::uint16_t* __restrict dec) {
  using S = typename P::S;
  constexpr std::int16_t Q = ConvolutionalCodec::kSoftScale;
  // The step's four lane patterns: lanes[c] holds bm[s_i ^ c] in lane i,
  // which is `a` of every vector with base symbol c and `b` of every
  // vector with base symbol c ^ 3. Each half of bm is the distance of one received
  // value to the expected bit: q for a 0, Q - q for a 1. So x0, the
  // distance of q0 to lane i's out0, is (q0 ^ m) + (m ? Q + 1 : 0) with m
  // all ones where out0 is 1; x0_flip, the distance to the other bit, is
  // Q - x0. x1 likewise.
  S m0, c0, m1, c1;
  lane_constant<T, P, 2, -1, 0>(m0);
  lane_constant<T, P, 2, Q + 1, 0>(c0);
  lane_constant<T, P, 1, -1, 0>(m1);
  lane_constant<T, P, 1, Q + 1, 0>(c1);
  const S x0 = (q0 ^ m0) + c0, x1 = (q1 ^ m1) + c1;
  const S x0_flip = Q - x0, x1_flip = Q - x1;
  const S lanes[4] = {x0 + x1, x0 + x1_flip, x0_flip + x1, x0_flip + x1_flip};
  all_butterflies<T, P>(lanes, metric, next, dec, std::make_index_sequence<T::groups / kGroups<P>>{});
}

// Subtracts the smallest metric from all of them, eight lanes at a time in
// either instance: it runs once every kRenormalize steps.
template <class T>
[[gnu::always_inline]] inline void renormalize(std::int16_t* metric) {
  using S = util::Lanes4::S;
  S lowest, v;
  util::load_to(lowest, metric);
  for (std::size_t i = 8; i < T::states; i += 8) {
    util::load_to(v, metric + i);
    lowest = v < lowest ? v : lowest;
  }
  // Every lane to the smallest of the eight.
  v = __builtin_shufflevector(lowest, lowest, 4, 5, 6, 7, 0, 1, 2, 3);
  lowest = v < lowest ? v : lowest;
  v = __builtin_shufflevector(lowest, lowest, 2, 3, 0, 1, 6, 7, 4, 5);
  lowest = v < lowest ? v : lowest;
  v = __builtin_shufflevector(lowest, lowest, 1, 0, 3, 2, 5, 4, 7, 6);
  lowest = v < lowest ? v : lowest;
  const std::int16_t shift = lowest[0];
  for (std::size_t i = 0; i < T::states; i += 8) {
    util::load_to(v, metric + i);
    util::store_from(metric + i, S(v - shift));
  }
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
//
// The predecessor of `state` is lo = state >> 1 with the step's decision e
// as its top bit, and e only picks which of lo's two versions comes next:
// both of their decisions for the step before are loaded while e is still
// being selected, so the serial chain per step is one select, not a load.
// The select is a mask, not a conditional: GCC compiles `e ? e1 : e0` here
// to a jump, which noisy frames' random decisions mispredict.
template <class T>
void traceback(const std::uint16_t* dec, std::size_t payload_bytes, std::uint8_t* out) {
  constexpr std::uint32_t kTop = 1u << (T::k - 2);
  static_assert(T::k - 2 >= 4, "the top bit must not move a state's bit within its decision word");
  // The decision of `step` for state s: word s >> 4, bit (s & 1) * 8 + the
  // next three bits.
  auto decision = [dec](std::size_t step, std::uint32_t s) {
    const std::uint32_t word = dec[step * T::groups + (s >> 4)];
    return (word >> ((s & 1) * 8 + ((s >> 1) & 7))) & 1u;
  };
  std::size_t step = payload_bytes * 8 + static_cast<std::size_t>(T::k - 1);
  std::uint32_t state = 0;
  std::uint32_t e = decision(step - 1, state);  // the decision of the step about to be passed
  auto back = [&] {
    --step;
    const std::uint32_t lo = state >> 1;
    state = lo | e << (T::k - 2);
    if (step > 0) {
      const std::uint32_t e0 = decision(step - 1, lo), e1 = decision(step - 1, lo | kTop);
      e = e0 ^ ((e0 ^ e1) & (0u - e));
    }
  };
  while (step > payload_bytes * 8) back();
  for (std::size_t byte = payload_bytes; byte-- > 0;) {
    std::uint32_t bits = 0;  // step 8 * byte + 7 - b is bit b, counted from the LSB
    for (std::uint32_t b = 0; b < 8; ++b) {
      bits |= (state & 1u) << b;
      back();
    }
    out[byte] = static_cast<std::uint8_t>(bits);
  }
}

// The mother code's sixteen output bits for the byte `byte` fed MSB first
// from `state`: out0 then out1 per input bit, the first input bit's pair in
// bits 15 and 14.
template <class T>
constexpr std::uint32_t byte_out_bits(std::uint32_t state, std::uint32_t byte) {
  std::uint32_t bits = 0;
  for (int i = 7; i >= 0; --i) {
    const std::uint32_t reg = (state << 1) | ((byte >> i) & 1u);
    bits = (bits << 2) | static_cast<std::uint32_t>(parity(reg & T::poly_a) * 2 + parity(reg & T::poly_b));
    state = reg & static_cast<std::uint32_t>(T::states - 1);
  }
  return bits;
}

// The encoder is linear over GF(2) in its state and input bits, so a
// byte's output bits from `state` are from_state[state] (the state fed a
// zero byte) XOR from_byte[byte] (the byte fed from state 0), and the
// state after it is the byte's last K-1 bits.
template <class T>
struct ByteTables {
  template <std::size_t N, class F>
  static constexpr std::array<std::uint16_t, N> table(F f) {
    std::array<std::uint16_t, N> t{};
    for (std::size_t i = 0; i < N; ++i) t[i] = static_cast<std::uint16_t>(f(static_cast<std::uint32_t>(i)));
    return t;
  }
  static constexpr auto from_state = table<T::states>([](std::uint32_t s) { return byte_out_bits<T>(s, 0); });
  static constexpr auto from_byte = table<256>([](std::uint32_t b) { return byte_out_bits<T>(0, b); });
  static_assert(T::states <= 256, "a byte must fill the state");
};

// Punctures the mother code's output through the pattern Pat and packs the
// kept bits MSB first. Raw bits arrive up to sixteen at a time and leave in
// chunks of twelve, whole periods of every pattern, each through one table
// of its kept bits; the last partial chunk keeps its pattern prefix.
template <const auto& Pat>
class Puncturer {
  static constexpr int kPeriod = static_cast<int>(std::size(Pat));
  static constexpr int kChunk = 12;
  static_assert(kChunk % kPeriod == 0, "a chunk holds whole pattern periods");
  static constexpr int kept(int raw) {
    int n = 0;
    for (int i = 0; i < raw; ++i) n += Pat[i % kPeriod];
    return n;
  }
  static constexpr int kChunkKept = kept(kChunk);
  static constexpr auto kTable = [] {
    std::array<std::uint16_t, 1u << kChunk> t{};
    for (std::uint32_t c = 0; c < t.size(); ++c) {
      std::uint32_t bits = 0;
      for (int i = 0; i < kChunk; ++i) {
        if (Pat[i % kPeriod]) bits = (bits << 1) | ((c >> (kChunk - 1 - i)) & 1u);
      }
      t[c] = static_cast<std::uint16_t>(bits);
    }
    return t;
  }();

 public:
  explicit Puncturer(std::uint8_t* out) : out_(out) {}

  // Appends the raw bits `bits` (n <= 16 of them, first in the MSB).
  void push(std::uint32_t bits, int n) {
    if constexpr (kChunkKept == kChunk) {
      keep(bits, n);
    } else {
      raw_ = (raw_ << n) | bits;
      raw_n_ += n;
      while (raw_n_ >= kChunk) {
        raw_n_ -= kChunk;
        keep(kTable[(raw_ >> raw_n_) & ((1u << kChunk) - 1)], kChunkKept);
      }
    }
  }

  // Writes the last partial chunk and byte, zero-padded.
  void finish() {
    if (raw_n_ > 0) {
      const int n = kept(raw_n_);
      keep(static_cast<std::uint32_t>(kTable[(raw_ << (kChunk - raw_n_)) & ((1u << kChunk) - 1)] >> (kChunkKept - n)), n);
    }
    if (out_n_ > 0) *out_++ = static_cast<std::uint8_t>(out_bits_ << (8 - out_n_));
  }

 private:
  void keep(std::uint32_t bits, int n) {
    out_bits_ = (out_bits_ << n) | bits;
    out_n_ += n;
    while (out_n_ >= 8) {
      out_n_ -= 8;
      *out_++ = static_cast<std::uint8_t>(out_bits_ >> out_n_);
    }
  }

  std::uint8_t* out_;
  std::uint64_t raw_ = 0, out_bits_ = 0;  // only the low raw_n_ and out_n_ bits are pending
  int raw_n_ = 0, out_n_ = 0;
};

// encode on the trellis T and the pattern Pat: a byte a step through
// ByteTables, then the K-1 flush bits (the state fed zeros).
template <class T, const auto& Pat>
void encode_bytes(std::span<const std::uint8_t> data, std::uint8_t* out) {
  using Tables = ByteTables<T>;
  Puncturer<Pat> punct(out);
  std::uint32_t state = 0;
  for (const std::uint8_t byte : data) {
    punct.push(Tables::from_state[state] ^ Tables::from_byte[byte], 16);
    state = byte & static_cast<std::uint32_t>(T::states - 1);
  }
  punct.push(static_cast<std::uint32_t>(Tables::from_state[state]) >> (16 - 2 * (T::k - 1)), 2 * (T::k - 1));
  punct.finish();
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

void ConvolutionalCodec::encode(std::span<const std::uint8_t> data, std::span<std::uint8_t> out) const {
  if (out.size() != (encoded_bits(data.size()) + 7) / 8) throw std::invalid_argument("conv output size mismatch");
  with_trellis(spec_.code, [&](auto t) {
    using T = decltype(t);
    switch (spec_.rate) {
      case PunctureRate::kRate1_2: encode_bytes<T, kPattern1_2>(data, out.data()); break;
      case PunctureRate::kRate2_3: encode_bytes<T, kPattern2_3>(data, out.data()); break;
      case PunctureRate::kRate3_4: encode_bytes<T, kPattern3_4>(data, out.data()); break;
    }
  });
}

util::Bytes ConvolutionalCodec::encode(std::span<const std::uint8_t> data) const {
  util::Bytes out((encoded_bits(data.size()) + 7) / 8);
  encode(data, out);
  return out;
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
  // 8 lanes per register at k128, 16 at k256.
  util::at_width([&]<class P> { acs_loop<T, P>(pairs.data(), in_bits, dec.data()); });
  traceback<T>(dec.data(), payload_bytes, out);
}

}  // namespace

util::Bytes ConvolutionalCodec::decode_soft(std::span<const std::uint8_t> soft, std::size_t payload_bytes) const {
  const std::size_t in_bits = input_bits(spec_.code, payload_bytes);
  thread_local ViterbiWorkspace ws;
  switch (spec_.rate) {
    case PunctureRate::kRate1_2: depuncture<kPattern1_2>(soft, in_bits, ws.pairs); break;
    case PunctureRate::kRate2_3: depuncture<kPattern2_3>(soft, in_bits, ws.pairs); break;
    case PunctureRate::kRate3_4: depuncture<kPattern3_4>(soft, in_bits, ws.pairs); break;
  }
  util::Bytes out(payload_bytes);
  with_trellis(spec_.code, [&](auto t) { viterbi<decltype(t)>(ws.pairs, payload_bytes, ws.decisions, out.data()); });
  return out;
}

}  // namespace sonic::fec
