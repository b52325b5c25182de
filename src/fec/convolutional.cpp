#include "fec/convolutional.hpp"

#include <bit>
#include <cmath>
#include <limits>
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

// Four ACS lanes: path metrics, and the all-ones/zero masks that their
// comparisons produce.
typedef float V4f __attribute__((vector_size(16)));
typedef std::int32_t V4i __attribute__((vector_size(16)));

// Lane i's mask bit in bit i.
inline unsigned movemask(V4i m) {
#if defined(__SSE2__)
  return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(reinterpret_cast<__m128i>(m))));
#else
  return (m[0] & 1u) | (m[1] & 2u) | (m[2] & 4u) | (m[3] & 8u);
#endif
}

// Lanes of `hi` where `take` is set, else lanes of `lo`.
inline V4f select(V4i take, V4f hi, V4f lo) {
  const V4i h = reinterpret_cast<V4i>(hi);
  const V4i l = reinterpret_cast<V4i>(lo);
  return reinterpret_cast<V4f>((take & h) | (~take & l));
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
  // is linear in j over GF(2), and 4g and i < 4 share no bits, so
  // s_(4g + i) = s_(4g) ^ s_i.
  auto sym = [&](std::size_t j) {
    const Branch& br = branches_[j << 1];
    return static_cast<std::uint8_t>(br.out0 * 2 + br.out1);
  };
  for (std::size_t i = 0; i < 4; ++i) lane_sym_[i] = sym(i);
  group_sym_.resize(static_cast<std::size_t>(num_states_) / 8);
  for (std::size_t g = 0; g < group_sym_.size(); ++g) group_sym_[g] = sym(4 * g);
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
                                    std::vector<float>& pairs) const {
  // De-puncture into per-step (out0, out1) soft pairs; punctured positions
  // become 0.5 (no information).
  const auto pat = puncture_pattern(spec_.rate);
  pairs.assign(in_bits * 2, 0.5f);
  std::size_t soft_idx = 0;
  std::size_t p = 0;
  for (std::size_t i = 0; i < in_bits * 2; ++i) {
    if (pat[p]) {
      pairs[i] = soft_idx < soft.size() ? soft[soft_idx] : 0.5f;
      ++soft_idx;
    }
    if (++p == pat.size()) p = 0;
  }
}

namespace {

// Buffers for decode_soft, reused across calls. Thread-local rather than a
// codec member so concurrent decodes on a shared codec stay safe.
struct ViterbiWorkspace {
  std::vector<float> pairs;
  std::vector<V4f> metric;       // ns / 4 vectors, state order
  std::vector<V4f> next_metric;
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

  thread_local ViterbiWorkspace ws;
  depuncture(soft, in_bits, ws.pairs);

  constexpr float kInf = std::numeric_limits<float>::max() / 4;
  ws.metric.assign(ns / 4, V4f{kInf, kInf, kInf, kInf});
  ws.next_metric.resize(ns / 4);
  ws.metric[0][0] = 0.0f;  // encoder starts in state 0
  ws.decisions.resize(in_bits * step_bytes);  // every byte is written below

  const std::uint8_t* group_sym = group_sym_.data();
  const auto [l0, l1, l2, l3] = lane_sym_;
  for (std::size_t step = 0; step < in_bits; ++step) {
    const float s0 = ws.pairs[step * 2];
    const float s1 = ws.pairs[step * 2 + 1];
    // The 4 possible branch metrics (L1 distance to the expected output
    // pair), then the step's four lane patterns: lanes[c] holds
    // bm[s_i ^ c] in lane i, which is `a` of every group with base symbol c
    // and `b` of every group with base symbol c ^ 3.
    const float d0 = std::fabs(s0);
    const float d0c = std::fabs(s0 - 1.0f);
    const float d1 = std::fabs(s1);
    const float d1c = std::fabs(s1 - 1.0f);
    const float bm[4] = {d0 + d1, d0 + d1c, d0c + d1, d0c + d1c};
    V4f lanes[4];
    for (unsigned c = 0; c < 4; ++c) lanes[c] = V4f{bm[l0 ^ c], bm[l1 ^ c], bm[l2 ^ c], bm[l3 ^ c]};

    const V4f* m_lo = ws.metric.data();
    const V4f* m_hi = ws.metric.data() + half / 4;
    V4f* nm = ws.next_metric.data();
    std::uint8_t* dec_even = ws.decisions.data() + step * step_bytes;
    std::uint8_t* dec_odd = dec_even + half / 8;

    // Butterflies j .. j+3 (g = j / 4): returns the even and odd
    // successors' decision nibbles.
    auto acs4 = [&](std::size_t g) {
      const V4f a = lanes[group_sym[g]];
      const V4f b = lanes[group_sym[g] ^ 3];
      const V4f m0e = m_lo[g] + a, m1e = m_hi[g] + b;
      const V4f m0o = m_lo[g] + b, m1o = m_hi[g] + a;
      const V4i take_e = m1e < m0e;
      const V4i take_o = m1o < m0o;
      const V4f ne = select(take_e, m1e, m0e);
      const V4f no = select(take_o, m1o, m0o);
      nm[2 * g] = __builtin_shufflevector(ne, no, 0, 4, 1, 5);
      nm[2 * g + 1] = __builtin_shufflevector(ne, no, 2, 6, 3, 7);
      return std::pair{movemask(take_e), movemask(take_o)};
    };
    for (std::size_t g = 0; g < half / 4; g += 2) {
      const auto [e_lo, o_lo] = acs4(g);
      const auto [e_hi, o_hi] = acs4(g + 1);
      dec_even[g / 2] = static_cast<std::uint8_t>(e_lo | (e_hi << 4));
      dec_odd[g / 2] = static_cast<std::uint8_t>(o_lo | (o_hi << 4));
    }
    ws.metric.swap(ws.next_metric);
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

util::Bytes ConvolutionalCodec::decode_hard(std::span<const std::uint8_t> packed_bits,
                                            std::size_t payload_bytes) const {
  const std::size_t nbits = encoded_bits(payload_bytes);
  std::vector<float> soft(nbits, 0.5f);
  util::BitReader br(packed_bits);
  for (std::size_t i = 0; i < nbits && br.bits_remaining() > 0; ++i) {
    soft[i] = static_cast<float>(br.bit());
  }
  return decode_soft(soft, payload_bytes);
}

}  // namespace sonic::fec
