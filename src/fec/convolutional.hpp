// Convolutional coding with Viterbi decoding — the paper's "inner FEC
// scheme (v29)" (§3.3), i.e. the constraint-length-9 rate-1/2 code that the
// Quiet library inherits from libfec. We also provide the K=7 "v27" code and
// puncturing to rates 2/3 and 3/4 so transmission profiles can trade
// robustness for throughput. Both the encoder (a byte a step) and the
// Viterbi decoder run on one compile-time description of each trellis.
//
// Soft inputs are bytes from 0 to kSoftScale (254): 0 = confident logical
// 0, kSoftScale = confident logical 1, kSoftErasure (127) = erasure/unknown.
// A probability P(bit == 1) becomes one through quantize_soft; hard
// decisions map to exactly 0 and kSoftScale. The receive chain holds LLRs,
// not probabilities: its one quantizer is fec::LlrQuantizer
// (fec/llr_quantizer.hpp), a threshold table whose definition is
// quantize_soft of each LLR's probability.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace sonic::fec {

enum class ConvCode {
  kV27,  // K=7, polys 0x6d / 0x4f (Voyager)
  kV29,  // K=9, polys 0x1af / 0x11d (the paper's inner code)
};

enum class PunctureRate {
  kRate1_2,  // mother code, no puncturing
  kRate2_3,
  kRate3_4,
};

struct ConvSpec {
  ConvCode code = ConvCode::kV29;
  PunctureRate rate = PunctureRate::kRate1_2;
};

class ConvolutionalCodec {
 public:
  explicit ConvolutionalCodec(ConvSpec spec);

  // Encodes `data` (bytes, MSB-first) plus K-1 flush bits; returns the
  // punctured output bitstream packed into bytes, the last one zero-padded.
  //
  // A byte a step, from two tables built at compile time from the trellis
  // the decoder runs on: the code is linear over GF(2), so a byte's sixteen
  // output bits are those of the state fed a zero byte XOR those of the
  // byte fed from state 0 (2 x 512 bytes for v29), and the byte's last K-1
  // bits are the next state. Puncturing keeps the pattern's bits of twelve
  // raw bits at a time (two periods of 3/4, three of 2/3) through one
  // 4096-entry table; rate 1/2 keeps all. The output is byte-identical to
  // the per-bit encoder (oracles::conv_encode_reference in the test-only
  // library).
  util::Bytes encode(std::span<const std::uint8_t> data) const;
  // The same into `out`, which holds (encoded_bits(data.size()) + 7) / 8
  // bytes (else std::invalid_argument); allocates nothing.
  void encode(std::span<const std::uint8_t> data, std::span<std::uint8_t> out) const;

  // Number of encoded bits produced for `payload_bytes` input bytes
  // (after puncturing, before byte packing).
  std::size_t encoded_bits(std::size_t payload_bytes) const;

  // Viterbi decode of soft bytes back into `payload_bytes` bytes. `soft`
  // must contain encoded_bits(payload_bytes) entries; missing ones read as
  // erasures, and bytes above kSoftScale as kSoftScale. Returns the decoded
  // bytes; the code is always decodable (it picks the best path), so
  // integrity must be checked by an outer CRC.
  //
  // The bytes are spread over the puncturing pattern into int16 (q0, q1)
  // pairs, punctured positions as the erasure Q/2 (Q = kSoftScale). Branch
  // metrics are the L1 distances |q0 - Q*out0| + |q1 - Q*out1| (at most
  // 2Q), and path metrics are int16.
  //
  // The trellis is fixed at compile time: decode_soft runs a template
  // instance per code (v27: 4 groups of eight butterflies, v29: 16), with
  // every branch symbol a constant and the group loop fully unrolled. It
  // runs as add-compare-select butterflies on the int16 lanes of
  // util/lanes.hpp's packs (paddw, pcmpgtw, pminsw), through the one width
  // dispatch util::at_width: eight per SSE2 register (Lanes4; the generic
  // lowering without SSE2), or sixteen, two groups, per AVX2 register
  // (Lanes8) where util::simd_width() is k256. Butterfly j joins predecessors
  // j and j + half to successors 2j (input bit 0) and 2j + 1 (input bit
  // 1). Both codes tap the register's MSB and LSB in both polynomials, so
  // a butterfly's four branches carry only two metrics: a = bm[s_j] on
  // j -> 2j and j + half -> 2j + 1, b = bm[s_j ^ 3] on the crossing
  // branches, where s_j = out0 * 2 + out1 of branch j -> 2j and bm is the
  // step's four branch metrics. s_j is linear in j, so s_(n*m + i) =
  // s_(n*m) ^ s_i for n = 8 or 16 lanes: per step, four lane vectors
  // bm[s_i ^ c] stay in registers and serve butterflies n*m to n*m + n - 1
  // for every m as a (c = s_(n*m)) and b (c = s_(n*m) ^ 3), both picked at
  // compile time. A
  // successor takes the high predecessor only if its metric is strictly
  // lower, so ties keep the low predecessor.
  //
  // int16 cannot overflow. State 0 starts at 0 and every other state at
  // 16384. Any state is reachable from any other in K-1 steps, so once the
  // start's K-1 steps have passed, no metric exceeds the minimum by more
  // than (K-1) * 2Q (4064 for v29), and every path from a state other than
  // 0 has lost to one from state 0. Every 16 steps the minimum is
  // subtracted from all metrics, so between renormalizations they grow by
  // at most 16 * 2Q more: the largest metric is 16384 + 16 * 2Q = 24512 in
  // the first 16 steps and at most (K-1) * 2Q + 16 * 2Q (12192 for v29)
  // after them, below 32767 (static_asserts in the decoder check both bounds), so the
  // adds need no saturation.
  //
  // Frames whose hard decisions are already a codeword skip the trellis.
  // Before the ACS, decode_soft walks it once from state 0 along the hard
  // decisions (q > Q/2 is a 1). Both polynomials tap the input bit u, so
  // at every step u is the hard bit of a position whose q is not the
  // erasure Q/2, XOR that polynomial's parity of the state. The walk hands
  // the frame to the ACS at the first step whose two positions are both
  // Q/2 (punctured, erased or missing), whose second position off Q/2
  // disagrees with the first, or that is a flush step implying a 1. A walk
  // that reaches the end returns its input bits, and they are the ACS's
  // answer:
  //   * at every position the walked path pays the least branch cost any
  //     branch can pay there, |q - Q*h| with h its own hard decision;
  //   * any other path from state 0 into a state on the walked path first
  //     leaves it in a state the two share, with the other input bit, so
  //     both its outputs differ there; at least one of those positions is
  //     not Q/2, and there it pays |2q - Q| > 0 more, so more in all;
  //   * paths from other start states begin 16384 higher and pay no less
  //     per branch, and the int16 sums are exact (above);
  // so the walked prefix is the unique least-metric path into every state
  // it visits, the ACS keeps it there whatever its tie rule, and the
  // traceback from state 0 (where the zero flush bits end it) returns it.
  // The rule admits a lone Q/2 beside a decisive bit.
  //
  // Each step's decisions (1 = high predecessor won) are one 16-bit word
  // per group of eight butterflies, packed with packsswb + pmovmskb (the
  // packs' decisions(); on AVX2 one 32-bit store holds a register's two
  // words, and the generic fallback keeps each all-ones lane's own bit of a
  // lane constant and ORs the lanes together as 16-bit fields): bit i
  // of group g's word is even successor 2(8g + i), bit 8 + i odd successor
  // 2(8g + i) + 1. Traceback reads successor `next` as bit
  // (next & 1) * 8 + (next >> 1) % 8 of word next >> 4, and writes each
  // output byte from eight steps' state bits without a branch. All buffers
  // are reused across calls through a thread-local workspace, so
  // concurrent decodes on a shared codec are safe. The output is
  // byte-identical to the per-state decoder on the same quantized input
  // (oracles::decode_soft_quantized_reference in the test-only library);
  // the float per-state decoder (oracles::decode_soft_reference) is the
  // coding-gain baseline it is checked against.
  util::Bytes decode_soft(std::span<const std::uint8_t> soft, std::size_t payload_bytes) const;

  // Soft-bit quantization scale (even, so 0.5 is exact) and the erasure.
  static constexpr int kSoftScale = 254;
  static constexpr std::uint8_t kSoftErasure = kSoftScale / 2;

  // The soft byte of P(bit == 1) = p: round(clamp(p, 0, 1) * kSoftScale),
  // halves rounding up, with NaN read as the erasure (a select, not a
  // branch). Computed in float as clamp * kSoftScale + 0.5, truncated.
  static std::uint8_t quantize_soft(float p) {
    const float v = p == p ? std::min(std::max(p, 0.0f), 1.0f) : 0.5f;
    return static_cast<std::uint8_t>(v * static_cast<float>(kSoftScale) + 0.5f);
  }

  // Effective code rate as a fraction (e.g. 0.5, 2/3, 0.75).
  double rate() const;

 private:
  ConvSpec spec_;
};

}  // namespace sonic::fec
