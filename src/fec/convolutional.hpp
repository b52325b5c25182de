// Convolutional coding with Viterbi decoding — the paper's "inner FEC
// scheme (v29)" (§3.3), i.e. the constraint-length-9 rate-1/2 code that the
// Quiet library inherits from libfec. We also provide the K=7 "v27" code and
// puncturing to rates 2/3 and 3/4 so transmission profiles can trade
// robustness for throughput.
//
// Soft inputs are per-bit values in [0, 1]: 0.0 = confident logical 0,
// 1.0 = confident logical 1, 0.5 = erasure/unknown. Hard decisions map to
// exactly 0.0 / 1.0. Values outside [0, 1] are clamped, and NaN is an
// erasure.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

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
  // punctured output bitstream packed into bytes.
  util::Bytes encode(std::span<const std::uint8_t> data) const;

  // Number of encoded bits produced for `payload_bytes` input bytes
  // (after puncturing, before byte packing).
  std::size_t encoded_bits(std::size_t payload_bytes) const;

  // Viterbi decode of soft bits back into `payload_bytes` bytes. `soft`
  // must contain encoded_bits(payload_bytes) entries; missing ones read as
  // erasures. Returns the decoded bytes; the code is always decodable (it
  // picks the best path), so integrity must be checked by an outer CRC.
  //
  // Soft bits are quantized once per call, in the depuncturing pass, to
  // q = round(clamp(s, 0, 1) * kSoftScale); kSoftScale is even, so 0.5 and
  // punctured positions are the exact erasure kSoftScale / 2, and NaN reads
  // as an erasure too. Branch metrics are the L1 distances
  // |q0 - Q*out0| + |q1 - Q*out1| (Q = kSoftScale, at most 2Q), and path
  // metrics are int16.
  //
  // The trellis runs as add-compare-select butterflies, eight per SSE2
  // register (paddsw, pcmpgtw, pminsw; a generic fallback runs the same
  // algorithm without SSE2). Butterfly j joins predecessors j and j + half
  // to successors 2j (input bit 0) and 2j + 1 (input bit 1). Both codes tap
  // the register's MSB and LSB in both polynomials, so a butterfly's four
  // branches carry only two metrics: a = bm[s_j] on j -> 2j and
  // j + half -> 2j + 1, b = bm[s_j ^ 3] on the crossing branches, where
  // s_j = out0 * 2 + out1 of branch j -> 2j and bm is the step's four
  // branch metrics. s_j is linear in j, so the constructor stores s_i of
  // the eight lanes and s_8g of each group g of eight butterflies; per step,
  // four lane vectors bm[s_i ^ c] serve every group as a (c = s_8g) and
  // b (c = s_8g ^ 3). A successor takes the high predecessor only if its
  // metric is strictly lower, so ties keep the low predecessor.
  //
  // int16 cannot overflow. State 0 starts at 0 and every other state at
  // 16384. Any state is reachable from any other in K-1 steps, so once the
  // start's K-1 steps have passed, no metric exceeds the minimum by more
  // than (K-1) * 2Q (4064 for v29), and every path from a state other than
  // 0 has lost to one from state 0. Every 8 steps the minimum is subtracted
  // from all metrics, so between renormalizations they grow by at most
  // 8 * 2Q more: the largest metric is 16384 + 8 * 2Q = 20448 in the first
  // eight steps and at most 8128 after them, below 32767.
  //
  // Each step's decisions (1 = high predecessor won) form an ns-bit
  // bitmap, packed with packsswb + pmovmskb and laid out by successor as
  // (next & 1) * half + (next >> 1): even successors first, then odd ones,
  // one whole byte per eight butterflies. Traceback reads that layout. All
  // buffers are reused across calls through a thread-local workspace, so
  // concurrent decodes on a shared codec are safe. The output is
  // byte-identical to the per-state decoder on the same quantized input
  // (oracles::decode_soft_quantized_reference in the test-only library);
  // the float per-state decoder (oracles::decode_soft_reference) is the
  // coding-gain baseline it is checked against.
  util::Bytes decode_soft(std::span<const float> soft, std::size_t payload_bytes) const;

  // Soft-bit quantization scale of decode_soft (even, so 0.5 is exact).
  static constexpr int kSoftScale = 254;

  int constraint_length() const { return k_; }
  // Effective code rate as a fraction (e.g. 0.5, 2/3, 0.75).
  double rate() const;

 private:
  struct Branch {
    std::uint8_t out0;  // first output bit
    std::uint8_t out1;  // second output bit
  };

  void raw_encode_bits(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out_bits) const;
  // Depunctures and quantizes `soft` into in_bits (q0, q1) pairs.
  void depuncture(std::span<const float> soft, std::size_t in_bits, std::vector<std::int16_t>& pairs) const;

  ConvSpec spec_;
  int k_;                 // constraint length
  std::uint32_t poly_a_;
  std::uint32_t poly_b_;
  int num_states_;
  std::vector<Branch> branches_;  // [state << 1 | input_bit]
  // decode_soft's branch symbols: s_i of lanes i = 0..7, and s_(8g) of
  // each group g of eight butterflies.
  std::array<std::uint8_t, 8> lane_sym_{};
  std::vector<std::uint8_t> group_sym_;
};

}  // namespace sonic::fec
