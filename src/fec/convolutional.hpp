// Convolutional coding with Viterbi decoding — the paper's "inner FEC
// scheme (v29)" (§3.3), i.e. the constraint-length-9 rate-1/2 code that the
// Quiet library inherits from libfec. We also provide the K=7 "v27" code and
// puncturing to rates 2/3 and 3/4 so transmission profiles can trade
// robustness for throughput.
//
// Soft inputs are per-bit values in [0, 1]: 0.0 = confident logical 0,
// 1.0 = confident logical 1, 0.5 = erasure/unknown. Hard decisions map to
// exactly 0.0 / 1.0.
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
  // must contain encoded_bits(payload_bytes) entries. Returns the decoded
  // bytes; the code is always decodable (it picks the best path), so
  // integrity must be checked by an outer CRC.
  //
  // The trellis runs as add-compare-select butterflies, four per SIMD
  // vector (GCC/Clang vector extensions at the default ISA). Butterfly j
  // joins predecessors j and j + half to successors 2j (input bit 0) and
  // 2j + 1 (input bit 1). Both codes tap the register's MSB and LSB in both
  // polynomials, so a butterfly's four branches carry only two metrics:
  // a = bm[s_j] on j -> 2j and j + half -> 2j + 1, b = bm[s_j ^ 3] on the
  // crossing branches, where s_j = out0 * 2 + out1 of branch j -> 2j and bm
  // is the step's four float L1 branch metrics. s_j is linear in j, so the
  // constructor stores s_i of the four lanes and s_4g of each group g of
  // four butterflies; per step, four lane vectors bm[s_i ^ c] serve every
  // group as a (c = s_4g) and b (c = s_4g ^ 3). A successor takes the high
  // predecessor only if its metric is strictly lower, so ties keep the low
  // predecessor.
  //
  // Each step's decisions (1 = high predecessor won) form an ns-bit
  // bitmap, packed with a movemask and laid out by successor as
  // (next & 1) * half + (next >> 1): even successors first, then odd ones,
  // one whole byte per eight butterflies. Traceback reads that layout. All
  // buffers are reused across calls through a thread-local workspace, so
  // concurrent decodes on a shared codec are safe. The output is
  // byte-identical to the per-state reference decoder
  // (oracles::decode_soft_reference in the test-only library).
  util::Bytes decode_soft(std::span<const float> soft, std::size_t payload_bytes) const;

  // Convenience: hard-decision decode from packed bits.
  util::Bytes decode_hard(std::span<const std::uint8_t> packed_bits, std::size_t payload_bytes) const;

  int constraint_length() const { return k_; }
  // Effective code rate as a fraction (e.g. 0.5, 2/3, 0.75).
  double rate() const;

 private:
  struct Branch {
    std::uint8_t out0;  // first output bit
    std::uint8_t out1;  // second output bit
  };

  void raw_encode_bits(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out_bits) const;
  void depuncture(std::span<const float> soft, std::size_t in_bits, std::vector<float>& pairs) const;

  ConvSpec spec_;
  int k_;                 // constraint length
  std::uint32_t poly_a_;
  std::uint32_t poly_b_;
  int num_states_;
  std::vector<Branch> branches_;  // [state << 1 | input_bit]
  // decode_soft's branch symbols: s_i of lanes i = 0..3, and s_(4g) of
  // each group g of four butterflies.
  std::array<std::uint8_t, 4> lane_sym_{};
  std::vector<std::uint8_t> group_sym_;
};

}  // namespace sonic::fec
