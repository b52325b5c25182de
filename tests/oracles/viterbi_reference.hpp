// Reference Viterbi decoders for fec::ConvolutionalCodec::decode_soft: the
// quantized one is its byte-exact test oracle, the float one the coding-gain
// baseline and the before-case of bench/micro_dsp_fec. The per-bit encoder
// fec::ConvolutionalCodec::encode replaced is kept beside them. They live
// in the sonic_oracles library, which only tests and benches link.
#pragma once

#include <cstdint>
#include <span>

#include "fec/convolutional.hpp"
#include "util/bytes.hpp"

namespace sonic::oracles {

// Generator polynomials and constraint length of `code`, written out here
// rather than read from the codec under test.
struct ConvPolys {
  int k;
  std::uint32_t poly_a;
  std::uint32_t poly_b;
};
ConvPolys conv_polys(fec::ConvCode code);

// The straightforward per-state scalar Viterbi decoder on float soft bits
// and float metrics: it derives its own trellis and depuncturing from
// `spec`, visits every reachable state and both its input bits, and keeps
// the first of equal metrics, so ties go to the lower predecessor state.
// `soft` and the result follow ConvolutionalCodec::decode_soft.
util::Bytes decode_soft_reference(const fec::ConvSpec& spec, std::span<const float> soft,
                                  std::size_t payload_bytes);

// decode_soft's quantizer, written out: round(clamp(s, 0, 1) * kSoftScale),
// halves rounding up, NaN to the erasure kSoftScale / 2.
std::int64_t quantize_soft_reference(float s);

// The per-bit encoder ConvolutionalCodec(spec).encode must match byte for
// byte: two parities per input bit (MSB first) and the K-1 zero flush bits
// into a bit vector, then every kept position through util::BitWriter.
util::Bytes conv_encode_reference(const fec::ConvSpec& spec, std::span<const std::uint8_t> data);

// The same per-state decoder on soft bits quantized by
// quantize_soft_reference, with exact 64-bit integer path metrics (no
// renormalization, no saturation). decode_soft must match it byte for byte.
util::Bytes decode_soft_quantized_reference(const fec::ConvSpec& spec, std::span<const float> soft,
                                            std::size_t payload_bytes);

}  // namespace sonic::oracles
