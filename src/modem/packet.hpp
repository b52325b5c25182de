// Packet-level FEC pipeline: CRC32 integrity check, outer Reed-Solomon,
// inner convolutional code, a bit-level stride interleaver and PRBS
// whitening — the "crc32 / v29 / rs8" stack from §3.3 of the paper.
//
// Wire format (before OFDM mapping):
//   payload || crc32(payload)  --RS-->  blocks+parity  --conv-->  coded bits
//   --stride interleave + whitening-->  transmitted bits
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "fec/convolutional.hpp"
#include "fec/reed_solomon.hpp"
#include "util/bytes.hpp"

namespace sonic::modem {

// The coded bits are always stride-interleaved and PRBS-whitened: without
// whitening, low-entropy payloads (zero padding, repeated pixels) would map
// to repetitive QAM symbols whose OFDM crest factor overruns the FM
// deviation budget.
struct PacketSpec {
  fec::ConvSpec conv{fec::ConvCode::kV29, fec::PunctureRate::kRate1_2};
  int rs_nroots = 32;      // 0 disables the outer code
  static constexpr std::size_t rs_data_len = 223;  // payload bytes per RS block
};

// Shared PRBS scrambler sequence (x^16 LFSR), one 0/1 mask bit per byte,
// built once: bit i of a whitened stream is XORed with
// scrambler_sequence()[i % scrambler_sequence().size()].
std::span<const std::uint8_t> scrambler_sequence();

class PacketCodec {
 public:
  explicit PacketCodec(PacketSpec spec);

  // Encodes payload; returns the coded bitstream packed MSB-first.
  util::Bytes encode(std::span<const std::uint8_t> payload) const;

  // Exact number of coded bits produced for a payload of `payload_size`.
  std::size_t encoded_bits(std::size_t payload_size) const;

  // Places a run of a frame's received soft bits, the max-log LLRs of bits
  // first, first + 1, ... of a frame of frame.size() coded bits, into the
  // frame's soft bytes: each bit's byte is fec::LlrQuantizer's for its LLR
  // and PRBS bit (the byte of the de-scrambled probability, 1 - p where
  // the PRBS bit is set; flipping the byte instead, 254 - q, is not the
  // same), written at its de-interleaved position. Bits past the frame's
  // end are ignored, and positions no run reaches keep what the caller put
  // there.
  static void place_soft(std::span<const float> llr, std::size_t first, std::span<std::uint8_t> frame);

  // Decodes a frame's soft bytes, as place_soft leaves them, back to the
  // payload. Returns nullopt if RS fails or the CRC does not match.
  std::optional<util::Bytes> decode(std::span<const std::uint8_t> soft, std::size_t payload_size) const;

  // Coded-size expansion factor (coded bits / payload bits).
  double expansion(std::size_t payload_size) const;

 private:
  std::size_t rs_encoded_size(std::size_t payload_size) const;  // payload+crc after RS

  PacketSpec spec_;
  fec::ConvolutionalCodec conv_;
  std::optional<fec::ReedSolomon> rs_;
};

// CRC-16/CCITT-FALSE, used by the OFDM frame header.
std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data);

}  // namespace sonic::modem
