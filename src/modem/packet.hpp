// Packet-level FEC pipeline: CRC32 integrity check, outer Reed-Solomon,
// inner convolutional code, and a bit-level stride interleaver — the
// "crc32 / v29 / rs8" stack from §3.3 of the paper.
//
// Wire format (before OFDM mapping):
//   payload || crc32(payload)  --RS-->  blocks+parity  --conv-->  coded bits
//   --stride interleave-->  transmitted bits
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "fec/convolutional.hpp"
#include "fec/reed_solomon.hpp"
#include "util/bytes.hpp"

namespace sonic::modem {

struct PacketSpec {
  fec::ConvSpec conv{fec::ConvCode::kV29, fec::PunctureRate::kRate1_2};
  int rs_nroots = 32;      // 0 disables the outer code
  int rs_data_len = 223;   // payload bytes per RS block
  bool interleave = true;
  // PRBS whitening of the coded bitstream. Low-entropy payloads (zero
  // padding, repeated pixels) would otherwise map to repetitive QAM
  // symbols whose OFDM crest factor overruns the FM deviation budget.
  bool scramble = true;
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

  // Decodes soft bits (P(bit==1) in [0,1], encoded_bits() entries) back to
  // the payload. Returns nullopt if RS fails or the CRC does not match.
  std::optional<util::Bytes> decode(std::span<const float> soft, std::size_t payload_size) const;

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
