// Packet-level FEC pipeline: CRC32 integrity check, outer Reed-Solomon,
// inner convolutional code, a bit-level stride interleaver and PRBS
// whitening — the "crc32 / v29 / rs8" stack from §3.3 of the paper.
//
// Wire format (before OFDM mapping):
//   payload || crc32(payload)  --RS-->  blocks+parity  --conv-->  coded bits
//   --stride interleave + whitening-->  transmitted bits
//
// The transmit side works a byte at a time, with no per-bit call: the RS
// blocks and their parity are laid out in one buffer, the convolutional
// code reads its compile-time byte tables, and each interleaved output
// byte gathers its eight coded bits and XORs a packed byte of the
// scrambler sequence. The receive side places each soft bit at its
// de-interleaved position (place_soft).
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
  // 0 disables the outer code; else 2 to 255 - rs_data_len (32), so a full
  // block and its parity fit one 255-byte codeword. PacketCodec throws
  // std::invalid_argument for any other value.
  int rs_nroots = 32;
  static constexpr std::size_t rs_data_len = 223;  // payload bytes per RS block
};

// Shared PRBS scrambler sequence (x^16 LFSR), one 0/1 mask bit per byte,
// built once: bit i of a whitened stream is XORed with
// scrambler_sequence()[i % scrambler_sequence().size()].
std::span<const std::uint8_t> scrambler_sequence();

class PacketCodec {
 public:
  explicit PacketCodec(PacketSpec spec);

  // Encodes payload; returns the coded bitstream packed MSB-first, the
  // last byte zero-padded. Allocates only the result once its thread's
  // reused buffers (the RS codewords and the conv output, thread_local, so
  // concurrent encodes on a shared codec are safe) have grown to the
  // payload size. Byte-identical to the per-bit encoder
  // (oracles::packet_encode_reference in the test-only library).
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
