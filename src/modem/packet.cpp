#include "modem/packet.hpp"

#include <numeric>

#include "fec/crc32.hpp"

namespace sonic::modem {
namespace {

// Stride used by the bit interleaver; coprime with any practical bit count
// by construction (we fall back to stride 1 when it would not be).
std::size_t pick_stride(std::size_t n) {
  // A fixed prime stride spreads adjacent coded bits ~101 positions apart,
  // far beyond any single OFDM symbol fade.
  constexpr std::size_t kStride = 101;
  if (n < 2) return 1;
  return std::gcd(kStride, n) == 1 ? kStride : (std::gcd(kStride + 2, n) == 1 ? kStride + 2 : 1);
}

}  // namespace

std::span<const std::uint8_t> scrambler_sequence() {
  // Cached PRBS from a Fibonacci LFSR (x^16 + x^14 + x^13 + x^11 + 1).
  static const std::vector<std::uint8_t> kSeq = [] {
    std::vector<std::uint8_t> seq(1 << 18);
    std::uint16_t lfsr = 0xACE1;
    for (auto& b : seq) {
      const std::uint16_t bit = static_cast<std::uint16_t>(
          ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1u);
      lfsr = static_cast<std::uint16_t>((lfsr >> 1) | (bit << 15));
      b = static_cast<std::uint8_t>(lfsr & 1u);
    }
    return seq;
  }();
  return kSeq;
}

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xffff;
  for (std::uint8_t b : data) {
    crc ^= static_cast<std::uint16_t>(b) << 8;
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021) : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

PacketCodec::PacketCodec(PacketSpec spec) : spec_(spec), conv_(spec.conv) {
  if (spec_.rs_nroots > 0) rs_.emplace(spec_.rs_nroots);
}

std::size_t PacketCodec::rs_encoded_size(std::size_t payload_size) const {
  const std::size_t with_crc = payload_size + 4;
  if (!rs_) return with_crc;
  const std::size_t block = static_cast<std::size_t>(spec_.rs_data_len);
  const std::size_t blocks = (with_crc + block - 1) / block;
  return with_crc + blocks * static_cast<std::size_t>(spec_.rs_nroots);
}

std::size_t PacketCodec::encoded_bits(std::size_t payload_size) const {
  return conv_.encoded_bits(rs_encoded_size(payload_size));
}

double PacketCodec::expansion(std::size_t payload_size) const {
  return static_cast<double>(encoded_bits(payload_size)) / static_cast<double>(payload_size * 8);
}

util::Bytes PacketCodec::encode(std::span<const std::uint8_t> payload) const {
  // 1. payload || crc32
  util::Bytes body(payload.begin(), payload.end());
  const std::uint32_t crc = fec::crc32(payload);
  for (int i = 0; i < 4; ++i) body.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));

  // 2. Outer RS per block.
  util::Bytes rs_out;
  if (rs_) {
    const std::size_t block = static_cast<std::size_t>(spec_.rs_data_len);
    for (std::size_t off = 0; off < body.size(); off += block) {
      const std::size_t n = std::min(block, body.size() - off);
      const util::Bytes coded = rs_->encode(std::span(body).subspan(off, n));
      rs_out.insert(rs_out.end(), coded.begin(), coded.end());
    }
  } else {
    rs_out = std::move(body);
  }

  // 3. Inner convolutional code.
  util::Bytes conv_out = conv_.encode(rs_out);

  // 4. Bit-level stride interleave + PRBS whitening.
  const std::size_t nbits = conv_.encoded_bits(rs_out.size());
  const std::size_t stride = spec_.interleave ? pick_stride(nbits) : 1;
  util::BitReader br(conv_out);
  std::vector<std::uint8_t> bits(nbits);
  for (auto& b : bits) b = static_cast<std::uint8_t>(br.bit());
  util::BitWriter bw;
  // Output position i carries input bit src = (i * stride) mod nbits,
  // whitened by mask bit i mod the sequence length; both step by add and
  // wrap.
  const auto prbs = scrambler_sequence();
  const std::size_t step = nbits > 0 ? stride % nbits : 0;
  std::size_t src = 0, mask = 0;
  for (std::size_t i = 0; i < nbits; ++i) {
    int bit = bits[src];
    if (spec_.scramble) bit ^= prbs[mask];
    bw.bit(bit);
    src += step;
    if (src >= nbits) src -= nbits;
    if (++mask == prbs.size()) mask = 0;
  }
  return bw.take();
}

std::optional<util::Bytes> PacketCodec::decode(std::span<const float> soft,
                                               std::size_t payload_size) const {
  const std::size_t rs_size = rs_encoded_size(payload_size);
  const std::size_t nbits = conv_.encoded_bits(rs_size);
  if (soft.size() < nbits) return std::nullopt;

  // 1. De-scramble + de-interleave soft bits (flipping a soft value is
  // s -> 1 - s).
  std::vector<float> deint(nbits, 0.5f);
  const std::size_t stride = spec_.interleave ? pick_stride(nbits) : 1;
  const auto prbs = scrambler_sequence();
  const std::size_t step = nbits > 0 ? stride % nbits : 0;
  std::size_t dst = 0, mask = 0;
  for (std::size_t i = 0; i < nbits; ++i) {
    deint[dst] = spec_.scramble && prbs[mask] ? 1.0f - soft[i] : soft[i];
    dst += step;
    if (dst >= nbits) dst -= nbits;
    if (++mask == prbs.size()) mask = 0;
  }

  // 2. Viterbi.
  util::Bytes rs_stream = conv_.decode_soft(deint, rs_size);

  // 3. Outer RS per block.
  util::Bytes body;
  if (rs_) {
    const std::size_t data_block = static_cast<std::size_t>(spec_.rs_data_len);
    const std::size_t full_block = data_block + static_cast<std::size_t>(spec_.rs_nroots);
    for (std::size_t off = 0; off < rs_stream.size();) {
      const std::size_t n = std::min(full_block, rs_stream.size() - off);
      if (n <= static_cast<std::size_t>(spec_.rs_nroots)) return std::nullopt;
      auto block_span = std::span(rs_stream).subspan(off, n);
      if (!rs_->decode(block_span).has_value()) return std::nullopt;
      body.insert(body.end(), block_span.begin(),
                  block_span.end() - static_cast<std::ptrdiff_t>(spec_.rs_nroots));
      off += n;
    }
  } else {
    body = std::move(rs_stream);
  }

  // 4. CRC check.
  if (body.size() < 4) return std::nullopt;
  util::Bytes payload(body.begin(), body.end() - 4);
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<std::uint32_t>(body[body.size() - 4 + static_cast<std::size_t>(i)]) << (8 * i);
  if (crc != fec::crc32(payload)) return std::nullopt;
  if (payload.size() != payload_size) return std::nullopt;
  return payload;
}

}  // namespace sonic::modem
