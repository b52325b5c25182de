#include "modem/packet.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "fec/crc32.hpp"
#include "fec/llr_quantizer.hpp"
#include "util/lanes.hpp"

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

namespace {

// scrambler_sequence() packed MSB first: bit 7 - i % 8 of byte i / 8 is
// mask bit i.
std::span<const std::uint8_t> packed_scrambler() {
  static const std::vector<std::uint8_t> kPacked = [] {
    const auto seq = scrambler_sequence();
    std::vector<std::uint8_t> packed(seq.size() / 8);
    for (std::size_t i = 0; i < seq.size(); ++i) packed[i / 8] |= static_cast<std::uint8_t>(seq[i] << (7 - i % 8));
    return packed;
  }();
  return kPacked;
}

}  // namespace

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
  // A full block of rs_data_len bytes and its parity must fit one RS
  // codeword of 255 bytes.
  constexpr int kMaxRoots = 255 - static_cast<int>(PacketSpec::rs_data_len);
  if (spec_.rs_nroots != 0 && (spec_.rs_nroots < 2 || spec_.rs_nroots > kMaxRoots)) {
    throw std::invalid_argument("rs_nroots must be 0 or in [2, 255 - rs_data_len]");
  }
  if (spec_.rs_nroots > 0) rs_.emplace(spec_.rs_nroots);
}

std::size_t PacketCodec::rs_encoded_size(std::size_t payload_size) const {
  const std::size_t with_crc = payload_size + 4;
  if (!rs_) return with_crc;
  const std::size_t block = PacketSpec::rs_data_len;
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
  // The RS codewords and the conv output, reused across calls per thread,
  // so concurrent encodes on a shared codec stay safe.
  thread_local util::Bytes body, coded;

  // 1. payload || crc32 (little-endian).
  const std::size_t with_crc = payload.size() + 4;
  body.resize(rs_encoded_size(payload.size()));
  std::copy(payload.begin(), payload.end(), body.begin());
  const std::uint32_t crc = fec::crc32(payload);
  for (std::size_t i = 0; i < 4; ++i) body[payload.size() + i] = static_cast<std::uint8_t>(crc >> (8 * i));

  // 2. Outer RS per block: each block's data moved up to its place, the
  // last block first, and its parity written after it.
  if (rs_) {
    const std::size_t k = PacketSpec::rs_data_len, nroots = static_cast<std::size_t>(spec_.rs_nroots);
    for (std::size_t b = (with_crc + k - 1) / k; b-- > 0;) {
      const std::size_t n = std::min(k, with_crc - b * k);
      std::uint8_t* block = body.data() + b * (k + nroots);
      std::memmove(block, body.data() + b * k, n);
      rs_->parity(std::span(block, n), std::span(block + n, nroots));
    }
  }

  // 3. Inner convolutional code.
  const std::size_t nbits = conv_.encoded_bits(body.size());
  coded.resize((nbits + 7) / 8);
  conv_.encode(body, coded);

  // 4. Stride interleave and PRBS whitening, a byte at a time: output bit
  // i is coded bit (i * stride) mod nbits, XORed with scrambler bit i mod
  // the sequence length, whose packed bytes line up with the output's (the
  // length is a multiple of 8). Bit b of every output byte has its own
  // source, stepping 8 * stride by add and wrap, so the eight chains run
  // side by side.
  util::Bytes out((nbits + 7) / 8);
  auto ahead = [nbits](std::size_t d, std::size_t off) { return d + off >= nbits ? d + off - nbits : d + off; };
  const std::size_t step = pick_stride(nbits) % nbits, step8 = 8 * step % nbits;
  std::size_t src[8] = {0};
  for (int b = 1; b < 8; ++b) src[b] = ahead(src[b - 1], step);
  auto gather = [&](int count) {
    std::uint32_t bits = 0;
    for (int b = 0; b < count; ++b) {
      bits |= static_cast<std::uint32_t>((coded[src[b] / 8] >> (7 - src[b] % 8)) & 1u) << (7 - b);
      src[b] = ahead(src[b], step8);
    }
    return bits;
  };
  const auto prbs = packed_scrambler();
  const std::size_t whole = nbits / 8;
  for (std::size_t j = 0; j < whole; ++j) out[j] = static_cast<std::uint8_t>(gather(8) ^ prbs[j % prbs.size()]);
  if (const int tail = static_cast<int>(nbits % 8); tail > 0) {
    const std::uint32_t kept = 0xffu << (8 - tail) & 0xffu;  // the last byte's padding stays zero
    out[whole] = static_cast<std::uint8_t>(gather(tail) ^ (prbs[whole % prbs.size()] & kept));
  }
  return out;
}

void PacketCodec::place_soft(std::span<const float> llr, std::size_t first, std::span<std::uint8_t> frame) {
  // Received bit i came from coded bit (i * stride) mod nbits, whitened by
  // mask bit i mod the sequence length; both step by add and wrap.
  const std::size_t nbits = frame.size();
  if (first >= nbits) return;
  const std::size_t n = std::min(llr.size(), nbits - first);
  const std::size_t step = pick_stride(nbits) % nbits;
  const auto prbs = scrambler_sequence();
  const auto& quantize = fec::LlrQuantizer::get();
  std::size_t dst = first * step % nbits, mask = first % prbs.size();
  auto ahead = [nbits](std::size_t d, std::size_t off) { return d + off >= nbits ? d + off - nbits : d + off; };
  // Four bits a pass through the table's lanes while the mask needs no
  // wrap. The four positions are offsets of the first, so passes chain on
  // one wrap, not four.
  const std::size_t step2 = ahead(step, step), step3 = ahead(step2, step), step4 = ahead(step3, step);
  std::size_t i = 0;
  for (; i + 4 <= n && mask + 4 <= prbs.size(); i += 4, mask += 4) {
    const auto q = quantize(util::load(llr.data() + i),
                            util::Lanes4::I{prbs[mask], prbs[mask + 1], prbs[mask + 2], prbs[mask + 3]});
    frame[dst] = q[0];
    frame[ahead(dst, step)] = q[1];
    frame[ahead(dst, step2)] = q[2];
    frame[ahead(dst, step3)] = q[3];
    dst = ahead(dst, step4);
  }
  if (mask == prbs.size()) mask = 0;
  for (; i < n; ++i) {
    frame[dst] = quantize(llr[i], prbs[mask]);
    dst = ahead(dst, step);
    if (++mask == prbs.size()) mask = 0;
  }
}

std::optional<util::Bytes> PacketCodec::decode(std::span<const std::uint8_t> soft,
                                               std::size_t payload_size) const {
  const std::size_t rs_size = rs_encoded_size(payload_size);
  if (soft.size() < conv_.encoded_bits(rs_size)) return std::nullopt;

  // 1. Viterbi.
  util::Bytes body = conv_.decode_soft(soft, rs_size);

  // 2. Outer RS per block, each block's data moved down in place over the
  // parity of the blocks before it.
  if (rs_) {
    const std::size_t nroots = static_cast<std::size_t>(spec_.rs_nroots);
    const std::size_t full_block = PacketSpec::rs_data_len + nroots;
    std::size_t kept = 0;
    for (std::size_t off = 0; off < body.size();) {
      const std::size_t n = std::min(full_block, body.size() - off);
      if (n <= nroots) return std::nullopt;
      const auto block = std::span(body).subspan(off, n);
      if (!rs_->decode(block).has_value()) return std::nullopt;
      std::memmove(body.data() + kept, block.data(), n - nroots);
      kept += n - nroots;
      off += n;
    }
    body.resize(kept);
  }

  // 3. CRC check; the payload is the body without it.
  if (body.size() < 4) return std::nullopt;
  const std::size_t len = body.size() - 4;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<std::uint32_t>(body[len + static_cast<std::size_t>(i)]) << (8 * i);
  if (crc != fec::crc32(std::span(body).first(len))) return std::nullopt;
  if (len != payload_size) return std::nullopt;
  body.resize(len);
  return body;
}

}  // namespace sonic::modem
