#include "modem/fsk.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/goertzel.hpp"
#include "fec/crc32.hpp"
#include "util/units.hpp"

namespace sonic::modem {

int FskProfile::bits_per_symbol() const {
  int b = 0;
  while ((1 << b) < num_tones) ++b;
  return b;
}

FskModem::FskModem(FskProfile profile) : profile_(profile) {
  if ((1 << profile_.bits_per_symbol()) != profile_.num_tones)
    throw std::invalid_argument("num_tones must be a power of two");
  const double top = profile_.tone_hz(profile_.num_tones - 1);
  if (top >= profile_.sample_rate / 2) throw std::invalid_argument("tones exceed Nyquist");
}

std::vector<float> FskModem::tone(int idx, int samples) const {
  std::vector<float> out(static_cast<std::size_t>(samples));
  const double f = profile_.tone_hz(idx);
  for (int i = 0; i < samples; ++i) {
    // Raised-cosine 10% edge taper limits inter-symbol spectral splatter.
    const double t = static_cast<double>(i) / profile_.sample_rate;
    double env = 1.0;
    const double frac = static_cast<double>(i) / samples;
    if (frac < 0.1) env = 0.5 - 0.5 * std::cos(sonic::util::kPi * frac / 0.1);
    if (frac > 0.9) env = 0.5 - 0.5 * std::cos(sonic::util::kPi * (1.0 - frac) / 0.1);
    out[static_cast<std::size_t>(i)] =
        profile_.amplitude * static_cast<float>(env * std::sin(sonic::util::kTwoPi * f * t));
  }
  return out;
}

std::vector<float> FskModem::modulate(std::span<const std::uint8_t> payload) const {
  if (payload.size() > 0xffff) throw std::invalid_argument("payload too large");
  const int sps = profile_.samples_per_symbol();
  std::vector<float> out;
  auto emit = [&](int idx) {
    const auto t = tone(idx, sps);
    out.insert(out.end(), t.begin(), t.end());
  };
  // Preamble: alternating first/last tone.
  for (int i = 0; i < kPreambleSymbols; ++i) emit(i % 2 == 0 ? 0 : profile_.num_tones - 1);

  // Body: u16 length, payload, crc32 — split into bits_per_symbol chunks.
  util::Bytes body;
  body.push_back(static_cast<std::uint8_t>(payload.size()));
  body.push_back(static_cast<std::uint8_t>(payload.size() >> 8));
  body.insert(body.end(), payload.begin(), payload.end());
  const std::uint32_t crc = fec::crc32(payload);
  for (int i = 0; i < 4; ++i) body.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));

  util::BitReader br(body);
  const int bps = profile_.bits_per_symbol();
  const std::size_t nsym = (body.size() * 8 + static_cast<std::size_t>(bps) - 1) / static_cast<std::size_t>(bps);
  for (std::size_t s = 0; s < nsym; ++s) {
    int v = 0;
    for (int b = 0; b < bps; ++b) v = (v << 1) | br.bit();
    emit(v);
  }
  // Trailing silence so the last Goertzel window is clean.
  out.insert(out.end(), static_cast<std::size_t>(sps), 0.0f);
  return out;
}

int FskModem::detect_symbol(std::span<const float> win) const {
  int best = 0;
  double best_p = -1;
  for (int t = 0; t < profile_.num_tones; ++t) {
    const double p = dsp::goertzel_power(win, profile_.tone_hz(t), profile_.sample_rate);
    if (p > best_p) {
      best_p = p;
      best = t;
    }
  }
  return best;
}

std::optional<util::Bytes> FskModem::demodulate(std::span<const float> samples, std::size_t from) const {
  const int sps = profile_.samples_per_symbol();
  const std::size_t need = static_cast<std::size_t>(sps) * (kPreambleSymbols + 7);
  if (samples.size() < from + need) return std::nullopt;

  // Scan for the preamble with quarter-symbol granularity.
  const std::size_t step = static_cast<std::size_t>(sps) / 4;
  double best_score = 0;
  std::size_t best_off = 0;
  for (std::size_t off = from; off + need <= samples.size(); off += step) {
    double score = 0;
    for (int i = 0; i < kPreambleSymbols; ++i) {
      const auto win = samples.subspan(off + static_cast<std::size_t>(i) * static_cast<std::size_t>(sps),
                                       static_cast<std::size_t>(sps));
      const int expect = i % 2 == 0 ? 0 : profile_.num_tones - 1;
      const int other = i % 2 == 0 ? profile_.num_tones - 1 : 0;
      score += dsp::goertzel_power(win, profile_.tone_hz(expect), profile_.sample_rate) -
               dsp::goertzel_power(win, profile_.tone_hz(other), profile_.sample_rate);
    }
    if (score > best_score) {
      best_score = score;
      best_off = off;
    }
  }
  if (best_score < 0.5) return std::nullopt;

  // Fine alignment: +-quarter symbol around the coarse hit.
  std::size_t start = best_off;
  double fine_best = -1;
  const long lo = std::max<long>(static_cast<long>(from), static_cast<long>(best_off) - sps / 4);
  for (long off = lo; off <= static_cast<long>(best_off) + sps / 4; ++off) {
    if (static_cast<std::size_t>(off) + need > samples.size()) break;
    const auto win = samples.subspan(static_cast<std::size_t>(off), static_cast<std::size_t>(sps));
    const double p = dsp::goertzel_power(win, profile_.tone_hz(0), profile_.sample_rate);
    if (p > fine_best) {
      fine_best = p;
      start = static_cast<std::size_t>(off);
    }
  }

  // Decode body symbol by symbol.
  std::size_t pos = start + static_cast<std::size_t>(sps) * kPreambleSymbols;
  const int bps = profile_.bits_per_symbol();
  util::BitWriter bw;
  auto read_symbols = [&](std::size_t nbytes) -> bool {
    const std::size_t nbits = nbytes * 8;
    while (bw.bit_count() < nbits) {
      if (pos + static_cast<std::size_t>(sps) > samples.size()) return false;
      const int v = detect_symbol(samples.subspan(pos, static_cast<std::size_t>(sps)));
      bw.bits(static_cast<std::uint32_t>(v), bps);
      pos += static_cast<std::size_t>(sps);
    }
    return true;
  };

  if (!read_symbols(2)) return std::nullopt;
  const auto len_bytes = bw.bytes();
  const std::size_t len = static_cast<std::size_t>(len_bytes[0]) | (static_cast<std::size_t>(len_bytes[1]) << 8);
  if (!read_symbols(2 + len + 4)) return std::nullopt;

  const util::Bytes all = bw.take();
  util::Bytes payload(all.begin() + 2, all.begin() + 2 + static_cast<std::ptrdiff_t>(len));
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<std::uint32_t>(all[2 + len + static_cast<std::size_t>(i)]) << (8 * i);
  if (crc != fec::crc32(payload)) return std::nullopt;
  return payload;
}

}  // namespace sonic::modem
