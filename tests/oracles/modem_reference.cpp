#include "oracles/modem_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "dsp/fft.hpp"
#include "fec/crc32.hpp"
#include "modem/packet.hpp"
#include "oracles/kernel_reference.hpp"
#include "oracles/rs_reference.hpp"
#include "oracles/viterbi_reference.hpp"
#include "util/units.hpp"

namespace sonic::oracles {

std::vector<cplx> ofdm_analyze_reference(const modem::OfdmProfile& profile, std::span<const float> samples,
                                         std::size_t pos) {
  const std::size_t n = static_cast<std::size_t>(profile.fft_size);
  std::vector<cplx> spec(n, cplx(0, 0));
  for (std::size_t i = 0; i < n && pos + i < samples.size(); ++i) spec[i] = cplx(samples[pos + i], 0.0f);
  dsp::FftPlan::get(n)->forward(spec);
  const float tx_gain = profile.amplitude * static_cast<float>(profile.fft_size) /
                        std::sqrt(2.0f * static_cast<float>(profile.num_subcarriers));
  std::vector<cplx> bins(static_cast<std::size_t>(profile.num_subcarriers));
  for (std::size_t i = 0; i < bins.size(); ++i) {
    bins[i] = spec[static_cast<std::size_t>(profile.first_bin()) + i] * (1.0f / tx_gain);
  }
  return bins;
}

namespace {

void axis_demap_llr(std::span<const float> levels, int axis_bits, float r, float noise_var,
                    std::span<float> llr_out) {
  const float sigma2 = std::max(noise_var * 0.5f, 1e-9f);
  for (int k = 0; k < axis_bits; ++k) {
    float d0 = std::numeric_limits<float>::max();
    float d1 = std::numeric_limits<float>::max();
    for (std::uint32_t g = 0; g < levels.size(); ++g) {
      const float d = (r - levels[g]) * (r - levels[g]);
      if ((g >> (axis_bits - 1 - k)) & 1u) {
        d1 = std::min(d1, d);
      } else {
        d0 = std::min(d0, d);
      }
    }
    llr_out[static_cast<std::size_t>(k)] = (d0 - d1) / (2.0f * sigma2);  // log P(1)/P(0)
  }
}

}  // namespace

void qam_demap_llr_reference(const modem::QamMapper& mapper, cplx received, float noise_var,
                             std::span<float> llr_out) {
  const int axis_bits = mapper.bits_per_symbol() / 2;
  // Label (g << axis_bits) maps to (level g, level 0).
  std::vector<float> levels(std::size_t{1} << axis_bits);
  for (std::uint32_t g = 0; g < levels.size(); ++g) levels[g] = mapper.map(g << axis_bits).real();
  const auto bits = static_cast<std::size_t>(axis_bits);
  axis_demap_llr(levels, axis_bits, received.real(), noise_var, llr_out.subspan(0, bits));
  axis_demap_llr(levels, axis_bits, received.imag(), noise_var, llr_out.subspan(bits));
}

std::uint32_t qam_demap_hard_reference(const modem::QamMapper& mapper, cplx received) {
  const int axis_bits = mapper.bits_per_symbol() / 2;
  auto nearest = [&](float r) {
    std::uint32_t best = 0;
    float best_d = std::numeric_limits<float>::max();
    for (std::uint32_t g = 0; g < (1u << axis_bits); ++g) {
      const float d = std::fabs(r - mapper.map(g << axis_bits).real());
      if (d < best_d) {
        best_d = d;
        best = g;
      }
    }
    return best;
  };
  return (nearest(received.real()) << axis_bits) | nearest(received.imag());
}

namespace {

typedef double V2d __attribute__((vector_size(16)));

// Dot product in double over eight lanes (index mod 8) summed in a fixed
// order, plus a serial tail.
double lane_dot(const float* x, const float* w, std::size_t n) {
  V2d acc[4] = {};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < 4; ++l) {
      acc[l] += V2d{x[i + 2 * l], x[i + 2 * l + 1]} * V2d{w[i + 2 * l], w[i + 2 * l + 1]};
    }
  }
  const V2d sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  double dot = sum[0] + sum[1];
  for (; i < n; ++i) dot += static_cast<double>(x[i]) * w[i];
  return dot;
}

}  // namespace

FineSyncReference fine_sync_reference(std::span<const float> x, std::span<const float> tmpl, double tmpl_energy,
                                      std::size_t candidates) {
  const std::size_t n = tmpl.size();
  FineSyncReference best;
  double energy = 0.0;  // of the window at c, slid from the previous one
  for (std::size_t c = 0; c < candidates; ++c) {
    const float* window = x.data() + c;
    if (c == 0) {
      for (std::size_t i = 0; i < n; ++i) energy += static_cast<double>(window[i]) * window[i];
    } else {
      energy += static_cast<double>(window[n - 1]) * window[n - 1] - static_cast<double>(window[-1]) * window[-1];
    }
    const double dot = lane_dot(window, tmpl.data(), n);
    const double ncc = energy > 1e-12 ? std::fabs(dot) / std::sqrt(energy * tmpl_energy) : 0.0;
    if (ncc > best.ncc) {
      best.ncc = ncc;
      best.index = static_cast<long>(c);
    }
  }
  return best;
}

std::vector<std::uint8_t> place_soft_reference(std::span<const float> llr) {
  const std::size_t n = llr.size();
  const std::size_t stride = n < 2 ? 1 : n % 101 != 0 ? 101 : n % 103 != 0 ? 103 : 1;
  const auto prbs = modem::scrambler_sequence();
  std::vector<float> deint(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float p = 1.0f / (1.0f + std::exp(-llr[i]));
    deint[i * stride % n] = prbs[i % prbs.size()] ? 1.0f - p : p;
  }
  std::vector<std::uint8_t> out(n);
  for (std::size_t j = 0; j < n; ++j) out[j] = static_cast<std::uint8_t>(quantize_soft_reference(deint[j]));
  return out;
}

util::Bytes packet_encode_reference(const modem::PacketSpec& spec, std::span<const std::uint8_t> payload) {
  // 1. payload || crc32
  util::Bytes body(payload.begin(), payload.end());
  const std::uint32_t crc = fec::crc32(payload);
  for (int i = 0; i < 4; ++i) body.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));

  // 2. Outer RS per block.
  util::Bytes rs_out;
  if (spec.rs_nroots > 0) {
    const std::size_t block = modem::PacketSpec::rs_data_len;
    for (std::size_t off = 0; off < body.size(); off += block) {
      const std::size_t n = std::min(block, body.size() - off);
      const util::Bytes coded = rs_encode_reference(spec.rs_nroots, std::span(body).subspan(off, n));
      rs_out.insert(rs_out.end(), coded.begin(), coded.end());
    }
  } else {
    rs_out = std::move(body);
  }

  // 3. Inner convolutional code.
  const util::Bytes conv_out = conv_encode_reference(spec.conv, rs_out);

  // 4. Bit-level stride interleave + PRBS whitening.
  const std::size_t nbits = fec::ConvolutionalCodec(spec.conv).encoded_bits(rs_out.size());
  const std::size_t stride = nbits < 2 ? 1 : nbits % 101 != 0 ? 101 : nbits % 103 != 0 ? 103 : 1;
  util::BitReader br(conv_out);
  std::vector<std::uint8_t> bits(nbits);
  for (auto& b : bits) b = static_cast<std::uint8_t>(br.bit());
  util::BitWriter bw;
  const auto prbs = modem::scrambler_sequence();
  for (std::size_t i = 0; i < nbits; ++i) bw.bit(bits[i * stride % nbits] ^ prbs[i % prbs.size()]);
  return bw.take();
}

std::vector<float> ofdm_modulate_reference(const modem::OfdmModem& modem, const std::vector<util::Bytes>& frames) {
  const modem::OfdmProfile& profile = modem.profile();
  const int N = profile.fft_size, n = profile.num_subcarriers, cp = profile.cp_len;
  const float tx_gain = profile.amplitude * static_cast<float>(N) / std::sqrt(2.0f * static_cast<float>(n));
  auto is_pilot = [&](int i) { return profile.pilot_spacing > 0 && i % profile.pilot_spacing == 0; };
  std::vector<float> out;
  auto emit = [&](std::span<const cplx> carriers) {
    std::vector<cplx> spec(static_cast<std::size_t>(N), cplx(0, 0));
    for (int i = 0; i < n; ++i) {
      const int b = profile.first_bin() + i;
      spec[static_cast<std::size_t>(b)] = carriers[static_cast<std::size_t>(i)];
      spec[static_cast<std::size_t>(N - b)] = std::conj(carriers[static_cast<std::size_t>(i)]);
    }
    fft_radix2_reference(spec, true);
    for (int i = 0; i < cp; ++i) out.push_back(spec[static_cast<std::size_t>(N - cp + i)].real() * tx_gain);
    for (int i = 0; i < N; ++i) out.push_back(spec[static_cast<std::size_t>(i)].real() * tx_gain);
  };
  const std::size_t data_carriers = static_cast<std::size_t>(profile.data_carriers());
  const auto prbs = modem::scrambler_sequence();

  // Preambles, then the header: magic "SN", frame_len, frame_count and
  // their CRC16, little-endian, v27 rate 1/2, one whitened bit per BPSK
  // data carrier.
  emit(modem::OfdmKernelProbe::preamble_a(modem));
  emit(modem::OfdmKernelProbe::preamble_b(modem));
  const std::size_t frame_len = frames.front().size();
  util::ByteWriter hw;
  hw.u16(0x534e);
  hw.u16(static_cast<std::uint16_t>(frame_len));
  hw.u16(static_cast<std::uint16_t>(frames.size()));
  hw.u16(modem::crc16_ccitt(hw.bytes()));
  const util::Bytes header_coded = conv_encode_reference({fec::ConvCode::kV27, fec::PunctureRate::kRate1_2}, hw.bytes());
  const std::size_t header_bits = (8 * 8 + 6) * 2;
  util::BitReader hbr(header_coded);
  std::vector<cplx> carriers(modem::OfdmKernelProbe::pilots(modem).begin(), modem::OfdmKernelProbe::pilots(modem).end());
  std::size_t sent = 0;
  for (std::size_t s = 0; s < (header_bits + data_carriers - 1) / data_carriers; ++s) {
    for (int i = 0; i < n; ++i) {
      if (is_pilot(i)) continue;
      const int bit = (sent < header_bits ? hbr.bit() : 0) ^ prbs[sent % prbs.size()];
      ++sent;
      carriers[static_cast<std::size_t>(i)] = cplx(bit ? 1.0f : -1.0f, 0.0f);
    }
    emit(carriers);
  }

  // Payload: the frames' coded bits back to back, one at a time, zeros
  // after the last frame.
  const modem::PacketSpec spec{profile.conv, profile.rs_nroots};
  std::vector<util::Bytes> coded;
  for (const auto& f : frames) coded.push_back(packet_encode_reference(spec, f));
  const std::size_t frame_bits = modem::PacketCodec(spec).encoded_bits(frame_len);
  std::size_t frame = 0, bit_in_frame = 0;
  auto next_bit = [&]() -> std::uint32_t {
    if (frame == coded.size()) return 0;
    const std::uint32_t bit = (coded[frame][bit_in_frame / 8] >> (7 - bit_in_frame % 8)) & 1u;
    if (++bit_in_frame == frame_bits) {
      bit_in_frame = 0;
      ++frame;
    }
    return bit;
  };
  const modem::QamMapper qam(profile.constellation);
  const int qbits = qam.bits_per_symbol();
  const std::size_t per_symbol = data_carriers * static_cast<std::size_t>(qbits);
  const std::size_t nsym = (frame_bits * frames.size() + per_symbol - 1) / per_symbol;
  for (std::size_t s = 0; s < nsym; ++s) {
    for (int i = 0; i < n; ++i) {
      if (is_pilot(i)) continue;
      std::uint32_t v = 0;
      for (int b = 0; b < qbits; ++b) v = (v << 1) | next_bit();
      carriers[static_cast<std::size_t>(i)] = qam.map(v);
    }
    emit(carriers);
  }
  out.insert(out.end(), static_cast<std::size_t>(N + cp), 0.0f);
  return out;
}

void derotate_reference(std::span<const cplx> in, double a, double b, double amp, std::span<cplx> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double phi = a + b * static_cast<double>(i);
    out[i] = in[i] * cplx(static_cast<float>(std::cos(-phi) / amp), static_cast<float>(std::sin(-phi) / amp));
  }
}

std::vector<float> ofdm_demod_reference(const modem::OfdmProfile& profile, const modem::QamMapper& mapper,
                                        std::span<const cplx> y, std::span<const cplx> h,
                                        std::span<const cplx> pilots, bool bpsk, float& noise) {
  const int n = profile.num_subcarriers;
  auto is_pilot = [&](int i) { return profile.pilot_spacing > 0 && i % profile.pilot_spacing == 0; };
  std::vector<cplx> eq(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < eq.size(); ++i) eq[i] = y[i] / h[i];
  double sum_k = 0, sum_k2 = 0, sum_th = 0, sum_kth = 0;
  int np = 0;
  double prev_th = 0;
  double amp_acc = 0;
  for (int i = 0; i < n; ++i) {
    if (!is_pilot(i)) continue;
    const cplx e = eq[static_cast<std::size_t>(i)] / pilots[static_cast<std::size_t>(i)];
    double th = std::arg(e);
    if (np > 0) {
      while (th - prev_th > util::kPi) th -= util::kTwoPi;
      while (th - prev_th < -util::kPi) th += util::kTwoPi;
    }
    prev_th = th;
    amp_acc += std::abs(e);
    sum_k += i;
    sum_k2 += static_cast<double>(i) * i;
    sum_th += th;
    sum_kth += static_cast<double>(i) * th;
    ++np;
  }
  double a = 0, b = 0;
  double amp = 1.0;
  if (np >= 2) {
    const double det = np * sum_k2 - sum_k * sum_k;
    if (std::fabs(det) > 1e-9) {
      b = (np * sum_kth - sum_k * sum_th) / det;
      a = (sum_th - b * sum_k) / np;
    }
    amp = std::max(amp_acc / np, 1e-6);
  }
  float pilot_noise = 0;
  int pilot_cnt = 0;
  std::vector<cplx> data;
  for (int i = 0; i < n; ++i) {
    const double phi = a + b * i;
    const cplx corr = eq[static_cast<std::size_t>(i)] *
                      cplx(static_cast<float>(std::cos(-phi) / amp), static_cast<float>(std::sin(-phi) / amp));
    if (is_pilot(i)) {
      pilot_noise += std::norm(corr - pilots[static_cast<std::size_t>(i)]);
      ++pilot_cnt;
      continue;
    }
    data.push_back(corr);
  }
  const std::size_t qbits = bpsk ? 1 : static_cast<std::size_t>(mapper.bits_per_symbol());
  std::vector<float> soft(data.size() * qbits);
  if (bpsk) {
    const float sigma2 = std::max(noise * 0.5f, 1e-7f);
    for (std::size_t k = 0; k < data.size(); ++k) soft[k] = 2.0f * data[k].real() / sigma2;
  } else {
    mapper.demap_soft(data, noise, soft);
  }
  if (pilot_cnt > 0) {
    const float obs = pilot_noise / static_cast<float>(pilot_cnt);
    noise = 0.7f * noise + 0.3f * std::max(obs, 1e-7f);
  }
  return soft;
}

}  // namespace sonic::oracles
