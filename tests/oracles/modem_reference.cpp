#include "oracles/modem_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "dsp/fft.hpp"

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

void axis_demap_soft(std::span<const float> levels, int axis_bits, float r, float noise_var,
                     std::span<float> soft_out) {
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
    const float llr1 = (d0 - d1) / (2.0f * sigma2);  // log P(1)/P(0)
    soft_out[static_cast<std::size_t>(k)] = 1.0f / (1.0f + std::exp(-llr1));
  }
}

}  // namespace

void qam_demap_soft_reference(const modem::QamMapper& mapper, cplx received, float noise_var,
                              std::span<float> soft_out) {
  if (mapper.constellation() == modem::Constellation::kBpsk) {
    const float sigma2 = std::max(noise_var * 0.5f, 1e-9f);
    const float llr1 = 2.0f * received.real() / sigma2;
    soft_out[0] = 1.0f / (1.0f + std::exp(-llr1));
    return;
  }
  const int axis_bits = mapper.bits_per_symbol() / 2;
  // Label (g << axis_bits) maps to (level g, level 0).
  std::vector<float> levels(std::size_t{1} << axis_bits);
  for (std::uint32_t g = 0; g < levels.size(); ++g) levels[g] = mapper.map(g << axis_bits).real();
  const auto bits = static_cast<std::size_t>(axis_bits);
  axis_demap_soft(levels, axis_bits, received.real(), noise_var, soft_out.subspan(0, bits));
  axis_demap_soft(levels, axis_bits, received.imag(), noise_var, soft_out.subspan(bits));
}

std::uint32_t qam_demap_hard_reference(const modem::QamMapper& mapper, cplx received) {
  if (mapper.constellation() == modem::Constellation::kBpsk) return received.real() >= 0.0f ? 1u : 0u;
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

}  // namespace sonic::oracles
