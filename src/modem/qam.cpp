#include "modem/qam.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sonic::modem {
namespace {

int ilog2(int v) {
  int b = 0;
  while ((1 << b) < v) ++b;
  return b;
}

std::uint32_t gray_encode(std::uint32_t i) { return i ^ (i >> 1); }

}  // namespace

int bits_per_symbol(Constellation c) { return ilog2(static_cast<int>(c)); }

const char* constellation_name(Constellation c) {
  switch (c) {
    case Constellation::kBpsk: return "bpsk";
    case Constellation::kQpsk: return "qpsk";
    case Constellation::kQam16: return "qam16";
    case Constellation::kQam64: return "qam64";
    case Constellation::kQam256: return "qam256";
    case Constellation::kQam1024: return "qam1024";
  }
  return "?";
}

QamMapper::QamMapper(Constellation c) : constellation_(c), bits_(sonic::modem::bits_per_symbol(c)) {
  const int order = static_cast<int>(c);
  if (c == Constellation::kBpsk) {
    axis_bits_ = 1;
    levels_ = {-1.0f, 1.0f};  // gray label == index for 2 levels
    points_ = {cplx(-1.0f, 0.0f), cplx(1.0f, 0.0f)};
    return;
  }
  // Square QAM: L levels per axis.
  const int L = static_cast<int>(std::lround(std::sqrt(static_cast<double>(order))));
  if (L * L != order) throw std::invalid_argument("constellation must be square");
  axis_bits_ = ilog2(L);
  if (L > kMaxAxisLevels) throw std::invalid_argument("constellation too large");
  const float scale = std::sqrt(3.0f / (2.0f * (static_cast<float>(L) * static_cast<float>(L) - 1.0f)));
  levels_.assign(static_cast<std::size_t>(L), 0.0f);
  for (int i = 0; i < L; ++i) {
    const float amp = scale * static_cast<float>(2 * i - L + 1);
    levels_[gray_encode(static_cast<std::uint32_t>(i))] = amp;
  }
  points_.resize(static_cast<std::size_t>(order));
  for (std::uint32_t label = 0; label < static_cast<std::uint32_t>(order); ++label) {
    const std::uint32_t gi = label >> axis_bits_;           // I bits are the MSB half
    const std::uint32_t gq = label & ((1u << axis_bits_) - 1);
    points_[label] = cplx(levels_[gi], levels_[gq]);
  }
}

cplx QamMapper::map(std::uint32_t bits) const {
  return points_[bits & ((1u << bits_) - 1)];
}

void QamMapper::axis_demap_soft(float r, float noise_var, std::span<float> soft_out) const {
  // Max-log LLR per axis bit; per-axis noise variance is half the complex
  // noise variance.
  const float sigma2 = std::max(noise_var * 0.5f, 1e-9f);
  // Squared distance to each level, once per axis; every bit then takes its
  // minima from this array.
  std::array<float, kMaxAxisLevels> dist;
  const std::size_t num_levels = levels_.size();
  for (std::size_t g = 0; g < num_levels; ++g) dist[g] = (r - levels_[g]) * (r - levels_[g]);
  for (int k = 0; k < axis_bits_; ++k) {
    float d0 = std::numeric_limits<float>::max();
    float d1 = std::numeric_limits<float>::max();
    for (std::uint32_t g = 0; g < num_levels; ++g) {
      const float d = dist[g];
      if ((g >> (axis_bits_ - 1 - k)) & 1u) {
        d1 = std::min(d1, d);
      } else {
        d0 = std::min(d0, d);
      }
    }
    const float llr1 = (d0 - d1) / (2.0f * sigma2);  // log P(1)/P(0)
    soft_out[static_cast<std::size_t>(k)] = 1.0f / (1.0f + std::exp(-llr1));
  }
}

void QamMapper::demap_soft(cplx received, float noise_var, std::span<float> soft_out) const {
  if (constellation_ == Constellation::kBpsk) {
    const float sigma2 = std::max(noise_var * 0.5f, 1e-9f);
    const float llr1 = 2.0f * received.real() / sigma2;
    soft_out[0] = 1.0f / (1.0f + std::exp(-llr1));
    return;
  }
  axis_demap_soft(received.real(), noise_var, soft_out.subspan(0, static_cast<std::size_t>(axis_bits_)));
  axis_demap_soft(received.imag(), noise_var, soft_out.subspan(static_cast<std::size_t>(axis_bits_)));
}

}  // namespace sonic::modem
