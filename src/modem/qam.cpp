#include "modem/qam.hpp"

#include <algorithm>
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

// Soft bits of one axis value r over the 2^B Gray-labelled levels: the
// squared distance to each level once, then per bit (MSB first) the
// smallest distance among the levels with that bit 0 and with it 1. Min is
// exact, so the order of the level scan does not change a bit.
template <int B>
inline void demap_axis(float r, const float* levels, float two_sigma2, float* out) {
  constexpr int kLevels = 1 << B;
  float dist[kLevels];
  for (int g = 0; g < kLevels; ++g) dist[g] = (r - levels[g]) * (r - levels[g]);
  for (int k = 0; k < B; ++k) {
    float d0 = std::numeric_limits<float>::max();
    float d1 = std::numeric_limits<float>::max();
    for (int g = 0; g < kLevels; ++g) {
      if ((g >> (B - 1 - k)) & 1) {
        d1 = std::min(d1, dist[g]);
      } else {
        d0 = std::min(d0, dist[g]);
      }
    }
    const float llr1 = (d0 - d1) / two_sigma2;  // log P(1)/P(0)
    out[k] = 1.0f / (1.0f + std::exp(-llr1));
  }
}

// I bits then Q bits of every point, B per axis.
template <int B>
void demap_block(std::span<const cplx> points, const float* levels, float two_sigma2, float* out) {
  for (const cplx p : points) {
    demap_axis<B>(p.real(), levels, two_sigma2, out);
    demap_axis<B>(p.imag(), levels, two_sigma2, out + B);
    out += 2 * B;
  }
}

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

void QamMapper::demap_soft(std::span<const cplx> points, float noise_var,
                           std::span<float> soft_out) const {
  if (soft_out.size() != points.size() * static_cast<std::size_t>(bits_))
    throw std::invalid_argument("soft_out must hold bits_per_symbol() bits per point");
  // Per-axis noise variance is half the complex noise variance.
  const float sigma2 = std::max(noise_var * 0.5f, 1e-9f);
  float* out = soft_out.data();
  if (constellation_ == Constellation::kBpsk) {
    for (const cplx p : points) {
      const float llr1 = 2.0f * p.real() / sigma2;
      *out++ = 1.0f / (1.0f + std::exp(-llr1));
    }
    return;
  }
  const float two_sigma2 = 2.0f * sigma2;
  static_assert(kMaxAxisLevels == 1 << 5, "one demap_block case per axis size");
  switch (axis_bits_) {
    case 1: return demap_block<1>(points, levels_.data(), two_sigma2, out);
    case 2: return demap_block<2>(points, levels_.data(), two_sigma2, out);
    case 3: return demap_block<3>(points, levels_.data(), two_sigma2, out);
    case 4: return demap_block<4>(points, levels_.data(), two_sigma2, out);
    case 5: return demap_block<5>(points, levels_.data(), two_sigma2, out);
  }
}

}  // namespace sonic::modem
