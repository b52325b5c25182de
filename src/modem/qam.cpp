#include "modem/qam.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/lanes.hpp"

namespace sonic::modem {
namespace {

using V4f = util::Lanes4::F;

int ilog2(int v) {
  int b = 0;
  while ((1 << b) < v) ++b;
  return b;
}

std::uint32_t gray_encode(std::uint32_t i) { return i ^ (i >> 1); }

// LLRs of four axis values, one per lane, over the 2^B Gray-labelled
// levels: the squared distance to each level once, then per bit (MSB
// first) the smallest distance among the levels with that bit 0 and with
// it 1, as the select d < m ? d : m (std::min's order, so NaN distances are
// skipped alike; min is exact, so the level order does not change a bit),
// then (d0 - d1) / two_sigma2. Every lane takes the per-carrier scalar
// loop's float operations in its order. llr[k] holds bit k of the four
// values.
template <int B>
inline void demap_axis4(V4f r, const float* levels, float two_sigma2, V4f (&llr)[B]) {
  constexpr int kLevels = 1 << B;
  V4f dist[kLevels];
  for (int g = 0; g < kLevels; ++g) {
    const V4f d = r - levels[g];
    dist[g] = d * d;
  }
  for (int k = 0; k < B; ++k) {
    V4f d0 = util::splat(std::numeric_limits<float>::max());
    V4f d1 = d0;
    for (int g = 0; g < kLevels; ++g) {
      if ((g >> (B - 1 - k)) & 1) {
        d1 = dist[g] < d1 ? dist[g] : d1;
      } else {
        d0 = dist[g] < d0 ? dist[g] : d0;
      }
    }
    llr[k] = (d0 - d1) / two_sigma2;
  }
}

// I bits then Q bits of every point, B per axis. Four points per pass:
// their I values are one lane vector and their Q values another; the last
// points.size() % 4 points run zero-padded, and only their bits are kept.
template <int B>
void demap_block(std::span<const cplx> points, const float* levels, float two_sigma2, float* out) {
  for (std::size_t k = 0; k < points.size(); k += 4) {
    const std::size_t count = std::min<std::size_t>(4, points.size() - k);
    const float* xy = reinterpret_cast<const float*>(points.data() + k);
    float padded[8] = {};
    if (count < 4) {
      std::memcpy(padded, xy, count * sizeof(cplx));
      xy = padded;
    }
    const V4f lo = util::load(xy), hi = util::load(xy + 4);
    V4f llr_i[B], llr_q[B];
    demap_axis4<B>(__builtin_shufflevector(lo, hi, 0, 2, 4, 6), levels, two_sigma2, llr_i);
    demap_axis4<B>(__builtin_shufflevector(lo, hi, 1, 3, 5, 7), levels, two_sigma2, llr_q);
    for (std::size_t l = 0; l < count; ++l) {
      for (int b = 0; b < B; ++b) {
        out[b] = llr_i[b][l];
        out[B + b] = llr_q[b][l];
      }
      out += 2 * B;
    }
  }
}

}  // namespace

int bits_per_symbol(Constellation c) { return ilog2(static_cast<int>(c)); }

const char* constellation_name(Constellation c) {
  switch (c) {
    case Constellation::kQpsk: return "qpsk";
    case Constellation::kQam16: return "qam16";
    case Constellation::kQam64: return "qam64";
    case Constellation::kQam256: return "qam256";
    case Constellation::kQam1024: return "qam1024";
  }
  return "?";
}

QamMapper::QamMapper(Constellation c) : bits_(sonic::modem::bits_per_symbol(c)) {
  const int order = static_cast<int>(c);
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
                           std::span<float> llr_out) const {
  if (llr_out.size() != points.size() * static_cast<std::size_t>(bits_))
    throw std::invalid_argument("llr_out must hold bits_per_symbol() bits per point");
  // Per-axis noise variance is half the complex noise variance.
  const float two_sigma2 = 2.0f * std::max(noise_var * 0.5f, 1e-9f);
  static_assert(kMaxAxisLevels == 1 << 5, "one demap_block case per axis size");
  switch (axis_bits_) {
    case 1: return demap_block<1>(points, levels_.data(), two_sigma2, llr_out.data());
    case 2: return demap_block<2>(points, levels_.data(), two_sigma2, llr_out.data());
    case 3: return demap_block<3>(points, levels_.data(), two_sigma2, llr_out.data());
    case 4: return demap_block<4>(points, levels_.data(), two_sigma2, llr_out.data());
    case 5: return demap_block<5>(points, levels_.data(), two_sigma2, llr_out.data());
  }
}

}  // namespace sonic::modem
