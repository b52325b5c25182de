#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/lanes.hpp"

namespace sonic::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Rng::uniform(-1.0, 1.0) of one 64-bit draw, the same arithmetic.
inline double symmetric_unit(std::uint64_t x) {
  return -1.0 + 2.0 * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

// The ziggurat's 256 layers of equal area V under f(x) = exp(-x^2 / 2):
// x[0] = V / f(R) is the base layer's width (its rectangle plus the tail
// beyond R), x[1] = R, x[i + 1] solves x[i] (f(x[i + 1]) - f(x[i])) = V,
// and x[256] = 0. R and V are Marsaglia & Tsang's for 256 layers.
struct ZigguratTable {
  static constexpr int kLayers = 256;
  static constexpr double kR = 3.6541528853610088;
  static constexpr double kV = 0.00492867323399;
  // Layer i's entry: bits 0-31 hold the float x[i] * 2^-23 (position u
  // lies at u times it), bits 32-63 the positions below which a candidate
  // lies under x[i + 1], inside the curve.
  std::uint64_t layer[kLayers];
  double f[kLayers + 1];  // f(x[i])

  ZigguratTable() {
    double x[kLayers + 1];
    x[0] = kV / std::exp(-0.5 * kR * kR);
    x[1] = kR;
    for (int i = 1; i + 1 < kLayers; ++i) {
      x[i + 1] = std::sqrt(-2.0 * std::log(kV / x[i] + std::exp(-0.5 * x[i] * x[i])));
    }
    x[kLayers] = 0.0;
    for (int i = 0; i < kLayers; ++i) {
      const auto width = std::bit_cast<std::uint32_t>(static_cast<float>(x[i] * 0x1.0p-23));
      const auto inner = static_cast<std::uint32_t>(x[i + 1] / x[i] * 0x1.0p23);
      layer[i] = width | (std::uint64_t{inner} << 32);
    }
    for (int i = 0; i <= kLayers; ++i) f[i] = std::exp(-0.5 * x[i] * x[i]);
  }
};

const ZigguratTable& ziggurat_table() {
  static const ZigguratTable table;
  return table;
}

constexpr std::uint32_t kPositionMask = 0x7fffffu;  // bits 0-22

// z with the sign of candidate c (its bit 23).
inline float with_sign(float z, std::uint32_t c) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(z) | ((c << 8) & 0x80000000u));
}

// The four candidates of draws a and b: writes each one's signed rectangle
// deviate to out[0..3] and returns a bit per candidate (bit 2j for the low
// half of draw j, 2j + 1 for its high half) that missed its layer's inner
// rectangle. Written on Lanes4's vector extensions, which lower to scalar
// code on targets without SIMD; each lane's arithmetic is the scalar
// ZigguratNormal::resolve's.
inline unsigned rectangle4(std::uint64_t a, std::uint64_t b, const ZigguratTable& t, float* out) {
  using F = Lanes4::F;
  using I = Lanes4::I;
  using U = Lanes4::U;
  using Q = Lanes4::Q;
  const U c = reinterpret_cast<U>(Q{a, b});
  const U lo = reinterpret_cast<U>(Q{t.layer[(a >> 24) & 0xff], t.layer[a >> 56]});
  const U hi = reinterpret_cast<U>(Q{t.layer[(b >> 24) & 0xff], t.layer[b >> 56]});
  const F width = reinterpret_cast<F>(__builtin_shufflevector(lo, hi, 0, 2, 4, 6));
  const I inner = reinterpret_cast<I>(__builtin_shufflevector(lo, hi, 1, 3, 5, 7));
  const I u = reinterpret_cast<I>(c & kPositionMask);
  const F z = __builtin_convertvector(u, F) * width;
  const U z_bits = reinterpret_cast<U>(z) | ((c << 8) & 0x80000000u);
  std::memcpy(out, &z_bits, sizeof z_bits);
  return Lanes4::mask_bits(u >= inner);  // both below 2^23: the signed compare SSE2 has
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ull - (~0ull % n);
  std::uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return v % n;
}

double Rng::normal(double mean, double stddev) {
  if (have_gauss_) {
    have_gauss_ = false;
    return mean + stddev * gauss_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  gauss_ = v * f;
  have_gauss_ = true;
  return mean + stddev * u * f;
}

void Rng::fill_normal(std::span<float> out, double mean, double stddev) {
  std::size_t i = 0;
  if (have_gauss_ && !out.empty()) {
    have_gauss_ = false;
    out[i++] = static_cast<float>(mean + stddev * gauss_);
  }
  constexpr std::size_t kPairs = kNormalBlock / 2;
  double u[kPairs] = {}, v[kPairs] = {}, f[kPairs] = {};
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  while (i < out.size()) {
    const std::size_t pairs = std::min(kPairs, (out.size() - i + 1) / 2);
    // The polar method's rejection loop without its branch: every candidate
    // is written, and the slot only advances past an accepted one. The
    // generator steps exactly as normal()'s do-while would.
    for (std::size_t k = 0; k < pairs;) {
      const double cu = symmetric_unit(xoshiro_step(s));
      const double cv = symmetric_unit(xoshiro_step(s));
      const double cs = cu * cu + cv * cv;
      u[k] = cu;
      v[k] = cv;
      f[k] = cs;
      k += static_cast<std::size_t>((cs < 1.0) & (cs != 0.0));
    }
    for (std::size_t k = 0; k < pairs; ++k) f[k] = std::sqrt(-2.0 * std::log(f[k]) / f[k]);
    // normal()'s two results per pair, same parenthesization; an odd count
    // leaves the last pair's second deviate cached.
    for (std::size_t k = 0; k < pairs; ++k) {
      out[i++] = static_cast<float>(mean + stddev * u[k] * f[k]);
      if (i == out.size()) {
        gauss_ = v[k] * f[k];
        have_gauss_ = true;
        break;
      }
      out[i++] = static_cast<float>(mean + stddev * (v[k] * f[k]));
    }
  }
  std::copy(std::begin(s), std::end(s), s_);
}

double Rng::exponential(double rate) {
  return -std::log(1.0 - uniform()) / rate;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

int Rng::zipf(int n, double s) {
  // Inverse-CDF over precomputed weights would be faster, but popularity
  // draws are not hot; linear scan keeps this dependency-free.
  double total = 0.0;
  for (int i = 1; i <= n; ++i) total += 1.0 / std::pow(i, s);
  double target = uniform() * total;
  double acc = 0.0;
  for (int i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(i, s);
    if (acc >= target) return i - 1;
  }
  return n - 1;
}

Rng Rng::fork(std::uint64_t stream_id) const {
  return Rng(seed_ ^ (0x9e3779b97f4a7c15ull * (stream_id + 1)));
}

ZigguratNormal::ZigguratNormal(Rng rng) : main_(rng), side_(rng.fork(kSideStream)) {}

float ZigguratNormal::resolve(std::uint32_t c) {
  const ZigguratTable& t = ziggurat_table();
  for (;;) {
    const std::uint32_t layer = c >> 24;
    const std::uint32_t u = c & kPositionMask;
    const float z = static_cast<float>(u) * std::bit_cast<float>(static_cast<std::uint32_t>(t.layer[layer]));
    if (u < static_cast<std::uint32_t>(t.layer[layer] >> 32)) return with_sign(z, c);
    if (layer == 0 && z >= ZigguratTable::kR) {
      // The tail beyond R (Marsaglia's method).
      constexpr double kR = ZigguratTable::kR;
      double x, y;
      do {
        x = -std::log(1.0 - side_.uniform()) / kR;
        y = -std::log(1.0 - side_.uniform());
      } while (y + y < x * x);
      return with_sign(static_cast<float>(kR + x), c);
    }
    // A wedge: under the curve at a uniform height in the layer?
    const double y = t.f[layer] + side_.uniform() * (t.f[layer + 1] - t.f[layer]);
    const double zd = z;
    if (y < std::exp(-0.5 * zd * zd)) return with_sign(z, c);
    c = static_cast<std::uint32_t>(side_.next() >> 32);
  }
}

void ZigguratNormal::fill(std::span<float> out) {
  const ZigguratTable& t = ziggurat_table();
  std::size_t i = 0;
  if (have_held_ && !out.empty()) {
    out[i++] = resolve(held_);
    have_held_ = false;
  }
  // Blocks of whole draws, four candidates at a time without a branch: each
  // candidate's rectangle deviate is written, the draws are kept, and a
  // mask bit marks a candidate that missed its rectangle. The misses are
  // then resolved in order.
  constexpr std::size_t kBlock = 256;
  std::uint64_t draws[kBlock / 2];
  std::uint64_t missed[kBlock / 64];
  Rng rng = main_;
  while (out.size() - i >= 2) {
    const std::size_t n = std::min(kBlock, (out.size() - i) & ~std::size_t{1});
    float* y = out.data() + i;
    std::fill(std::begin(missed), std::end(missed), 0);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      const std::uint64_t a = draws[k / 2] = rng.next();
      const std::uint64_t b = draws[k / 2 + 1] = rng.next();
      missed[k / 64] |= std::uint64_t{rectangle4(a, b, t, y + k)} << (k % 64);
    }
    if (k < n) {  // one draw left: n is even
      const std::uint64_t a = draws[k / 2] = rng.next();
      float z[4];
      missed[k / 64] |= std::uint64_t{rectangle4(a, 0, t, z) & 3u} << (k % 64);
      y[k] = z[0];
      y[k + 1] = z[1];
    }
    for (std::size_t w = 0; w < kBlock / 64; ++w) {
      for (std::uint64_t m = missed[w]; m != 0; m &= m - 1) {
        const std::size_t j = 64 * w + static_cast<std::size_t>(std::countr_zero(m));
        y[j] = resolve(static_cast<std::uint32_t>(draws[j / 2] >> (32 * (j % 2))));
      }
    }
    i += n;
  }
  if (i < out.size()) {
    const std::uint64_t a = rng.next();
    held_ = static_cast<std::uint32_t>(a >> 32);
    have_held_ = true;
    out[i] = resolve(static_cast<std::uint32_t>(a));
  }
  main_ = rng;
}

}  // namespace sonic::util
