#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

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

}  // namespace sonic::util
