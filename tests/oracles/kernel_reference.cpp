#include "oracles/kernel_reference.hpp"

#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "util/units.hpp"

namespace sonic::oracles {
namespace {

void fft_recurrence_impl(std::span<cplx> a, bool inverse) {
  const std::size_t n = a.size();
  if (n == 0 || (n & (n - 1)) != 0) throw std::invalid_argument("fft size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * util::kPi / static_cast<double>(len);
    const cplx wlen(static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang)));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0f, 0.0f);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const cplx u = a[i + j];
        const cplx v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (auto& x : a) x *= inv_n;
  }
}

struct Radix2Tables {
  std::vector<std::uint32_t> bitrev;  // bit-reversed index of each position
  std::vector<cplx> twiddle;          // exp(-2*pi*i*k/n), k in [0, n/2)
};

Radix2Tables make_radix2_tables(std::size_t n) {
  Radix2Tables t;
  t.bitrev.resize(n);
  int log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < log2n; ++b) r |= ((i >> b) & 1u) << (log2n - 1 - b);
    t.bitrev[i] = static_cast<std::uint32_t>(r);
  }
  t.twiddle.resize(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * util::kPi * static_cast<double>(k) / static_cast<double>(n);
    t.twiddle[k] = cplx(static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang)));
  }
  return t;
}

const Radix2Tables& radix2_tables(std::size_t n) {
  static std::mutex mu;
  static std::map<std::size_t, Radix2Tables> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(n);
  if (it == cache.end()) it = cache.emplace(n, make_radix2_tables(n)).first;
  return it->second;  // map nodes are stable; entries are never modified
}

}  // namespace

void fft_radix2_reference(std::span<cplx> data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 0 || (n & (n - 1)) != 0) throw std::invalid_argument("fft size must be a power of two");
  const Radix2Tables& t = radix2_tables(n);
  cplx* a = data.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = t.bitrev[i];
    if (i < j) std::swap(a[i], a[j]);
  }

  const float sign = inverse ? -1.0f : 1.0f;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      cplx* lo = a + i;
      cplx* hi = a + i + half;
      for (std::size_t j = 0; j < half; ++j) {
        const cplx w = t.twiddle[j * stride];
        const float wr = w.real();
        const float wi = sign * w.imag();
        const float vr = hi[j].real() * wr - hi[j].imag() * wi;
        const float vi = hi[j].real() * wi + hi[j].imag() * wr;
        const cplx u = lo[j];
        lo[j] = cplx(u.real() + vr, u.imag() + vi);
        hi[j] = cplx(u.real() - vr, u.imag() - vi);
      }
    }
  }

  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) a[i] *= inv_n;
  }
}

std::vector<cplx> dft_naive(std::span<const cplx> data) {
  const std::size_t n = data.size();
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * util::kPi * static_cast<double>(k) * static_cast<double>(t) / static_cast<double>(n);
      acc += std::complex<double>(data[t].real(), data[t].imag()) * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    out[k] = cplx(static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
  }
  return out;
}

void fft_recurrence(std::span<cplx> data) { fft_recurrence_impl(data, false); }
void ifft_recurrence(std::span<cplx> data) { fft_recurrence_impl(data, true); }

std::vector<float> fir_reference(std::span<const float> taps, std::span<const float> x) {
  std::vector<float> history(taps.size(), 0.0f);
  std::size_t pos = 0;
  std::vector<float> out(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    history[pos] = x[n];
    float acc = 0.0f;
    std::size_t idx = pos;
    for (float tap : taps) {
      acc += tap * history[idx];
      idx = idx == 0 ? history.size() - 1 : idx - 1;
    }
    pos = (pos + 1) % history.size();
    out[n] = acc;
  }
  return out;
}

double fir_magnitude_at(std::span<const float> taps, double f_hz, double sample_rate_hz) {
  std::complex<double> resp(0.0, 0.0);
  const double w = util::kTwoPi * f_hz / sample_rate_hz;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const double phase = w * static_cast<double>(i);
    resp += static_cast<double>(taps[i]) * std::complex<double>(std::cos(phase), -std::sin(phase));
  }
  return std::abs(resp);
}

void xor_into_reference(util::Bytes& dst, std::span<const std::uint8_t> src) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
}

}  // namespace sonic::oracles
