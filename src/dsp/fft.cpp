#include "dsp/fft.hpp"

#include <cmath>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "util/units.hpp"

namespace sonic::dsp {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) throw std::invalid_argument("fft size must be a power of two");
  bitrev_.resize(n);
  int log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < log2n; ++b) r |= ((i >> b) & 1u) << (log2n - 1 - b);
    bitrev_[i] = static_cast<std::uint32_t>(r);
  }
  // One table for the largest stage; stage len reads it with stride n/len
  // (w_len^j == w_n^{j*n/len}). Each entry is evaluated directly in double,
  // so table accuracy is independent of n.
  twiddle_.resize(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * sonic::util::kPi * static_cast<double>(k) / static_cast<double>(n);
    twiddle_[k] = cplx(static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang)));
  }
}

void FftPlan::run(std::span<cplx> data, bool inverse) const {
  if (data.size() != n_) throw std::invalid_argument("fft plan/data size mismatch");
  cplx* a = data.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(a[i], a[j]);
  }

  // Conjugating the forward table gives the inverse transform; the sign flip
  // hoists out of the butterfly as a multiplier on the imaginary part.
  const float sign = inverse ? -1.0f : 1.0f;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = n_ / len;
    for (std::size_t i = 0; i < n_; i += len) {
      cplx* lo = a + i;
      cplx* hi = a + i + half;
      // Independent iterations (no cross-iteration twiddle recurrence), so
      // the compiler can vectorize the butterfly.
      for (std::size_t j = 0; j < half; ++j) {
        const cplx t = twiddle_[j * stride];
        const float wr = t.real();
        const float wi = sign * t.imag();
        const float vr = hi[j].real() * wr - hi[j].imag() * wi;
        const float vi = hi[j].real() * wi + hi[j].imag() * wr;
        const cplx u = lo[j];
        lo[j] = cplx(u.real() + vr, u.imag() + vi);
        hi[j] = cplx(u.real() - vr, u.imag() - vi);
      }
    }
  }

  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n_);
    for (std::size_t i = 0; i < n_; ++i) a[i] *= inv_n;
  }
}

void FftPlan::forward(std::span<cplx> data) const { run(data, false); }
void FftPlan::inverse(std::span<cplx> data) const { run(data, true); }

std::shared_ptr<const FftPlan> FftPlan::get(std::size_t n) {
  static std::mutex mu;
  static std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[n];
  if (!slot) slot = std::make_shared<const FftPlan>(n);
  return slot;
}

}  // namespace sonic::dsp
