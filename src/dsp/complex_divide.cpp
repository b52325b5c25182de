#include "dsp/complex_divide.hpp"

#include <cmath>

#include "util/lanes.hpp"

namespace sonic::dsp {
namespace {

// num / den through libgcc: the patched quotients.
[[gnu::noinline]] cplx divide_slow(cplx num, cplx den) { return num / den; }

// Values i .. i + P::n of the span division: the parts split into lanes,
// widened to double, divided by the formula, narrowed and interleaved back.
template <class P>
[[gnu::always_inline]] inline void divide_lanes(const cplx* num, const cplx* den, cplx* out) {
  using F = typename P::F;
  using D = typename P::D;
  F lo, hi, a, b, c, d;
  util::load_to(lo, num);
  util::load_to(hi, reinterpret_cast<const float*>(num) + P::n);
  P::deinterleave(lo, hi, a, b);
  util::load_to(lo, den);
  util::load_to(hi, reinterpret_cast<const float*>(den) + P::n);
  P::deinterleave(lo, hi, c, d);
  D a0, a1, b0, b1, c0, c1, d0, d1;
  P::widen(a, a0, a1);
  P::widen(b, b0, b1);
  P::widen(c, c0, c1);
  P::widen(d, d0, d1);
  const D den0 = c0 * c0 + d0 * d0, den1 = c1 * c1 + d1 * d1;
  F x, y;
  P::narrow((a0 * c0 + b0 * d0) / den0, (a1 * c1 + b1 * d1) / den1, x);
  P::narrow((b0 * c0 - a0 * d0) / den0, (b1 * c1 - a1 * d1) / den1, y);
  P::interleave(x, y, lo, hi);
  util::store_from(out, lo);
  util::store_from(reinterpret_cast<float*>(out) + P::n, hi);
}

}  // namespace

cplx divide(cplx num, cplx den) {
  const double a = num.real(), b = num.imag(), c = den.real(), d = den.imag();
  const double denom = c * c + d * d;
  const cplx q(static_cast<float>((a * c + b * d) / denom), static_cast<float>((b * c - a * d) / denom));
  return std::isnan(q.real()) || std::isnan(q.imag()) ? divide_slow(num, den) : q;
}

void divide(std::span<const cplx> num, std::span<const cplx> den, std::span<cplx> out) {
  const std::size_t n = out.size();
  std::size_t i = 0;
  util::at_width([&]<class P> {
    for (; i + P::n <= n; i += P::n) divide_lanes<P>(num.data() + i, den.data() + i, out.data() + i);
  });
  for (std::size_t k = 0; k < i; ++k) {
    if (std::isnan(out[k].real()) || std::isnan(out[k].imag())) out[k] = divide_slow(num[k], den[k]);
  }
  for (; i < n; ++i) out[i] = divide(num[i], den[i]);
}

}  // namespace sonic::dsp
