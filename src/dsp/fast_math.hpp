// Branch-free float kernels for the simulated FM chain: sincos, atan2 and
// exp2, written once over the lane packs of util/lanes.hpp and run through
// util::at_width by their callers, at four lanes or, where
// util::simd_width() is k256, at eight in the AVX2 instance.
//
// Every range or quadrant decision is a lane select, never a branch: under
// the default -ftrapping-math the compiler will not if-convert the selects
// and the guarded division of a plain scalar loop, so such loops would stay
// scalar. Each lane's result depends only on that lane's inputs, through
// the same IEEE operations at either width, so a value comes out
// bit-identical whichever lane, call or instance computes it.
//
// Accuracy against libm (FastMath tests): sincos within 1.2e-7 absolute,
// atan2 within 2.5e-7 absolute, exp2 within 2e-7 relative.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/lanes.hpp"

namespace sonic::dsp::fastmath {

constexpr std::uint32_t kSignBit = 0x80000000u;

// sin and cos of the P::n doubles at x, rounded to float.
//
// Cody–Waite reduction in double: k = round(x·2/π) and r = x − k·π/2 with
// π/2 split in two, the first part short enough that k·part is exact for
// |k| < 2^20 (|x| up to ~1.6e6 rad; beyond that r loses bits gradually).
// Then float minimax polynomials for sin and cos on [−π/4, π/4] and a
// quadrant select on k mod 4.
template <class P>
[[gnu::always_inline]] inline void sincos(const double* x, typename P::F& s, typename P::F& c) {
  using F = typename P::F;
  using I = typename P::I;
  using U = typename P::U;
  using D = typename P::D;
  constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
  constexpr double kPio2Hi = 0x1.921fb544p+0;          // 33 significant bits
  constexpr double kPio2Lo = 0x1.0b4611a626331p-34;    // π/2 − kPio2Hi
  constexpr double kRoundMagic = 0x1.8p52;             // 1.5·2^52

  // t's low mantissa bits hold k in two's complement (|k| < 2^51).
  D t[2], rd[2];
  for (std::size_t h = 0; h < 2; ++h) {
    D xd;
    util::load_to(xd, x + h * (P::n / 2));
    t[h] = xd * kTwoOverPi + kRoundMagic;
    const D kd = t[h] - kRoundMagic;
    rd[h] = (xd - kd * kPio2Hi) - kd * kPio2Lo;
  }
  U q;
  P::low_words(t[0], t[1], q);

  F r;
  P::narrow(rd[0], rd[1], r);
  const F z = r * r;
  const F sin_r = ((-1.9515295891e-4f * z + 8.3321608736e-3f) * z - 1.6666654611e-1f) * z * r + r;
  const F cos_r =
      ((2.443315711809948e-5f * z - 1.388731625493765e-3f) * z + 4.166664568298827e-2f) * z * z -
      0.5f * z + 1.0f;

  // Quadrant k mod 4: odd swaps sin and cos; sin flips sign in quadrants
  // 2 and 3, cos in quadrants 1 and 2.
  const I swap = (q & 1u) != 0u;
  s = reinterpret_cast<F>(reinterpret_cast<U>(swap ? cos_r : sin_r) ^ ((q & 2u) << 30));
  c = reinterpret_cast<F>(reinterpret_cast<U>(swap ? sin_r : cos_r) ^ (((q + 1u) & 2u) << 30));
}

// atan2(y, x) per lane, with libm's signs and quadrants, including the
// signed zeros: atan2(±0, +0) = ±0 and atan2(±0, −0) = ±π.
//
// Octant reduction by selects: with lo = min(|x|, |y|) and hi = max, the
// angle is n·π/4 ± atan(t) for a t with |t| ≤ tan(π/8), where
// t = lo/hi, or (lo − hi)/(lo + hi) when lo/hi > tan(π/8); one division
// either way, guarded so 0/0 reads 0/1. The float polynomial is a minimax
// fit of atan on [−tan(π/8), tan(π/8)]; n·π/4 is added as a short high
// part (exact for n ≤ 4) plus a low correction.
template <class P>
[[gnu::always_inline]] inline void atan2(const typename P::F& y, const typename P::F& x, typename P::F& out) {
  using F = typename P::F;
  using I = typename P::I;
  using U = typename P::U;
  constexpr float kTanPi8 = 0x1.a8279ap-2f;
  constexpr float kPio4Hi = 0x1.921fbp-1f;    // π/4, low mantissa bits clear
  constexpr float kPio4Lo = 0x1.5110b4p-23f;  // π/4 − kPio4Hi

  const U xb = reinterpret_cast<U>(x);
  const U yb = reinterpret_cast<U>(y);
  const F ax = reinterpret_cast<F>(xb & ~kSignBit);
  const F ay = reinterpret_cast<F>(yb & ~kSignBit);
  const I swap = ay > ax;
  const F lo = swap ? ax : ay;
  const F hi = swap ? ay : ax;
  const I mid = lo > hi * kTanPi8;
  const F num = mid ? lo - hi : lo;
  const F den0 = mid ? lo + hi : hi;
  const F den = den0 == 0.0f ? 1.0f : den0;
  const F t = num / den;
  const F z = t * t;
  const F p =
      (((8.05374449538e-2f * z - 1.38776856032e-1f) * z + 1.99777106478e-1f) * z - 3.33329491539e-1f) * z * t +
      t;

  // n in units of π/4 (mid: 1, swap: 2 − n, x < 0: 4 − n); the polynomial
  // term is negated once per reflection.
  const I xneg = reinterpret_cast<I>(xb) < 0;
  I n = mid & 1;
  n = swap ? 2 - n : n;
  n = xneg ? 4 - n : n;
  const U flip = reinterpret_cast<U>(swap ^ xneg) & kSignBit;
  const F nf = __builtin_convertvector(n, F);
  const F a = nf * kPio4Hi + (reinterpret_cast<F>(reinterpret_cast<U>(p) ^ flip) + nf * kPio4Lo);
  out = reinterpret_cast<F>(reinterpret_cast<U>(a) | (yb & kSignBit));
}

// 2^x per lane, for x in [−125, 126] (clamped to it): x = k + f with k the
// nearest integer and |f| ≤ 1/2, a float polynomial for 2^f, and k added
// to the exponent bits.
template <class P>
[[gnu::always_inline]] inline void exp2(const typename P::F& x_in, typename P::F& out) {
  using F = typename P::F;
  using U = typename P::U;
  constexpr float kRoundMagic = 0x1.8p23f;  // 1.5·2^23
  F x = x_in < -125.0f ? -125.0f : x_in;
  x = x > 126.0f ? 126.0f : x;
  // t's bit pattern is the magic's plus k.
  const F t = x + kRoundMagic;
  const F f = x - (t - kRoundMagic);
  const U k = reinterpret_cast<U>(t) - std::bit_cast<std::uint32_t>(kRoundMagic);
  const F px =
      (((((1.535336188319500e-4f * f + 1.339887440266574e-3f) * f + 9.618437357674640e-3f) * f +
         5.550332471162809e-2f) *
            f +
        2.402264791363012e-1f) *
           f +
       6.931472028550421e-1f) *
      f;
  out = reinterpret_cast<F>(reinterpret_cast<U>(1.0f + px) + (k << 23));
}

}  // namespace sonic::dsp::fastmath
