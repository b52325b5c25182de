// Branch-free float kernels for the simulated FM chain: sincos, atan2 and
// exp2, four lanes at a time.
//
// Written with GCC/Clang vector extensions at the default ISA (plain SSE2 on
// x86-64; no -march change, no runtime dispatch). Every range or quadrant decision is a lane select, never a
// branch: under the default -ftrapping-math the compiler will not
// if-convert the selects and the guarded division of a plain scalar loop,
// so such loops would stay scalar. Each lane's result depends only on that
// lane's inputs, so a value comes out bit-identical whichever lane or call
// computes it.
//
// Accuracy against libm (FastMath tests): sincos within 1.2e-7 absolute,
// atan2 within 2.5e-7 absolute, exp2 within 2e-7 relative.
#pragma once

#include <cstdint>
#include <cstring>

namespace sonic::dsp::fastmath {

typedef float V4f __attribute__((vector_size(16)));
typedef std::int32_t V4i __attribute__((vector_size(16)));
typedef std::uint32_t V4u __attribute__((vector_size(16)));

inline V4f splat(float c) { return V4f{c, c, c, c}; }
inline V4f load(const float* p) {
  V4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store(float* p, V4f v) { std::memcpy(p, &v, sizeof v); }

// Lanes of `hi` where `take` is set, else lanes of `lo`.
inline V4f select(V4i take, V4f hi, V4f lo) {
  const V4i h = reinterpret_cast<V4i>(hi);
  const V4i l = reinterpret_cast<V4i>(lo);
  return reinterpret_cast<V4f>((take & h) | (~take & l));
}

inline V4u bits(V4f v) { return reinterpret_cast<V4u>(v); }
inline V4f from_bits(V4u v) { return reinterpret_cast<V4f>(v); }
constexpr std::uint32_t kSignBit = 0x80000000u;

// sin and cos of the four doubles at x[0..3], rounded to float.
//
// Cody–Waite reduction in double: k = round(x·2/π) and r = x − k·π/2 with
// π/2 split in two, the first part short enough that k·part is exact for
// |k| < 2^20 (|x| up to ~1.6e6 rad; beyond that r loses bits gradually).
// Then float minimax polynomials for sin and cos on [−π/4, π/4] and a
// quadrant select on k mod 4.
inline void sincos(const double* x, V4f& s, V4f& c) {
  typedef double V4d __attribute__((vector_size(32)));
  constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
  constexpr double kPio2Hi = 0x1.921fb544p+0;          // 33 significant bits
  constexpr double kPio2Lo = 0x1.0b4611a626331p-34;    // π/2 − kPio2Hi
  constexpr double kRoundMagic = 0x1.8p52;             // 1.5·2^52

  V4d xd;
  std::memcpy(&xd, x, sizeof xd);
  // t's low mantissa bits hold k in two's complement (|k| < 2^51).
  const V4d t = xd * kTwoOverPi + kRoundMagic;
  const V4d kd = t - kRoundMagic;
  const V4d rd = (xd - kd * kPio2Hi) - kd * kPio2Lo;
  V4u t01, t23;
  std::memcpy(&t01, &t, sizeof t01);
  std::memcpy(&t23, reinterpret_cast<const char*>(&t) + sizeof t01, sizeof t23);
  const V4u q = __builtin_shufflevector(t01, t23, 0, 2, 4, 6);

  const V4f r = __builtin_convertvector(rd, V4f);
  const V4f z = r * r;
  const V4f sin_r =
      ((-1.9515295891e-4f * z + 8.3321608736e-3f) * z - 1.6666654611e-1f) * z * r + r;
  const V4f cos_r =
      ((2.443315711809948e-5f * z - 1.388731625493765e-3f) * z + 4.166664568298827e-2f) * z *
          z -
      0.5f * z + 1.0f;

  // Quadrant k mod 4: odd swaps sin and cos; sin flips sign in quadrants
  // 2 and 3, cos in quadrants 1 and 2.
  const V4i swap = -reinterpret_cast<V4i>(q & 1u);
  s = from_bits(bits(select(swap, cos_r, sin_r)) ^ ((q & 2u) << 30));
  c = from_bits(bits(select(swap, sin_r, cos_r)) ^ (((q + 1u) & 2u) << 30));
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
inline V4f atan2(V4f y, V4f x) {
  constexpr float kTanPi8 = 0x1.a8279ap-2f;
  constexpr float kPio4Hi = 0x1.921fbp-1f;    // π/4, low mantissa bits clear
  constexpr float kPio4Lo = 0x1.5110b4p-23f;  // π/4 − kPio4Hi

  const V4u xb = bits(x);
  const V4u yb = bits(y);
  const V4f ax = from_bits(xb & ~kSignBit);
  const V4f ay = from_bits(yb & ~kSignBit);
  const V4i swap = ay > ax;
  const V4f lo = select(swap, ax, ay);
  const V4f hi = select(swap, ay, ax);
  const V4i mid = lo > hi * kTanPi8;
  const V4f num = select(mid, lo - hi, lo);
  const V4f den0 = select(mid, lo + hi, hi);
  const V4f den = select(den0 == 0.0f, splat(1.0f), den0);
  const V4f t = num / den;
  const V4f z = t * t;
  const V4f p =
      (((8.05374449538e-2f * z - 1.38776856032e-1f) * z + 1.99777106478e-1f) * z -
       3.33329491539e-1f) *
          z * t +
      t;

  // n in units of π/4 (mid: 1, swap: 2 − n, x < 0: 4 − n); the polynomial
  // term is negated once per reflection.
  const V4i xneg = reinterpret_cast<V4i>(xb) < 0;
  V4i n = mid & 1;
  n = (swap & (2 - n)) | (~swap & n);
  n = (xneg & (4 - n)) | (~xneg & n);
  const V4u flip = reinterpret_cast<V4u>(swap ^ xneg) & kSignBit;
  const V4f nf = __builtin_convertvector(n, V4f);
  const V4f a = nf * kPio4Hi + (from_bits(bits(p) ^ flip) + nf * kPio4Lo);
  return from_bits(bits(a) | (yb & kSignBit));
}

// 2^x per lane, for x in [−125, 126] (clamped to it): x = k + f with k the
// nearest integer and |f| ≤ 1/2, a float polynomial for 2^f, and k added
// to the exponent bits.
inline V4f exp2(V4f x) {
  constexpr float kRoundMagic = 0x1.8p23f;  // 1.5·2^23
  x = select(x < -125.0f, splat(-125.0f), x);
  x = select(x > 126.0f, splat(126.0f), x);
  // t's bit pattern is the magic's plus k.
  const V4f t = x + kRoundMagic;
  const V4f f = x - (t - kRoundMagic);
  const V4u k = bits(t) - bits(splat(kRoundMagic));
  const V4f px =
      (((((1.535336188319500e-4f * f + 1.339887440266574e-3f) * f + 9.618437357674640e-3f) * f +
         5.550332471162809e-2f) *
            f +
        2.402264791363012e-1f) *
           f +
       6.931472028550421e-1f) *
      f;
  return from_bits(bits(1.0f + px) + (k << 23));
}

}  // namespace sonic::dsp::fastmath
