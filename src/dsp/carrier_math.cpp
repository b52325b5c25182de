#include "dsp/carrier_math.hpp"

#include <cmath>
#include <cstdint>

#include "util/lanes.hpp"

namespace sonic::dsp {
namespace {

// a * b through GCC's inline formula and libgcc: the patched products.
[[gnu::noinline]] cplx multiply_slow(cplx a, cplx b) { return a * b; }

// The rotation by x scaled by 1 / amp, through libm.
cplx rotation_libm(double x, double amp) {
  return cplx(static_cast<float>(std::cos(x) / amp), static_cast<float>(std::sin(x) / amp));
}

double derotate_angle(double a, double b, std::size_t i) { return -(a + b * static_cast<double>(i)); }

// Runs block.template operator()<P>(i) over [0, n) in blocks of the
// dispatched width, then of four lanes, and scalar(i) on the rest: each
// lane's result depends only on its own inputs, so where a value falls
// does not move its bits.
template <class Block, class Scalar>
void in_blocks(std::size_t n, Block&& block, Scalar&& scalar) {
  std::size_t i = 0;
  util::at_width([&]<class P> {
    for (; i + P::n <= n; i += P::n) block.template operator()<P>(i);
    if constexpr (P::n > util::Lanes4::n) {
      for (; i + util::Lanes4::n <= n; i += util::Lanes4::n) block.template operator()<util::Lanes4>(i);
    }
  });
  for (; i < n; ++i) scalar(i);
}

// P::n complex values at p as their real and imaginary lanes, and back.
template <class P>
[[gnu::always_inline]] inline void load_parts(const cplx* p, typename P::F& re, typename P::F& im) {
  typename P::F lo, hi;
  util::load_to(lo, p);
  util::load_to(hi, reinterpret_cast<const float*>(p) + P::n);
  P::deinterleave(lo, hi, re, im);
}
template <class P>
[[gnu::always_inline]] inline void store_parts(cplx* p, const typename P::F& re, const typename P::F& im) {
  typename P::F lo, hi;
  P::interleave(re, im, lo, hi);
  util::store_from(p, lo);
  util::store_from(reinterpret_cast<float*>(p) + P::n, hi);
}

// (ar + i ai)(br + i bi) by GCC's inline formula; returns the mask bits of
// the lanes with a NaN part, whose products std::complex patches.
template <class P>
[[gnu::always_inline]] inline unsigned multiply_parts(const typename P::F& ar, const typename P::F& ai,
                                                      const typename P::F& br, const typename P::F& bi,
                                                      typename P::F& rr, typename P::F& ri) {
  rr = ar * br - ai * bi;
  ri = ar * bi + ai * br;
  return P::mask_bits((rr != rr) | (ri != ri));
}

// fdlibm's (e_rem_pio2.c) pi/2 in three 33-bit parts, so k * part is exact
// for |k| < 2^20, and its 2/pi; the tail pi/2 - p1 - p2 - p3 is 8.5e-32.
constexpr double kPio2_1 = 0x1.921fb54400000p+0;
constexpr double kPio2_2 = 0x1.0b4611a600000p-34;
constexpr double kPio2_3 = 0x1.3198a2e000000p-69;
constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
// Adding it rounds a |t| < 2^51 to an integer, held in the low mantissa bits.
constexpr double kRoundMagic = 0x1.8p52;
// fdlibm's __kernel_sin and __kernel_cos coefficients (k_sin.c, k_cos.c).
constexpr double kS1 = -0x1.5555555555549p-3, kS2 = 0x1.111111110f8a6p-7, kS3 = -0x1.a01a019c161d5p-13,
                 kS4 = 0x1.71de357b1fe7dp-19, kS5 = -0x1.ae5e68a2b9cebp-26, kS6 = 0x1.5d93a5acfd57cp-33;
constexpr double kC1 = 0x1.555555555554cp-5, kC2 = -0x1.6c16c16c15177p-10, kC3 = 0x1.a01a019cb1590p-16,
                 kC4 = -0x1.27e4f809c52adp-22, kC5 = 0x1.1ee9ebdb4b1c4p-29, kC6 = -0x1.8fae9be8838d4p-37;
// The screen (DESIGN.md): the lane's |x| below kMaxAngle, so the reduction
// is exact up to its tail, its reduced angle at least kMinReduced, so that
// tail is below 2^-57 of the result, and float(v - B) == float(v + B) for
// each quotient v with B = |v| * kScreen, which covers libm's 1 ulp, the
// kernel's error and both divisions' roundings with a factor of three to
// spare.
constexpr double kMaxAngle = 1e5;
constexpr double kMinReduced = 0x1p-30;
constexpr double kScreen = 0x1p-48;
// derotate's amp range: no quotient of a kept lane overflows or is
// subnormal in double.
constexpr double kMinAmp = 0x1p-900, kMaxAmp = 0x1p900;

// cos(x) and sin(x) of each lane of x for |x| < kMaxAngle, and the lanes
// whose reduced angle is at least kMinReduced as all-ones 64-bit masks.
template <class D, class Q>
[[gnu::always_inline]] inline void cos_sin_lanes(const D& x, D& c, D& s, D& reduced_ok) {
  const D t = x * kInvPio2 + kRoundMagic;
  const D k = t - kRoundMagic;
  const D r = ((x - k * kPio2_1) - k * kPio2_2) - k * kPio2_3;
  const D z = r * r, w = z * z;
  const D sr = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
  const D sin_r = r + z * r * (kS1 + z * sr);
  const D cr = z * (kC1 + z * (kC2 + z * kC3)) + w * w * (kC4 + z * (kC5 + z * kC6));
  const D hz = 0.5 * z, cw = 1.0 - hz;
  const D cos_r = cw + (((1.0 - cw) - hz) + z * cr);
  // x = k pi/2 + r: quadrant k mod 4 is in t's two low bits. Odd quadrants
  // swap sin and cos; sin is negated in quadrants 2 and 3, cos in 1 and 2.
  const Q q = reinterpret_cast<Q>(t);
  const Q odd = Q{} - (q & 1u);
  const Q sb = reinterpret_cast<Q>(sin_r), cb = reinterpret_cast<Q>(cos_r);
  s = reinterpret_cast<D>(((sb & ~odd) | (cb & odd)) ^ ((q & 2u) << 62));
  c = reinterpret_cast<D>(((cb & ~odd) | (sb & odd)) ^ (((q + 1u) & 2u) << 62));
  const Q abs_bits = ~Q{} >> 1;
  const D ax = reinterpret_cast<D>(reinterpret_cast<Q>(x) & abs_bits);
  const D ar = reinterpret_cast<D>(reinterpret_cast<Q>(r) & abs_bits);
  reduced_ok = reinterpret_cast<D>((ax < kMaxAngle) & (ar >= kMinReduced));
}

// Values i0 .. i0 + P::n of derotate; returns how many took libm.
template <class P>
[[gnu::always_inline]] inline std::size_t derotate_lanes(const cplx* in, double a, double b, double amp,
                                                         std::size_t i0, cplx* out) {
  using F = typename P::F;
  using D = typename P::D;
  using I = typename P::I;
  using U = typename P::U;
  constexpr std::size_t h = P::n / 2;
  D iota;
  for (std::size_t k = 0; k < h; ++k) iota[k] = static_cast<double>(k);
  D vc[2], vs[2], lo_c[2], hi_c[2], lo_s[2], hi_s[2], ok[2];
  const typename P::Q abs_bits = ~typename P::Q{} >> 1;
  for (std::size_t half = 0; half < 2; ++half) {
    const D x = -(a + b * (iota + static_cast<double>(i0 + half * h)));
    D c, s;
    cos_sin_lanes<D, typename P::Q>(x, c, s, ok[half]);
    vc[half] = c / amp;
    vs[half] = s / amp;
    const D bc = reinterpret_cast<D>(reinterpret_cast<typename P::Q>(vc[half]) & abs_bits) * kScreen;
    const D bs = reinterpret_cast<D>(reinterpret_cast<typename P::Q>(vs[half]) & abs_bits) * kScreen;
    lo_c[half] = vc[half] - bc;
    hi_c[half] = vc[half] + bc;
    lo_s[half] = vs[half] - bs;
    hi_s[half] = vs[half] + bs;
  }
  F cf, sf, lcf, hcf, lsf, hsf;
  P::narrow(vc[0], vc[1], cf);
  P::narrow(vs[0], vs[1], sf);
  P::narrow(lo_c[0], lo_c[1], lcf);
  P::narrow(hi_c[0], hi_c[1], hcf);
  P::narrow(lo_s[0], lo_s[1], lsf);
  P::narrow(hi_s[0], hi_s[1], hsf);
  U ok_words;
  P::low_words(ok[0], ok[1], ok_words);
  const unsigned kept = P::mask_bits(reinterpret_cast<I>(ok_words) & (lcf == hcf) & (lsf == hsf));
  constexpr unsigned kAll = (1u << P::n) - 1;
  std::size_t by_libm = 0;
  if (kept != kAll) {
    for (std::size_t j = 0; j < P::n; ++j) {
      if ((kept >> j & 1u) != 0) continue;
      const cplx rot = rotation_libm(derotate_angle(a, b, i0 + j), amp);
      cf[j] = rot.real();
      sf[j] = rot.imag();
      ++by_libm;
    }
  }
  F er, ei, rr, ri;
  load_parts<P>(in + i0, er, ei);
  const unsigned nan = multiply_parts<P>(er, ei, cf, sf, rr, ri);
  store_parts<P>(out + i0, rr, ri);
  for (std::size_t j = 0; nan != 0 && j < P::n; ++j) {
    if ((nan >> j & 1u) != 0) out[i0 + j] = multiply_slow(cplx(er[j], ei[j]), cplx(cf[j], sf[j]));
  }
  return by_libm;
}

}  // namespace

void multiply(std::span<const cplx> a, std::span<const cplx> b, std::span<cplx> out) {
  in_blocks(
      out.size(),
      [&]<class P>(std::size_t i) {
        typename P::F ar, ai, br, bi, rr, ri;
        load_parts<P>(a.data() + i, ar, ai);
        load_parts<P>(b.data() + i, br, bi);
        const unsigned nan = multiply_parts<P>(ar, ai, br, bi, rr, ri);
        store_parts<P>(out.data() + i, rr, ri);
        for (std::size_t j = 0; nan != 0 && j < P::n; ++j) {
          if ((nan >> j & 1u) != 0) out[i + j] = multiply_slow(a[i + j], b[i + j]);
        }
      },
      [&](std::size_t i) { out[i] = multiply_slow(a[i], b[i]); });
}

void magnitudes(std::span<const cplx> in, std::span<float> out) {
  in_blocks(
      out.size(),
      [&]<class P>(std::size_t i) {
        using F = typename P::F;
        using D = typename P::D;
        F x, y, m;
        load_parts<P>(in.data() + i, x, y);
        D x0, x1, y0, y1, m0, m1;
        P::widen(x, x0, x1);
        P::widen(y, y0, y1);
        P::sqrt(x0 * x0 + y0 * y0, m0);
        P::sqrt(x1 * x1 + y1 * y1, m1);
        P::narrow(m0, m1, m);
        util::store_from(out.data() + i, m);
        // x - x is 0 exactly for a finite x, NaN for an infinite or NaN one.
        const unsigned finite = P::mask_bits(((x - x) == F{}) & ((y - y) == F{}));
        for (std::size_t j = 0; j < P::n; ++j) {
          if ((finite >> j & 1u) == 0) out[i + j] = std::abs(in[i + j]);
        }
      },
      [&](std::size_t i) { out[i] = std::abs(in[i]); });
}

std::size_t derotate(std::span<const cplx> in, double a, double b, double amp, std::span<cplx> out) {
  std::size_t by_libm = 0;
  auto scalar = [&](std::size_t i) {
    out[i] = multiply_slow(in[i], rotation_libm(derotate_angle(a, b, i), amp));
    ++by_libm;
  };
  if (!(amp >= kMinAmp && amp <= kMaxAmp)) {
    for (std::size_t i = 0; i < out.size(); ++i) scalar(i);
    return by_libm;
  }
  in_blocks(
      out.size(),
      [&]<class P>(std::size_t i) { by_libm += derotate_lanes<P>(in.data(), a, b, amp, i, out.data()); }, scalar);
  return by_libm;
}

void split_bins(std::span<const cplx> packed, std::size_t first, float half_gain, std::span<const cplx> twiddle,
                std::span<cplx> out) {
  const std::size_t half = packed.size();
  in_blocks(
      out.size(),
      [&]<class P>(std::size_t i) {
        using F = typename P::F;
        F zr, zi, pr, pi, tr, ti, prod_r, prod_i;
        load_parts<P>(packed.data() + first + i, zr, zi);
        // The mirrors of bins i .. i + n - 1 lie in descending order.
        load_parts<P>(packed.data() + (half - first - i - (P::n - 1)), pr, pi);
        P::reverse(pr, pr);
        P::reverse(pi, pi);
        const F mi = -pi;  // the conjugate's imaginary part
        const F dr = zr - pr, di = zi - mi;
        load_parts<P>(twiddle.data() + i, tr, ti);
        const unsigned nan = multiply_parts<P>(tr, ti, dr, di, prod_r, prod_i);
        store_parts<P>(out.data() + i, (zr + pr) * half_gain + prod_r, (zi + mi) * half_gain + prod_i);
        for (std::size_t j = 0; nan != 0 && j < P::n; ++j) {
          if ((nan >> j & 1u) == 0) continue;
          const cplx z(zr[j], zi[j]), m(pr[j], mi[j]);
          out[i + j] = (z + m) * half_gain + multiply_slow(twiddle[i + j], z - m);
        }
      },
      [&](std::size_t i) {
        const cplx z = packed[first + i], m = std::conj(packed[half - first - i]);
        out[i] = (z + m) * half_gain + multiply_slow(twiddle[i], z - m);
      });
}

}  // namespace sonic::dsp
