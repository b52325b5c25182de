#include "dsp/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/lanes.hpp"
#include "util/units.hpp"

namespace sonic::dsp {
namespace {

// Points per first pass at the widest pack: two eight-point blocks.
constexpr std::size_t kMaxFirstPass = 16;

// Every lane of `out` to x, bits untouched (a sum with a zero vector would
// turn −0 into +0).
template <class F>
[[gnu::always_inline]] inline void splat(float x, F& out) {
  float t[sizeof(F) / sizeof(float)];
  std::fill(std::begin(t), std::end(t), x);
  util::load_to(out, t);
}

// The radix-2 butterfly on a pack's lanes: v = hi·w, then lo + v and
// lo − v, each lane in the float operations and order of a scalar radix-2
// loop, so results stay bit-identical to one.
template <class F>
[[gnu::always_inline]] inline void butterfly(F& lr, F& li, F& hr, F& hi, const F& wr, const F& wi) {
  const F vr = hr * wr - hi * wi;
  const F vi = hr * wi + hi * wr;
  const F ur = lr;
  const F ui = li;
  lr = ur + vr;
  li = ui + vi;
  hr = ur - vr;
  hi = ui - vi;
}

template <class F>
[[gnu::always_inline]] inline void load_pair(F& r, F& i, const float* re, const float* im, std::size_t at) {
  util::load_to(r, re + at);
  util::load_to(i, im + at);
}

// Where a pass leaves its results: the split working arrays, or, on the
// last pass, the caller's complex buffer, scaled by 1/N for the inverse.
enum class Sink { kSplit, kOut, kOutScaled };

// Points at..at + P::n of a pass's results.
template <class P, Sink S>
[[gnu::always_inline]] inline void put(float* re, float* im, cplx* out, const typename P::F& scale, std::size_t at,
                                       typename P::F& r, typename P::F& i) {
  if constexpr (S == Sink::kSplit) {
    util::store_from(re + at, r);
    util::store_from(im + at, i);
  } else {
    if constexpr (S == Sink::kOutScaled) {
      r = r * scale;
      i = i * scale;
    }
    typename P::F lo, hi;
    P::interleave(r, i, lo, hi);
    float* o = reinterpret_cast<float*>(out + at);
    util::store_from(o, lo);
    util::store_from(o + P::n, hi);
  }
}

// A complex point as one 64-bit lane, bits untouched.
[[gnu::always_inline]] inline double point(const cplx& c) {
  double d;
  std::memcpy(&d, &c, sizeof d);
  return d;
}

// The points src[br[first + 8 (t / 2) + 2 (t % 2)]] for t = 0 .. P::n / 2 − 1,
// as P::n floats (re, im, re, im, ...): with `first` 0 or 4, the even
// positions of each eight-point block, in two halves that
// deinterleave_blocks puts in order; 1 and 5 give the odd ones.
template <class P, std::size_t... T>
[[gnu::always_inline]] inline void gather(const cplx* src, const std::uint32_t* br, std::size_t first,
                                          typename P::F& out, std::index_sequence<T...>) {
  const typename P::D d{point(src[br[first + 8 * (T / 2) + 2 * (T % 2)]])...};
  out = reinterpret_cast<typename P::F>(d);
}

// The first pass: the bit-reversed gather of P::n / 4 eight-point blocks at
// a time and their stages h = 1, 2 and 4 in registers, into the split
// arrays. Each shuffle is a permutation, so where n < 8 the stages beyond
// it are skipped and the points still leave in order.
template <class P>
[[gnu::always_inline]] inline void gather_pass(const cplx* src, const std::uint32_t* bitrev, std::size_t m,
                                               std::size_t n, const float* w_re, const float* w_im, float* re,
                                               float* im) {
  using F = typename P::F;
  // Stage 2 pairs lanes of positions (0, 4, 1, 5) with (2, 6, 3, 7) in each
  // block, twiddles j = 0, 0, 1, 1; stage 4 pairs (0, 1, 2, 3) with
  // (4, 5, 6, 7), twiddles j = 0 .. 3.
  float t2r[P::n] = {}, t2i[P::n] = {}, t4r[P::n] = {}, t4i[P::n] = {};
  for (std::size_t l = 0; l < P::n; ++l) {
    if (n >= 4) {
      t2r[l] = w_re[2 + l % 4 / 2];
      t2i[l] = w_im[2 + l % 4 / 2];
    }
    if (n >= 8) {
      t4r[l] = w_re[4 + l % 4];
      t4i[l] = w_im[4 + l % 4];
    }
  }
  F w1r, w1i, w2r, w2i, w4r, w4i;
  splat(w_re[1], w1r);
  splat(w_im[1], w1i);
  util::load_to(w2r, t2r);
  util::load_to(w2i, t2i);
  util::load_to(w4r, t4r);
  util::load_to(w4i, t4i);
  constexpr auto lanes = std::make_index_sequence<P::n / 2>{};
  for (std::size_t i = 0; i < m; i += 2 * P::n) {
    const std::uint32_t* br = bitrev + i;
    F xe, ye, xo, yo;
    gather<P>(src, br, 0, xe, lanes);
    gather<P>(src, br, 4, ye, lanes);
    gather<P>(src, br, 1, xo, lanes);
    gather<P>(src, br, 5, yo, lanes);
    // Lane k of each block: position 2k in lo, 2k + 1 in hi.
    F lr, li, hr, hi;
    P::deinterleave_blocks(xe, ye, lr, li);
    P::deinterleave_blocks(xo, yo, hr, hi);
    butterfly(lr, li, hr, hi, w1r, w1i);
    F ar, ai, br2, bi;  // positions (0, 4, 1, 5) and (2, 6, 3, 7)
    P::deinterleave_blocks(lr, hr, ar, br2);
    P::deinterleave_blocks(li, hi, ai, bi);
    if (n >= 4) butterfly(ar, ai, br2, bi, w2r, w2i);
    F cr, ci, dr, di;  // positions (0, 1, 2, 3) and (4, 5, 6, 7)
    P::deinterleave_blocks(ar, br2, cr, dr);
    P::deinterleave_blocks(ai, bi, ci, di);
    if (n >= 8) butterfly(cr, ci, dr, di, w4r, w4i);
    F lo, hi2;
    P::interleave_blocks(cr, dr, lo, hi2);
    util::store_from(re + i, lo);
    util::store_from(re + i + P::n, hi2);
    P::interleave_blocks(ci, di, lo, hi2);
    util::store_from(im + i, lo);
    util::store_from(im + i + P::n, hi2);
  }
}

// Stage h alone (h >= 8): P::n butterflies per step, twiddles contiguous.
template <class P, Sink S>
[[gnu::always_inline]] inline void stage(float* re, float* im, std::size_t n, std::size_t h, const float* w_re,
                                         const float* w_im, cplx* out, const typename P::F& scale) {
  using F = typename P::F;
  for (std::size_t i = 0; i < n; i += 2 * h) {
    for (std::size_t j = 0; j < h; j += P::n) {
      F lr, li, hr, hi, wr, wi;
      load_pair(lr, li, re, im, i + j);
      load_pair(hr, hi, re, im, i + h + j);
      load_pair(wr, wi, w_re, w_im, h + j);
      butterfly(lr, li, hr, hi, wr, wi);
      put<P, S>(re, im, out, scale, i + j, lr, li);
      put<P, S>(re, im, out, scale, i + h + j, hr, hi);
    }
  }
}

// Stages h and 2h (h >= 8) in one pass over the points: x0 .. x3 at
// i + j, + h, + 2h and + 3h take stage h's butterflies (x0, x1) and
// (x2, x3), then stage 2h's (x0, x2) and (x1, x3), each the butterfly the
// two stages run alone.
template <class P, Sink S>
[[gnu::always_inline]] inline void stage_pair(float* re, float* im, std::size_t n, std::size_t h,
                                              const float* w_re, const float* w_im, cplx* out,
                                              const typename P::F& scale) {
  using F = typename P::F;
  for (std::size_t i = 0; i < n; i += 4 * h) {
    for (std::size_t j = 0; j < h; j += P::n) {
      F r0, i0, r1, i1, r2, i2, r3, i3, wr, wi;
      load_pair(r0, i0, re, im, i + j);
      load_pair(r1, i1, re, im, i + h + j);
      load_pair(r2, i2, re, im, i + 2 * h + j);
      load_pair(r3, i3, re, im, i + 3 * h + j);
      load_pair(wr, wi, w_re, w_im, h + j);
      butterfly(r0, i0, r1, i1, wr, wi);
      butterfly(r2, i2, r3, i3, wr, wi);
      load_pair(wr, wi, w_re, w_im, 2 * h + j);
      butterfly(r0, i0, r2, i2, wr, wi);
      load_pair(wr, wi, w_re, w_im, 3 * h + j);
      butterfly(r1, i1, r3, i3, wr, wi);
      put<P, S>(re, im, out, scale, i + j, r0, i0);
      put<P, S>(re, im, out, scale, i + h + j, r1, i1);
      put<P, S>(re, im, out, scale, i + 2 * h + j, r2, i2);
      put<P, S>(re, im, out, scale, i + 3 * h + j, r3, i3);
    }
  }
}

// The stages from h = 8 up: stage 8 alone where their count is odd, then
// pairs; the last pass writes the caller's buffer.
template <class P, Sink Last>
[[gnu::always_inline]] inline void later_stages(float* re, float* im, std::size_t n, const float* w_re,
                                                const float* w_im, cplx* out, float inv_n) {
  typename P::F scale;
  splat(inv_n, scale);
  std::size_t h = 8;
  if (std::countr_zero(n) % 2 == 0) {  // log2(n) − 3 stages, an odd count
    if (2 * h == n) return stage<P, Last>(re, im, n, h, w_re, w_im, out, scale);
    stage<P, Sink::kSplit>(re, im, n, h, w_re, w_im, out, scale);
    h *= 2;
  }
  for (; 4 * h < n; h *= 4) stage_pair<P, Sink::kSplit>(re, im, n, h, w_re, w_im, out, scale);
  stage_pair<P, Last>(re, im, n, h, w_re, w_im, out, scale);
}

// The whole transform of the m >= 2 P::n points at src (n of them used)
// into out, through the split arrays re and im.
template <class P>
[[gnu::always_inline]] inline void transform(const cplx* src, const std::uint32_t* bitrev, std::size_t m,
                                             std::size_t n, const float* w_re, const float* w_im, bool inverse,
                                             float* re, float* im, cplx* out) {
  gather_pass<P>(src, bitrev, m, n, w_re, w_im, re, im);
  const float inv_n = 1.0f / static_cast<float>(n);
  if (n <= 8) {
    for (std::size_t i = 0; i < n; ++i) out[i] = inverse ? cplx(re[i] * inv_n, im[i] * inv_n) : cplx(re[i], im[i]);
  } else if (inverse) {
    later_stages<P, Sink::kOutScaled>(re, im, n, w_re, w_im, out, inv_n);
  } else {
    later_stages<P, Sink::kOut>(re, im, n, w_re, w_im, out, inv_n);
  }
}

// Split real and imaginary working arrays, one per thread, grown to the
// largest transform the thread has run: the steady state allocates nothing.
float* scratch(std::size_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) throw std::invalid_argument("fft size must be a power of two");
  const std::size_t padded = std::max(n, kMaxFirstPass);
  bitrev_.resize(padded);
  int log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < log2n; ++b) r |= ((i >> b) & 1u) << (log2n - 1 - b);
    bitrev_[i] = static_cast<std::uint32_t>(r);
  }
  for (std::size_t i = n; i < padded; ++i) bitrev_[i] = static_cast<std::uint32_t>(i);

  // Each entry is evaluated directly in double, so table accuracy is
  // independent of n; stage h's entry j is the n-point twiddle k = j·n/2h.
  w_re_.assign(n, 0.0f);
  w_im_.assign(n, 0.0f);
  for (std::size_t h = 1; h < n; h <<= 1) {
    const std::size_t stride = n / (2 * h);
    for (std::size_t j = 0; j < h; ++j) {
      const std::size_t k = j * stride;
      const double ang = -2.0 * sonic::util::kPi * static_cast<double>(k) / static_cast<double>(n);
      w_re_[h + j] = static_cast<float>(std::cos(ang));
      w_im_[h + j] = static_cast<float>(std::sin(ang));
    }
  }
  w_im_inv_.resize(n);
  for (std::size_t k = 0; k < n; ++k) w_im_inv_[k] = -w_im_[k];
}

void FftPlan::run(std::span<cplx> data, bool inverse) const {
  if (data.size() != n_) throw std::invalid_argument("fft plan/data size mismatch");
  if (n_ == 1) return;  // one point: the identity, and 1/N = 1
  cplx* a = data.data();
  const float* wim = inverse ? w_im_inv_.data() : w_im_.data();
  // Transforms below the first pass's width run zero-padded: the padding
  // only ever meets itself.
  cplx small[kMaxFirstPass] = {};
  const cplx* src = a;
  if (n_ < kMaxFirstPass) {
    std::copy(a, a + n_, small);
    src = small;
  }
  util::at_width([&]<class P> {
    const std::size_t m = std::max(n_, 2 * P::n);
    float* re = scratch(2 * m);
    transform<P>(src, bitrev_.data(), m, n_, w_re_.data(), wim, inverse, re, re + m, a);
  });
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
