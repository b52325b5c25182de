#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "util/lanes.hpp"
#include "util/units.hpp"

namespace sonic::dsp {
namespace {

using V4f = util::Lanes4::F;
using util::load;
using util::splat;
using util::store;

// The radix-2 butterfly on four lanes: v = hi·w, then lo + v and lo − v,
// each lane in the float operations and order of a scalar radix-2 loop, so
// results stay bit-identical to one.
inline void butterfly(V4f& lr, V4f& li, V4f& hr, V4f& hi, V4f wr, V4f wi) {
  const V4f vr = hr * wr - hi * wi;
  const V4f vi = hr * wi + hi * wr;
  const V4f ur = lr;
  const V4f ui = li;
  lr = ur + vr;
  li = ui + vi;
  hr = ur - vr;
  hi = ui - vi;
}

// (a.re, a.im, b.re, b.im).
inline V4f pair(const cplx& a, const cplx& b) {
  float t[4];
  std::memcpy(t, &a, sizeof a);
  std::memcpy(t + 2, &b, sizeof b);
  return load(t);
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
  const std::size_t padded = std::max<std::size_t>(n, 8);
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

  // Transforms below the first pass's eight points run zero-padded: the
  // padding only ever meets itself.
  const std::size_t m = std::max<std::size_t>(n_, 8);
  cplx small[8] = {};
  const cplx* src = a;
  if (n_ < 8) {
    std::copy(a, a + n_, small);
    src = small;
  }
  float* re = scratch(2 * m);
  float* im = re + m;

  // Gather eight bit-reversed points at a time and run stages h = 1 and
  // h = 2 in registers. Stage 1 pairs positions (0,1), (2,3), (4,5), (6,7):
  // lanes lo = 0, 2, 4, 6 and hi = 1, 3, 5, 7. Stage 2 pairs (0,2), (1,3),
  // (4,6), (5,7) with twiddles j = 0, 1, 0, 1.
  const V4f w1r = splat(w_re_[1]);
  const V4f w1i = splat(wim[1]);
  const V4f w2r = n_ >= 4 ? V4f{w_re_[2], w_re_[3], w_re_[2], w_re_[3]} : splat(0.0f);
  const V4f w2i = n_ >= 4 ? V4f{wim[2], wim[3], wim[2], wim[3]} : splat(0.0f);
  for (std::size_t i = 0; i < m; i += 8) {
    const std::uint32_t* br = bitrev_.data() + i;
    const V4f lo01 = pair(src[br[0]], src[br[2]]);
    const V4f lo23 = pair(src[br[4]], src[br[6]]);
    const V4f hi01 = pair(src[br[1]], src[br[3]]);
    const V4f hi23 = pair(src[br[5]], src[br[7]]);
    V4f lr = __builtin_shufflevector(lo01, lo23, 0, 2, 4, 6);
    V4f li = __builtin_shufflevector(lo01, lo23, 1, 3, 5, 7);
    V4f hr = __builtin_shufflevector(hi01, hi23, 0, 2, 4, 6);
    V4f hi = __builtin_shufflevector(hi01, hi23, 1, 3, 5, 7);
    butterfly(lr, li, hr, hi, w1r, w1i);  // lo = y0 y2 y4 y6, hi = y1 y3 y5 y7
    if (n_ < 4) {
      store(re + i, __builtin_shufflevector(lr, hr, 0, 4, 1, 5));
      store(im + i, __builtin_shufflevector(li, hi, 0, 4, 1, 5));
      continue;
    }
    V4f ar = __builtin_shufflevector(lr, hr, 0, 4, 2, 6);  // y0 y1 y4 y5
    V4f ai = __builtin_shufflevector(li, hi, 0, 4, 2, 6);
    V4f br2 = __builtin_shufflevector(lr, hr, 1, 5, 3, 7);  // y2 y3 y6 y7
    V4f bi = __builtin_shufflevector(li, hi, 1, 5, 3, 7);
    butterfly(ar, ai, br2, bi, w2r, w2i);  // a = z0 z1 z4 z5, b = z2 z3 z6 z7
    store(re + i, __builtin_shufflevector(ar, br2, 0, 1, 4, 5));
    store(re + i + 4, __builtin_shufflevector(ar, br2, 2, 3, 6, 7));
    store(im + i, __builtin_shufflevector(ai, bi, 0, 1, 4, 5));
    store(im + i + 4, __builtin_shufflevector(ai, bi, 2, 3, 6, 7));
  }

  // Stages h >= 4: four butterflies per step, twiddles contiguous.
  for (std::size_t h = 4; h < n_; h <<= 1) {
    const float* wr = w_re_.data() + h;
    const float* wi = wim + h;
    for (std::size_t i = 0; i < n_; i += 2 * h) {
      float* lo_r = re + i;
      float* lo_i = im + i;
      float* hi_r = re + i + h;
      float* hi_i = im + i + h;
      for (std::size_t j = 0; j < h; j += 4) {
        V4f lr = load(lo_r + j), li = load(lo_i + j);
        V4f hr = load(hi_r + j), hi = load(hi_i + j);
        butterfly(lr, li, hr, hi, load(wr + j), load(wi + j));
        store(lo_r + j, lr);
        store(lo_i + j, li);
        store(hi_r + j, hr);
        store(hi_i + j, hi);
      }
    }
  }

  // Interleave back, with the inverse's 1/N on each part.
  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n_);
    for (std::size_t i = 0; i < n_; ++i) a[i] = cplx(re[i] * inv_n, im[i] * inv_n);
  } else {
    for (std::size_t i = 0; i < n_; ++i) a[i] = cplx(re[i], im[i]);
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
