#include "fm/fm_modem.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/fast_math.hpp"
#include "dsp/fir.hpp"
#include "dsp/resampler.hpp"
#include "util/lanes.hpp"
#include "util/units.hpp"

namespace sonic::fm {
namespace {

namespace fastmath = dsp::fastmath;

constexpr auto kDecimation = static_cast<std::size_t>(FmParams::iq_rate_hz / FmParams::audio_rate_hz);
static_assert(kDecimation * FmParams::audio_rate_hz == FmParams::iq_rate_hz,
              "FmParams::iq_rate_hz must be an integer multiple of audio_rate_hz");

// Phase integration, d(phi)/dt = 2*pi*deviation*m(t), is a sequential pass
// in double over a cache-sized block; cos and sin of the block's phases are
// then taken P::n at a time and interleaved into the IQ at `out`, padded to
// whole groups of P::n. Each lane's sincos depends only on its own phase,
// so the block boundaries and the pack change nothing.
template <class P>
[[gnu::always_inline]] inline void integrate_lanes(const float* up, std::size_t size, double& phase, float* out) {
  using F = typename P::F;
  constexpr std::size_t kBlock = 256;
  double phases[kBlock] = {};
  const double k = sonic::util::kTwoPi * FmParams::deviation_hz / FmParams::iq_rate_hz;
  for (std::size_t b = 0; b < size; b += kBlock) {
    const std::size_t n = std::min(kBlock, size - b);
    for (std::size_t i = 0; i < n; ++i) {
      phase += k * static_cast<double>(up[b + i]);
      if (phase > sonic::util::kPi) phase -= sonic::util::kTwoPi;
      if (phase < -sonic::util::kPi) phase += sonic::util::kTwoPi;
      phases[i] = phase;
    }
    for (std::size_t i = 0; i < n; i += P::n) {
      F s, c, lo, hi;
      fastmath::sincos<P>(phases + i, s, c);
      P::interleave(c, s, lo, hi);
      util::store_from(out + 2 * (b + i), lo);
      util::store_from(out + 2 * (b + i) + P::n, hi);
    }
  }
}

// float(atan2(im, re) * scale) of z = cur·conj(prev) for P::n samples; the
// product takes the same float operations as std::complex's.
template <class P>
[[gnu::always_inline]] inline void discriminate(const cplx* cur, const cplx* prev, double scale, float* out) {
  using F = typename P::F;
  using D = typename P::D;
  const float* c = reinterpret_cast<const float*>(cur);
  const float* p = reinterpret_cast<const float*>(prev);
  F c_lo, c_hi, p_lo, p_hi, cr, ci, pr, pi, dphi;
  util::load_to(c_lo, c);
  util::load_to(c_hi, c + P::n);
  util::load_to(p_lo, p);
  util::load_to(p_hi, p + P::n);
  P::deinterleave(c_lo, c_hi, cr, ci);
  P::deinterleave(p_lo, p_hi, pr, pi);
  fastmath::atan2<P>(ci * pr - cr * pi, cr * pr + ci * pi, dphi);
  D lo, hi;
  P::widen(dphi, lo, hi);
  F scaled;
  P::narrow(lo * scale, hi * scale, scaled);
  util::store_from(out, scaled);
}

// Samples [i, min(i + P::n, n)) of iq through copies: the head, whose first
// predecessor is `prev`, and the tail.
template <class P>
[[gnu::always_inline]] inline void discriminate_partial(const cplx* iq, std::size_t n, std::size_t i, cplx prev,
                                                        double scale, float* freq) {
  cplx cur[P::n] = {}, before[P::n] = {};
  float lanes[P::n] = {};
  const std::size_t m = std::min(P::n, n - i);
  for (std::size_t j = 0; j < m; ++j) {
    cur[j] = iq[i + j];
    before[j] = i + j == 0 ? prev : iq[i + j - 1];
  }
  discriminate<P>(cur, before, scale, lanes);
  std::copy_n(lanes, m, freq + i);
}

// The discriminator over iq[0, n) (n > 0), P::n samples at a time; every
// sample runs the same lane-wise kernel.
template <class P>
[[gnu::always_inline]] inline void discriminate_all(const cplx* iq, std::size_t n, cplx prev, double scale,
                                                    float* freq) {
  discriminate_partial<P>(iq, n, 0, prev, scale, freq);
  std::size_t i = P::n;
  for (; i + P::n <= n; i += P::n) discriminate<P>(iq + i, iq + i - 1, scale, freq + i);
  if (i < n) discriminate_partial<P>(iq, n, i, prev, scale, freq);
}

}  // namespace

std::vector<float> FmModulator::program(std::span<const float> audio) const {
  // Band-limit to the mono channel.
  dsp::FirFilter lp(dsp::design_lowpass(FmParams::audio_lowpass_hz, FmParams::audio_rate_hz, 63), width_);
  std::vector<float> program = lp.process(audio);
  // Headroom + limiter: keep instantaneous deviation within budget.
  for (auto& s : program) {
    s = std::clamp(static_cast<float>(s * FmParams::input_gain), -1.0f, 1.0f);
  }
  return program;
}

void FmModulator::integrate(std::span<const float> up, double& phase, std::vector<cplx>& iq) const {
  iq.resize((up.size() + 7) / 8 * 8);
  float* out = reinterpret_cast<float*>(iq.data());
  util::at_width(width_, [&]<class P> { integrate_lanes<P>(up.data(), up.size(), phase, out); });
}

std::vector<cplx> FmModulator::modulate(std::span<const float> audio) const {
  std::vector<cplx> iq;
  iq.reserve(audio.size() * kDecimation);
  modulate(audio, [&](std::span<const cplx> block) { iq.insert(iq.end(), block.begin(), block.end()); });
  return iq;
}

FmDemodulator::FmDemodulator(FmParams, util::SimdWidth width)
    : width_(util::checked_simd_width(width)),
      decim_(dsp::Resampler::decimator(
          kDecimation, dsp::design_lowpass(FmParams::audio_lowpass_hz, FmParams::iq_rate_hz, 63), width)) {}

std::vector<float> FmDemodulator::demodulate(std::span<const cplx> iq) {
  // Quadrature discriminator: instantaneous frequency from the phase delta,
  // four or eight samples at a time. The reference sample carries across
  // calls, and every sample runs the same lane-wise kernel, so chunk
  // boundaries change nothing. The very first sample of a stream has no
  // predecessor, so its delta is dropped (zero frequency) rather than
  // measured against an arbitrary phase.
  const std::size_t n = iq.size();
  std::vector<float> freq(n);
  const double scale =
      FmParams::iq_rate_hz / (sonic::util::kTwoPi * FmParams::deviation_hz * FmParams::input_gain);
  if (n > 0) {
    util::at_width(width_, [&]<class P> { discriminate_all<P>(iq.data(), n, prev_, scale, freq.data()); });
    if (!have_prev_) freq[0] = 0.0f;
    have_prev_ = true;
    prev_ = iq.back();
  }
  // Band-limit and decimate to the audio rate in one stage; it keeps its
  // state so chunk boundaries are seamless.
  return decim_.push(freq);
}

std::vector<float> FmDemodulator::finish() { return decim_.flush(); }

void FmDemodulator::reset() {
  prev_ = cplx(1.0f, 0.0f);
  have_prev_ = false;
  decim_.reset();
}

namespace {

// sqrt(1 / (2 CNR)) for unit carrier power, with the trial's fading drawn
// from `rng`.
float noise_sigma_per_axis(double cnr_db, sonic::util::Rng& rng) {
  const double fading = rng.normal(0.0, RfChannelParams::fading_sigma_db);
  return static_cast<float>(std::sqrt(0.5 / sonic::util::db_to_linear(cnr_db + fading)));
}

}  // namespace

RfChannel::RfChannel(RfChannelParams params, sonic::util::Rng rng)
    : params_(params),
      sigma_axis_(noise_sigma_per_axis(cnr_db(), rng)),
      noise_(rng) {}

std::vector<cplx> RfChannel::process(std::span<const cplx> iq) {
  std::vector<cplx> out(iq.begin(), iq.end());
  add_noise(out);
  return out;
}

void RfChannel::add_noise(std::span<cplx> iq) {
  constexpr std::size_t kBlock = 256;  // IQ samples per noise fill
  float z[2 * kBlock];
  for (std::size_t pos = 0; pos < iq.size(); pos += kBlock) {
    const std::size_t n = std::min(kBlock, iq.size() - pos);
    noise_.fill(std::span<float>(z, 2 * n));
    cplx* x = iq.data() + pos;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += cplx(sigma_axis_ * z[2 * i + 1], sigma_axis_ * z[2 * i]);
    }
  }
}

}  // namespace sonic::fm
