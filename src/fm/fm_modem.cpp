#include "fm/fm_modem.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/fast_math.hpp"
#include "dsp/fir.hpp"
#include "dsp/resampler.hpp"
#include "util/units.hpp"

namespace sonic::fm {
namespace {

namespace fastmath = dsp::fastmath;
using fastmath::V4f;

constexpr auto kDecimation = static_cast<std::size_t>(FmParams::iq_rate_hz / FmParams::audio_rate_hz);
static_assert(kDecimation * FmParams::audio_rate_hz == FmParams::iq_rate_hz,
              "FmParams::iq_rate_hz must be an integer multiple of audio_rate_hz");

// float(atan2(im, re) * scale) of z = cur·conj(prev) for four samples; the
// product takes the same float operations as std::complex's.
void discriminate4(const cplx* cur, const cplx* prev, double scale, float* out) {
  typedef double V4d __attribute__((vector_size(32)));
  const float* c = reinterpret_cast<const float*>(cur);
  const float* p = reinterpret_cast<const float*>(prev);
  const V4f c01 = fastmath::load(c), c23 = fastmath::load(c + 4);
  const V4f p01 = fastmath::load(p), p23 = fastmath::load(p + 4);
  const V4f cr = __builtin_shufflevector(c01, c23, 0, 2, 4, 6);
  const V4f ci = __builtin_shufflevector(c01, c23, 1, 3, 5, 7);
  const V4f pr = __builtin_shufflevector(p01, p23, 0, 2, 4, 6);
  const V4f pi = __builtin_shufflevector(p01, p23, 1, 3, 5, 7);
  const V4f dphi = fastmath::atan2(ci * pr - cr * pi, cr * pr + ci * pi);
  fastmath::store(out, __builtin_convertvector(__builtin_convertvector(dphi, V4d) * scale, V4f));
}

}  // namespace

std::vector<float> FmModulator::program(std::span<const float> audio) {
  // Band-limit to the mono channel.
  dsp::FirFilter lp(dsp::design_lowpass(FmParams::audio_lowpass_hz, FmParams::audio_rate_hz, 63));
  std::vector<float> program = lp.process(audio);
  // Headroom + limiter: keep instantaneous deviation within budget.
  for (auto& s : program) {
    s = std::clamp(static_cast<float>(s * FmParams::input_gain), -1.0f, 1.0f);
  }
  return program;
}

void FmModulator::integrate(std::span<const float> up, double& phase, std::vector<cplx>& iq) {
  // Phase integration, d(phi)/dt = 2*pi*deviation*m(t), is a sequential
  // pass in double over a cache-sized block; cos and sin of the block's
  // phases are then taken four at a time and interleaved into the IQ. Each
  // lane's sincos depends only on its own phase, so the block boundaries
  // change nothing.
  iq.resize((up.size() + 3) / 4 * 4);
  float* out = reinterpret_cast<float*>(iq.data());
  constexpr std::size_t kBlock = 256;
  double phases[kBlock] = {};
  const double k = sonic::util::kTwoPi * FmParams::deviation_hz / FmParams::iq_rate_hz;
  for (std::size_t b = 0; b < up.size(); b += kBlock) {
    const std::size_t n = std::min(kBlock, up.size() - b);
    for (std::size_t i = 0; i < n; ++i) {
      phase += k * static_cast<double>(up[b + i]);
      if (phase > sonic::util::kPi) phase -= sonic::util::kTwoPi;
      if (phase < -sonic::util::kPi) phase += sonic::util::kTwoPi;
      phases[i] = phase;
    }
    for (std::size_t i = 0; i < n; i += 4) {
      V4f s, c;
      fastmath::sincos(phases + i, s, c);
      fastmath::store(out + 2 * (b + i), __builtin_shufflevector(c, s, 0, 4, 1, 5));
      fastmath::store(out + 2 * (b + i) + 4, __builtin_shufflevector(c, s, 2, 6, 3, 7));
    }
  }
}

std::vector<cplx> FmModulator::modulate(std::span<const float> audio) const {
  std::vector<cplx> iq;
  iq.reserve(audio.size() * kDecimation);
  modulate(audio, [&](std::span<const cplx> block) { iq.insert(iq.end(), block.begin(), block.end()); });
  return iq;
}

FmDemodulator::FmDemodulator(FmParams)
    : decim_(dsp::Resampler::decimator(
          kDecimation, dsp::design_lowpass(FmParams::audio_lowpass_hz, FmParams::iq_rate_hz, 63))) {}

std::vector<float> FmDemodulator::demodulate(std::span<const cplx> iq) {
  // Quadrature discriminator: instantaneous frequency from the phase delta,
  // four samples at a time. The reference sample carries across calls, and
  // every sample runs the same lane-wise kernel, so chunk boundaries change
  // nothing. The very first sample of a stream has no predecessor, so its
  // delta is dropped (zero frequency) rather than measured against an
  // arbitrary phase.
  const std::size_t n = iq.size();
  std::vector<float> freq(n);
  const double scale =
      FmParams::iq_rate_hz / (sonic::util::kTwoPi * FmParams::deviation_hz * FmParams::input_gain);
  // Samples [i, min(i + 4, n)) through copies: the head (whose first
  // predecessor is prev_) and the tail.
  const auto partial = [&](std::size_t i) {
    cplx cur[4] = {}, prev[4] = {};
    float lanes[4] = {};
    const std::size_t m = std::min<std::size_t>(4, n - i);
    for (std::size_t j = 0; j < m; ++j) {
      cur[j] = iq[i + j];
      prev[j] = i + j == 0 ? prev_ : iq[i + j - 1];
    }
    discriminate4(cur, prev, scale, lanes);
    std::copy_n(lanes, m, freq.begin() + static_cast<std::ptrdiff_t>(i));
  };
  if (n > 0) {
    partial(0);
    std::size_t i = 4;
    for (; i + 4 <= n; i += 4) discriminate4(&iq[i], &iq[i - 1], scale, &freq[i]);
    if (i < n) partial(i);
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
