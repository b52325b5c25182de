#include "fm/fm_modem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/biquad.hpp"
#include "dsp/fir.hpp"
#include "dsp/resampler.hpp"
#include "util/units.hpp"

namespace sonic::fm {
namespace {

std::size_t decimation_factor(const FmParams& p) {
  const double ratio = p.iq_rate_hz / p.audio_rate_hz;
  const double factor = std::round(ratio);
  if (!(factor >= 1.0) || std::fabs(ratio - factor) > 1e-9 * ratio) {
    throw std::invalid_argument("FmParams::iq_rate_hz must be an integer multiple of audio_rate_hz");
  }
  return static_cast<std::size_t>(factor);
}

}  // namespace

FmModulator::FmModulator(FmParams params) : params_(params) {}

std::vector<cplx> FmModulator::modulate(std::span<const float> audio) const {
  // Pre-emphasis, band-limit to the mono channel, upsample to the IQ rate.
  std::vector<float> program(audio.begin(), audio.end());
  if (params_.emphasis_tau_us > 0) {
    auto pre = dsp::Biquad::fm_preemphasis(params_.emphasis_tau_us, params_.audio_rate_hz);
    // Normalize so a mid-band tone keeps unit gain (pre-emphasis boosts
    // highs; without normalization the deviation budget is blown).
    const double mid_gain = pre.magnitude_at(3000.0, params_.audio_rate_hz);
    program = pre.process(program);
    for (auto& s : program) s = static_cast<float>(s / mid_gain);
  }
  dsp::FirFilter lp(dsp::design_lowpass(params_.audio_lowpass_hz, params_.audio_rate_hz, 63));
  program = lp.process(program);
  // Headroom + limiter: keep instantaneous deviation within budget.
  for (auto& s : program) {
    s = std::clamp(static_cast<float>(s * params_.input_gain), -1.0f, 1.0f);
  }
  std::vector<float> up = dsp::resample(program, params_.audio_rate_hz, params_.iq_rate_hz);

  // Phase integration: d(phi)/dt = 2*pi*deviation*m(t).
  std::vector<cplx> iq(up.size());
  double phase = 0.0;
  const double k = sonic::util::kTwoPi * params_.deviation_hz / params_.iq_rate_hz;
  for (std::size_t i = 0; i < up.size(); ++i) {
    phase += k * static_cast<double>(up[i]);
    if (phase > sonic::util::kPi) phase -= sonic::util::kTwoPi;
    if (phase < -sonic::util::kPi) phase += sonic::util::kTwoPi;
    iq[i] = cplx(static_cast<float>(std::cos(phase)), static_cast<float>(std::sin(phase)));
  }
  return iq;
}

FmDemodulator::FmDemodulator(FmParams params)
    : params_(params),
      decim_(dsp::Resampler::decimator(
          decimation_factor(params_),
          dsp::design_lowpass(params_.audio_lowpass_hz, params_.iq_rate_hz, 63))),
      de_emphasis_(params_.emphasis_tau_us > 0
                       ? dsp::Biquad::fm_deemphasis(params_.emphasis_tau_us, params_.audio_rate_hz)
                       : dsp::Biquad(1.0, 0.0, 0.0, 0.0, 0.0)),
      de_emphasis_on_(params_.emphasis_tau_us > 0) {
  if (de_emphasis_on_) {
    de_mid_gain_ = de_emphasis_.magnitude_at(3000.0, params_.audio_rate_hz);
  }
}

std::vector<float> FmDemodulator::postprocess(std::vector<float> audio) {
  if (de_emphasis_on_) {
    audio = de_emphasis_.process(audio);
    for (auto& s : audio) s = static_cast<float>(s / de_mid_gain_);
  }
  return audio;
}

std::vector<float> FmDemodulator::demodulate(std::span<const cplx> iq) {
  // Quadrature discriminator: instantaneous frequency from the phase delta.
  // The reference sample carries across calls; the very first sample of a
  // stream has no predecessor, so its delta is dropped (zero frequency)
  // rather than measured against an arbitrary phase.
  std::vector<float> freq(iq.size(), 0.0f);
  const double scale =
      params_.iq_rate_hz / (sonic::util::kTwoPi * params_.deviation_hz * params_.input_gain);
  for (std::size_t i = 0; i < iq.size(); ++i) {
    const cplx cur = iq[i];
    if (have_prev_) {
      const float dphi = std::arg(cur * std::conj(prev_));
      freq[i] = static_cast<float>(dphi * scale);
    } else {
      have_prev_ = true;
    }
    prev_ = cur;
  }
  // Band-limit and decimate to the audio rate in one stage; it keeps its
  // state so chunk boundaries are seamless.
  return postprocess(decim_.push(freq));
}

std::vector<float> FmDemodulator::finish() { return postprocess(decim_.flush()); }

void FmDemodulator::reset() {
  prev_ = cplx(1.0f, 0.0f);
  have_prev_ = false;
  decim_.reset();
  de_emphasis_.reset();
}

RfChannel::RfChannel(RfChannelParams params, sonic::util::Rng rng) : params_(params), rng_(rng) {}

std::vector<cplx> RfChannel::process(std::span<const cplx> iq) {
  // Empty spans would otherwise divide by zero below and seed the AWGN with
  // a NaN noise power.
  if (iq.empty()) return {};

  double p_sig = 0.0;
  for (const auto& s : iq) p_sig += std::norm(s);
  p_sig /= static_cast<double>(iq.size());

  const double fading = params_.fading_sigma_db > 0 ? rng_.normal(0.0, params_.fading_sigma_db) : 0.0;
  const double cnr = sonic::util::db_to_linear(cnr_db() + fading);
  const double p_noise = p_sig / cnr;
  const double sigma_axis = std::sqrt(p_noise / 2.0);

  std::vector<cplx> out(iq.size());
  for (std::size_t i = 0; i < iq.size(); ++i) {
    out[i] = iq[i] + cplx(static_cast<float>(rng_.normal(0.0, sigma_axis)),
                          static_cast<float>(rng_.normal(0.0, sigma_axis)));
  }
  return out;
}

}  // namespace sonic::fm
