#include "oracles/fm_reference.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "dsp/biquad.hpp"
#include "dsp/fir.hpp"
#include "oracles/frozen_dsp.hpp"
#include "oracles/resampler_reference.hpp"
#include "oracles/ziggurat_reference.hpp"
#include "util/units.hpp"

namespace sonic::oracles {

std::vector<fm::cplx> fm_modulate_reference(std::span<const float> audio,
                                            const fm::FmParams& params) {
  frozen::FirFilter lp(dsp::design_lowpass(params.audio_lowpass_hz, params.audio_rate_hz, 63));
  std::vector<float> program = lp.process(audio);
  for (auto& s : program) {
    s = std::clamp(static_cast<float>(s * params.input_gain), -1.0f, 1.0f);
  }
  const std::vector<float> up = resample(program, params.audio_rate_hz, params.iq_rate_hz);

  std::vector<fm::cplx> iq(up.size());
  double phase = 0.0;
  const double k = util::kTwoPi * params.deviation_hz / params.iq_rate_hz;
  for (std::size_t i = 0; i < up.size(); ++i) {
    phase += k * static_cast<double>(up[i]);
    if (phase > util::kPi) phase -= util::kTwoPi;
    if (phase < -util::kPi) phase += util::kTwoPi;
    iq[i] = fm::cplx(static_cast<float>(std::cos(phase)), static_cast<float>(std::sin(phase)));
  }
  return iq;
}

std::vector<fm::cplx> rf_channel_reference(std::span<const fm::cplx> iq,
                                           const fm::RfChannelParams& params, util::Rng rng) {
  const double fading = rng.normal(0.0, params.fading_sigma_db);
  const double cnr = util::db_to_linear(params.rssi_db - params.noise_floor_db + fading);
  const auto sigma_axis = static_cast<float>(std::sqrt(1.0 / cnr / 2.0));
  ZigguratReference noise(rng);
  std::vector<fm::cplx> out(iq.size());
  for (std::size_t i = 0; i < iq.size(); ++i) {
    const float im = sigma_axis * noise.next();
    const float re = sigma_axis * noise.next();
    out[i] = iq[i] + fm::cplx(re, im);
  }
  return out;
}

std::vector<float> fm_discriminate_reference(std::span<const fm::cplx> iq,
                                             const fm::FmParams& params) {
  std::vector<float> freq(iq.size(), 0.0f);
  const double scale = params.iq_rate_hz / (util::kTwoPi * params.deviation_hz * params.input_gain);
  for (std::size_t i = 1; i < iq.size(); ++i) {
    freq[i] = static_cast<float>(std::arg(iq[i] * std::conj(iq[i - 1])) * scale);
  }
  return freq;
}

std::vector<float> fm_demodulate_arg_reference(std::span<const fm::cplx> iq,
                                               const fm::FmParams& params) {
  const auto factor = static_cast<std::size_t>(std::round(params.iq_rate_hz / params.audio_rate_hz));
  auto decim = frozen::Resampler::decimator(
      factor, dsp::design_lowpass(params.audio_lowpass_hz, params.iq_rate_hz, 63));
  auto audio = decim.push(fm_discriminate_reference(iq, params));
  const auto tail = decim.flush();
  audio.insert(audio.end(), tail.begin(), tail.end());
  return audio;
}

std::vector<float> fm_demodulate_reference(std::span<const fm::cplx> iq,
                                           const fm::FmParams& params) {
  frozen::FirFilter lp(dsp::design_lowpass(params.audio_lowpass_hz, params.iq_rate_hz, 63));
  return resample_reference(lp.process(fm_discriminate_reference(iq, params)),
                            params.audio_rate_hz / params.iq_rate_hz);
}

std::vector<float> acoustic_reference(std::span<const float> audio,
                                      const fm::AcousticParams& params, util::Rng rng) {
  // Construction-time draws, in AcousticChannel's order.
  const double d = params.distance_m;
  double trial_gain_db = 0.0;
  double wobble_phase = 0.0;
  dsp::Biquad tilt = dsp::Biquad::lowpass(12000.0, params.sample_rate_hz, 0.6);
  if (d > 0.0) {
    double gain = -20.0 * std::log10(std::max(d, params.ref_distance_m) / params.ref_distance_m);
    if (d > params.directivity_knee_m) gain -= (d - params.directivity_knee_m) * params.directivity_db_per_m;
    gain += rng.normal(0.0, params.align_sigma_db_at_1m * d);
    trial_gain_db = gain;
    wobble_phase = rng.uniform(0.0, util::kTwoPi);
  }
  std::optional<frozen::Resampler> skew;
  if (params.clock_skew_ppm > 0.0) {
    skew.emplace(1.0 + rng.uniform(-params.clock_skew_ppm, params.clock_skew_ppm) * 1e-6);
  }

  std::vector<float> out(audio.begin(), audio.end());
  double p_in = 0.0;
  for (float s : out) p_in += static_cast<double>(s) * s;
  p_in /= std::max<std::size_t>(out.size(), 1);
  if (p_in > 0.0) {
    const double sigma = std::sqrt(p_in / util::db_to_linear(d <= 0.0 ? params.cable_snr_db
                                                                      : params.ref_snr_db));
    if (d > 0.0) {
      const float g = static_cast<float>(util::db_to_amplitude(trial_gain_db));
      const double depth_db = params.wobble_depth_db_at_1m * d;
      const double w = util::kTwoPi * params.wobble_rate_hz / params.sample_rate_hz;
      for (std::size_t i = 0; i < out.size(); ++i) {
        const double wob_db =
            -0.5 * depth_db * (1.0 + std::sin(w * static_cast<double>(i) + wobble_phase));
        out[i] *= g * static_cast<float>(util::db_to_amplitude(wob_db));
      }
      out = tilt.process(out);
    }
    for (auto& s : out) s += static_cast<float>(rng.normal(0.0, sigma));
    if (skew) out = skew->push(out);
  }
  if (skew) {
    const auto tail = skew->flush();
    out.insert(out.end(), tail.begin(), tail.end());
  }
  return out;
}

}  // namespace sonic::oracles
