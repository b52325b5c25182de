#include "fm/acoustic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fast_math.hpp"
#include "util/lanes.hpp"
#include "util/units.hpp"

namespace sonic::fm {
namespace {

namespace fastmath = dsp::fastmath;

// The slow fading over out[0, n), padded to whole groups of P::n: sample
// index + i is scaled by g · 2^(exponent_per_unit · (1 + sin(w · (index + i)
// + phase))), P::n samples at a time.
template <class P>
[[gnu::always_inline]] inline void wobble_lanes(float* out, std::size_t n, std::size_t index, double w, double phase,
                                                float exponent_per_unit, float g) {
  using F = typename P::F;
  for (std::size_t i = 0; i < n; i += P::n) {
    double theta[P::n];
    for (std::size_t j = 0; j < P::n; ++j) theta[j] = w * static_cast<double>(index + i + j) + phase;
    F sin_theta, cos_theta, wobble, x;
    fastmath::sincos<P>(theta, sin_theta, cos_theta);
    fastmath::exp2<P>(exponent_per_unit * (1.0f + sin_theta), wobble);
    util::load_to(x, out + i);
    util::store_from(out + i, x * (g * wobble));
  }
}

}  // namespace

AcousticChannel::AcousticChannel(AcousticParams params, sonic::util::Rng rng, util::SimdWidth width)
    : params_(params),
      rng_(rng),
      width_(util::checked_simd_width(width)),
      // Gentle roll-off from ~12 kHz: cheap phone mics lose the top octave.
      tilt_(dsp::Biquad::lowpass(12000.0, AcousticParams::sample_rate_hz, 0.6)) {
  if (params_.clock_skew_ppm < 0.0) {
    throw std::invalid_argument(
        "AcousticParams::clock_skew_ppm must be >= 0 (it bounds the symmetric "
        "per-trial skew draw)");
  }

  if (params_.distance_m > 0.0) {
    const double d = params_.distance_m;
    double gain = -20.0 * std::log10(std::max(d, params_.ref_distance_m) / params_.ref_distance_m);
    if (d > params_.directivity_knee_m) {
      gain -= (d - params_.directivity_knee_m) * params_.directivity_db_per_m;
    }
    // Per-trial alignment: spread grows linearly with distance.
    const double align_sigma = params_.align_sigma_db_at_1m * d;
    gain += rng_.normal(0.0, align_sigma);
    trial_gain_db_ = gain;

    // Slow fading: sinusoidal wobble with a random phase drawn once per
    // trial, so chunked processing continues the same fade trajectory.
    wobble_phase_ = rng_.uniform(0.0, sonic::util::kTwoPi);
  }

  // Sample-clock skew between transmitter DAC and receiver ADC: one epsilon
  // per trial, held by a streaming resampler so chunk boundaries don't
  // re-draw the skew or reset the interpolation window.
  if (params_.clock_skew_ppm > 0.0) {
    const double eps = rng_.uniform(-params_.clock_skew_ppm, params_.clock_skew_ppm) * 1e-6;
    skew_.emplace(1.0 + eps, width_);
  }
}

std::vector<float> AcousticChannel::process(std::span<const float> audio) {
  std::vector<float> out(audio.begin(), audio.end());
  if (!noise_sigma_.has_value()) {
    double p_in = 0.0;
    for (float s : out) p_in += static_cast<double>(s) * s;
    p_in /= std::max<std::size_t>(out.size(), 1);
    // Silent lead-in: pass through untouched until the signal appears (and
    // with it a power anchor for the ambient-noise level).
    if (p_in <= 0.0) return out;
    const double anchor_db =
        params_.distance_m <= 0.0 ? params_.cable_snr_db : params_.ref_snr_db;
    noise_sigma_ = std::sqrt(p_in / sonic::util::db_to_linear(anchor_db));
  }

  if (params_.distance_m > 0.0) {
    const float g = static_cast<float>(sonic::util::db_to_amplitude(trial_gain_db_));
    // Slow fading: depth grows with distance (hand-held phone, moving
    // listener); the phase and running sample index persist across chunks.
    // The gain 10^(wob_db / 20) is taken as 2^(wob_db · log2(10) / 20), with
    // wob_db = −depth_db / 2 · (1 + sin(w · index + phase)), four or eight
    // samples at a time.
    const double depth_db = params_.wobble_depth_db_at_1m * params_.distance_m;
    const double w = sonic::util::kTwoPi * params_.wobble_rate_hz / params_.sample_rate_hz;
    const float exponent_per_unit = static_cast<float>(-0.5 * depth_db * std::log2(10.0) / 20.0);
    const std::size_t n = out.size();
    out.resize((n + 7) / 8 * 8, 0.0f);  // whole groups of eight
    util::at_width(width_, [&]<class P> {
      wobble_lanes<P>(out.data(), n, wobble_index_, w, wobble_phase_, exponent_per_unit, g);
    });
    out.resize(n);
    wobble_index_ += n;
    out = tilt_.process(out);
  }
  // Ambient noise, anchored so SNR at the reference distance equals
  // ref_snr_db for a unit-gain trial; in cable mode, the tiny residual noise.
  std::vector<float> noise(out.size());
  rng_.fill_normal(noise, 0.0, *noise_sigma_);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += noise[i];

  if (skew_.has_value()) out = skew_->push(out);
  return out;
}

std::vector<float> AcousticChannel::finish() {
  if (!skew_.has_value()) return {};
  return skew_->flush();
}

}  // namespace sonic::fm
