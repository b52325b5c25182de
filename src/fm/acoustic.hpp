// Speaker-to-microphone ("over-the-air") channel model.
//
// In the paper's Figure 4(a) setup, the FM receiver is an ordinary radio and
// the SONIC client listens through its microphone across 0 (cable/internal
// tuner) to 1.1 m of air. The operative impairments at these distances are:
//
//   * spherical spreading loss relative to a 10 cm reference,
//   * a directivity knee: beyond ~0.8 m the direct path drops below the
//     reverberant field and loss grows much faster than 1/d,
//   * speaker/microphone alignment: the paper explicitly notes alignment
//     "has a significant impact" and was not controlled — modelled as a
//     per-trial random gain whose spread grows with distance,
//   * slow fading ("wobble") as the user holds the phone, which is what
//     makes losses partial rather than all-or-nothing,
//   * constant ambient noise, band tilt from the mic response, and a small
//     sample-clock skew between the radio's DAC and the phone's ADC.
//
// distance_m <= 0 selects cable mode (internal tuner / audio jack):
// essentially transparent, matching the paper's 0% cable loss.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "dsp/biquad.hpp"
#include "dsp/resampler.hpp"
#include "util/rng.hpp"

namespace sonic::fm {

struct AcousticParams {
  double distance_m = 0.0;          // 0 = cable / internal tuner
  double clock_skew_ppm = 30.0;     // uniform in [-ppm, +ppm] per trial

  // Calibration constants. They make the sonic-10k profile reproduce
  // Fig. 4(a): zero loss through 0.5 m, ~10-20% median loss at 1 m, mostly
  // lost at 1.1 m, and total loss beyond ~1.2 m (see
  // bench/fig4a_distance_loss).
  static constexpr double ref_distance_m = 0.1;      // reference for the SNR anchor
  static constexpr double ref_snr_db = 47.3;         // SNR at the reference distance
  static constexpr double cable_snr_db = 55.0;       // residual noise in cable mode
  static constexpr double directivity_knee_m = 0.8;  // where the direct path starts losing
  static constexpr double directivity_db_per_m = 35.0;
  static constexpr double align_sigma_db_at_1m = 2.0;   // per-trial alignment gain spread
  static constexpr double wobble_depth_db_at_1m = 9.0;  // slow fading depth
  static constexpr double wobble_rate_hz = 2.5;
  static constexpr double sample_rate_hz = 44100.0;
};

// One trial of the channel, streamable: all per-trial draws (alignment gain,
// wobble phase, clock-skew epsilon) happen at construction, and the mic
// band-tilt biquad, the skew resampler, and the wobble sample index live as
// members — so feeding the audio in chunks is sample-identical to feeding it
// whole, given the same first chunk. The ambient-noise level is anchored to
// the signal power of the first non-silent chunk (for a single batch call
// that is the whole buffer, the historical behaviour); later chunks reuse
// that anchor instead of re-measuring, so quiet stretches in a long stream
// don't modulate the noise floor.
//
// Throws std::invalid_argument when clock_skew_ppm is negative (it bounds a
// symmetric per-trial draw; a negative bound silently disabled skew).
//
// The wobble's sincos and exp2 and the skew resampler run the instance of
// the vector kernels that util::simd_width() names on the calling thread;
// both give the same bits.
class AcousticChannel {
 public:
  AcousticChannel(AcousticParams params, sonic::util::Rng rng);

  // Feed one chunk (or the whole buffer); returns the audible result. With
  // clock skew enabled the output length trails the input by the skew
  // resampler's kernel reach until finish().
  std::vector<float> process(std::span<const float> audio);
  // End of stream: drains the skew resampler's tail (empty without skew).
  std::vector<float> finish();

  // Mean channel gain for the current trial, dB (diagnostics/benches).
  double trial_gain_db() const { return trial_gain_db_; }

 private:
  AcousticParams params_;
  sonic::util::Rng rng_;
  double trial_gain_db_ = 0.0;
  double wobble_phase_ = 0.0;
  std::size_t wobble_index_ = 0;     // absolute sample position in the trial
  std::optional<double> noise_sigma_;  // latched from the first audible chunk
  dsp::Biquad tilt_;                 // mic band tilt, run when distance_m > 0
  std::optional<dsp::Resampler> skew_;
};

}  // namespace sonic::fm
