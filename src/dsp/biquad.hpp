// RBJ-cookbook biquad sections. The FM layer uses them for pre-/de-emphasis
// (a first-order shelf approximated with a matched biquad) and the acoustic
// channel for its speaker/microphone response.
#pragma once

#include <span>
#include <vector>

namespace sonic::dsp {

class Biquad {
 public:
  // Direct-form-I coefficients (a0 normalized to 1).
  Biquad(double b0, double b1, double b2, double a1, double a2);

  static Biquad lowpass(double f_hz, double sample_rate_hz, double q = 0.7071);
  // First-order shelving filters built from the bilinear transform of an
  // analog RC; `tau_us` is the RC time constant in microseconds (50 us or
  // 75 us for FM broadcast emphasis).
  static Biquad fm_preemphasis(double tau_us, double sample_rate_hz);
  static Biquad fm_deemphasis(double tau_us, double sample_rate_hz);

  float process(float x);
  std::vector<float> process(std::span<const float> x);
  void reset();

  double magnitude_at(double f_hz, double sample_rate_hz) const;

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double x1_ = 0, x2_ = 0, y1_ = 0, y2_ = 0;
};

}  // namespace sonic::dsp
