// RBJ-cookbook biquad sections: the acoustic channel's microphone band tilt
// is a low-pass one.
#pragma once

#include <span>
#include <vector>

namespace sonic::dsp {

class Biquad {
 public:
  // Direct-form-I coefficients (a0 normalized to 1).
  Biquad(double b0, double b1, double b2, double a1, double a2);

  static Biquad lowpass(double f_hz, double sample_rate_hz, double q = 0.7071);

  float process(float x);
  std::vector<float> process(std::span<const float> x);
  void reset();

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double x1_ = 0, x2_ = 0, y1_ = 0, y2_ = 0;
};

}  // namespace sonic::dsp
