#include "dsp/biquad.hpp"

#include <cmath>

#include "util/units.hpp"

namespace sonic::dsp {

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

Biquad Biquad::lowpass(double f_hz, double sample_rate_hz, double q) {
  const double w0 = sonic::util::kTwoPi * f_hz / sample_rate_hz;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1 + alpha;
  return Biquad(((1 - cw) / 2) / a0, (1 - cw) / a0, ((1 - cw) / 2) / a0, (-2 * cw) / a0, (1 - alpha) / a0);
}

float Biquad::process(float x) {
  const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
  x2_ = x1_;
  x1_ = x;
  y2_ = y1_;
  y1_ = y;
  return static_cast<float>(y);
}

std::vector<float> Biquad::process(std::span<const float> x) {
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = process(x[i]);
  return out;
}

void Biquad::reset() { x1_ = x2_ = y1_ = y2_ = 0; }

}  // namespace sonic::dsp
