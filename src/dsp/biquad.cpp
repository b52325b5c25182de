#include "dsp/biquad.hpp"

#include <cmath>
#include <complex>

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

Biquad Biquad::fm_preemphasis(double tau_us, double sample_rate_hz) {
  // Analog H(s) = 1 + s*tau, discretized by bilinear transform. The analog
  // response grows without bound, so clamp with the sampling prewarp.
  const double tau = tau_us * 1e-6;
  const double k = 2.0 * sample_rate_hz;
  // H(z) = (1 + tau*k*(1 - z^-1)/(1 + z^-1)) = [(1+tau*k) + (1-tau*k) z^-1] / (1 + z^-1)
  const double b0 = 1 + tau * k;
  const double b1 = 1 - tau * k;
  // First-order: a1 = 1, a2 = 0, b2 = 0. Normalize so high-frequency gain is finite as-is.
  return Biquad(b0, b1, 0.0, 1.0, 0.0);
}

Biquad Biquad::fm_deemphasis(double tau_us, double sample_rate_hz) {
  const double tau = tau_us * 1e-6;
  const double k = 2.0 * sample_rate_hz;
  // Inverse of the above: H(z) = (1 + z^-1) / [(1+tau*k) + (1-tau*k) z^-1]
  const double a0 = 1 + tau * k;
  return Biquad(1.0 / a0, 1.0 / a0, 0.0, (1 - tau * k) / a0, 0.0);
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

double Biquad::magnitude_at(double f_hz, double sample_rate_hz) const {
  const double w = sonic::util::kTwoPi * f_hz / sample_rate_hz;
  const std::complex<double> z1(std::cos(-w), std::sin(-w));
  const std::complex<double> z2 = z1 * z1;
  return std::abs((b0_ + b1_ * z1 + b2_ * z2) / (1.0 + a1_ * z1 + a2_ * z2));
}

}  // namespace sonic::dsp
