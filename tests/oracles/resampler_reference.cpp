#include "oracles/resampler_reference.hpp"

#include <algorithm>
#include <cmath>

#include "oracles/frozen_dsp.hpp"
#include "util/units.hpp"

namespace sonic::oracles {
namespace {

double sinc(double x) {
  if (std::fabs(x) < 1e-12) return 1.0;
  return std::sin(util::kPi * x) / (util::kPi * x);
}

double kernel(double x, double cutoff, double half_width) {
  if (std::fabs(x) >= half_width) return 0.0;
  const double window = 0.5 + 0.5 * std::cos(util::kPi * x / half_width);
  return cutoff * sinc(cutoff * x) * window;
}

}  // namespace

std::vector<float> resample_reference(std::span<const float> input, double ratio) {
  if (input.empty()) return {};
  const double cutoff = ratio >= 1.0 ? 1.0 : ratio;
  const double half_width = 4.0 / cutoff;
  const long reach = static_cast<long>(std::ceil(half_width));
  const std::size_t out_len =
      static_cast<std::size_t>(std::floor(static_cast<double>(input.size()) * ratio));
  std::vector<float> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) {
    const double src = static_cast<double>(i) / ratio;
    const long center = static_cast<long>(std::floor(src));
    const long lo = std::max<long>(center - reach, 0);
    const long hi = std::min<long>(center + reach, static_cast<long>(input.size()) - 1);
    double acc = 0.0;
    for (long k = lo; k <= hi; ++k) {
      acc += static_cast<double>(input[static_cast<std::size_t>(k)]) *
             kernel(src - static_cast<double>(k), cutoff, half_width);
    }
    out[i] = static_cast<float>(acc);
  }
  return out;
}

std::vector<float> resample(std::span<const float> input, double in_rate, double out_rate) {
  return frozen::Resampler(out_rate / in_rate).process(input);
}

}  // namespace sonic::oracles
