#include "oracles/ziggurat_reference.hpp"

#include <cmath>

namespace sonic::oracles {
namespace {

constexpr double kR = 3.6541528853610088;
constexpr double kV = 0.00492867323399;

double f(double x) { return std::exp(-0.5 * x * x); }

}  // namespace

ZigguratReference::ZigguratReference(util::Rng rng)
    : main_(rng), side_(rng.fork(util::ZigguratNormal::kSideStream)) {
  x_[0] = kV / f(kR);
  x_[1] = kR;
  for (int i = 1; i < 255; ++i) x_[i + 1] = std::sqrt(-2.0 * std::log(kV / x_[i] + f(x_[i])));
  x_[256] = 0.0;
}

float ZigguratReference::next() {
  if (have_high_) {
    have_high_ = false;
    return deviate(high_);
  }
  const std::uint64_t draw = main_.next();
  high_ = static_cast<std::uint32_t>(draw >> 32);
  have_high_ = true;
  return deviate(static_cast<std::uint32_t>(draw));
}

float ZigguratReference::deviate(std::uint32_t c) {
  for (;;) {
    const int layer = static_cast<int>(c >> 24);
    const bool negative = ((c >> 23) & 1u) != 0;
    const std::uint32_t u = c & 0x7fffffu;
    const float z = static_cast<float>(u) * static_cast<float>(x_[layer] * 0x1.0p-23);
    const auto inner = static_cast<std::uint32_t>(x_[layer + 1] / x_[layer] * 0x1.0p23);
    float result = 0.0f;
    bool accepted = false;
    if (u < inner) {
      result = z;
      accepted = true;
    } else if (layer == 0 && z >= kR) {
      double tx, ty;
      do {
        tx = -std::log(1.0 - side_.uniform()) / kR;
        ty = -std::log(1.0 - side_.uniform());
      } while (ty + ty < tx * tx);
      result = static_cast<float>(kR + tx);
      accepted = true;
    } else {
      const double y = f(x_[layer]) + side_.uniform() * (f(x_[layer + 1]) - f(x_[layer]));
      if (y < f(z)) {
        result = z;
        accepted = true;
      }
    }
    if (accepted) return negative ? -result : result;
    c = static_cast<std::uint32_t>(side_.next() >> 32);
  }
}

}  // namespace sonic::oracles
