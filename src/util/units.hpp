// Unit conversions used throughout the radio and modem layers.
#pragma once

#include <cmath>

namespace sonic::util {

// Power ratios.
inline double db_to_linear(double db) { return std::pow(10.0, db / 10.0); }
inline double linear_to_db(double lin) { return 10.0 * std::log10(lin); }

// Amplitude ratios.
inline double db_to_amplitude(double db) { return std::pow(10.0, db / 20.0); }

constexpr double kPi = 3.14159265358979323846;
constexpr double kTwoPi = 2.0 * kPi;

}  // namespace sonic::util
