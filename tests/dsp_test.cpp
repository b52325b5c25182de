#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "dsp/biquad.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/resampler.hpp"
#include "dsp/window.hpp"
#include "oracles/kernel_reference.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace sonic::dsp {
namespace {

using sonic::util::kPi;
using sonic::util::kTwoPi;
using sonic::util::Rng;

std::vector<cplx> random_signal(Rng& rng, std::size_t n) {
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  return v;
}

// ------------------------------------------------------------------ FFT ---

TEST(Fft, MatchesNaiveDft) {
  Rng rng(1);
  for (std::size_t n : {2u, 8u, 64u, 256u}) {
    auto sig = random_signal(rng, n);
    const auto expected = oracles::dft_naive(sig);
    auto actual = sig;
    FftPlan::get(n)->forward(actual);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(actual[i].real(), expected[i].real(), 1e-2) << "n=" << n << " bin=" << i;
      EXPECT_NEAR(actual[i].imag(), expected[i].imag(), 1e-2);
    }
  }
}

TEST(Fft, InverseRecoversSignal) {
  Rng rng(2);
  auto sig = random_signal(rng, 1024);
  auto copy = sig;
  const auto plan = FftPlan::get(copy.size());
  plan->forward(copy);
  plan->inverse(copy);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    EXPECT_NEAR(copy[i].real(), sig[i].real(), 1e-3);
    EXPECT_NEAR(copy[i].imag(), sig[i].imag(), 1e-3);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(3);
  auto sig = random_signal(rng, 512);
  double time_energy = 0;
  for (const auto& x : sig) time_energy += std::norm(x);
  auto freq = sig;
  FftPlan::get(freq.size())->forward(freq);
  double freq_energy = 0;
  for (const auto& x : freq) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(sig.size()), time_energy, time_energy * 1e-4);
}

TEST(Fft, PureToneLandsInOneBin) {
  const std::size_t n = 256;
  const std::size_t bin = 19;
  std::vector<cplx> sig(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double ang = kTwoPi * static_cast<double>(bin) * static_cast<double>(t) / static_cast<double>(n);
    sig[t] = cplx(static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang)));
  }
  FftPlan::get(n)->forward(sig);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin) {
      EXPECT_NEAR(std::abs(sig[k]), static_cast<double>(n), 1e-2);
    } else {
      EXPECT_LT(std::abs(sig[k]), 1e-2);
    }
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan::get(100), std::invalid_argument);
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_TRUE(is_power_of_two(1024));
}

// -------------------------------------------------------------- Windows ---

TEST(Window, EndpointsAndSymmetry) {
  for (auto type : {WindowType::kHann, WindowType::kHamming, WindowType::kBlackman}) {
    const auto w = make_window(type, 65);
    EXPECT_LT(w.front(), 0.1f);
    EXPECT_LT(w.back(), 0.1f);
    EXPECT_NEAR(w[32], 1.0f, 0.01f);
    for (std::size_t i = 0; i < w.size(); ++i) EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-5);
  }
  const auto rect = make_window(WindowType::kRect, 16);
  for (float v : rect) EXPECT_EQ(v, 1.0f);
}

// ------------------------------------------------------------------ FIR ---

TEST(Fir, LowpassPassesLowRejectsHigh) {
  const double fs = 44100;
  const auto taps = design_lowpass(5000, fs, 101);
  EXPECT_NEAR(oracles::fir_magnitude_at(taps, 100, fs), 1.0, 0.01);
  EXPECT_NEAR(oracles::fir_magnitude_at(taps, 2000, fs), 1.0, 0.02);
  EXPECT_LT(oracles::fir_magnitude_at(taps, 10000, fs), 0.01);
  EXPECT_LT(oracles::fir_magnitude_at(taps, 20000, fs), 0.01);
}

TEST(Fir, StreamingMatchesConvolution) {
  Rng rng(5);
  std::vector<float> x(300);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  const auto taps = design_lowpass(8000, 44100, 31);
  FirFilter f(taps);
  const auto y = f.process(x);
  // Direct convolution reference.
  for (std::size_t n = 0; n < x.size(); ++n) {
    double acc = 0;
    for (std::size_t k = 0; k < taps.size(); ++k) {
      if (n >= k) acc += static_cast<double>(taps[k]) * static_cast<double>(x[n - k]);
    }
    ASSERT_NEAR(y[n], acc, 1e-4) << "n=" << n;
  }
}

TEST(Fir, ResetClearsState) {
  const auto taps = design_lowpass(8000, 44100, 31);
  FirFilter f(taps);
  (void)f.process(std::vector<float>{1.0f, -1.0f});
  f.reset();
  // After reset an impulse must reproduce the taps exactly.
  std::vector<float> impulse(taps.size(), 0.0f);
  impulse[0] = 1.0f;
  const auto y = f.process(impulse);
  for (std::size_t i = 0; i < taps.size(); ++i) EXPECT_NEAR(y[i], taps[i], 1e-6);
}

TEST(Fir, RejectsBadDesigns) {
  EXPECT_THROW(design_lowpass(0, 44100, 11), std::invalid_argument);
  EXPECT_THROW(design_lowpass(30000, 44100, 11), std::invalid_argument);
  EXPECT_THROW(FirFilter({}), std::invalid_argument);
}

// --------------------------------------------------------------- Biquad ---

TEST(Biquad, LowpassResponse) {
  const double fs = 44100;
  auto lp = Biquad::lowpass(1000, fs);
  EXPECT_NEAR(oracles::biquad_magnitude_at(lp, 50, fs), 1.0, 0.01);
  EXPECT_NEAR(oracles::biquad_magnitude_at(lp, 1000, fs), 0.7071, 0.03);  // -3 dB at cutoff
  EXPECT_LT(oracles::biquad_magnitude_at(lp, 10000, fs), 0.02);
}

// ------------------------------------------------------------ Resampler ---

TEST(Resampler, PreservesSineUpsample) {
  const double in_rate = 44100, out_rate = 192000, f = 1000;
  std::vector<float> in(4410);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>(std::sin(kTwoPi * f * static_cast<double>(i) / in_rate));
  const auto out = Resampler(out_rate / in_rate).process(in);
  EXPECT_NEAR(static_cast<double>(out.size()), in.size() * out_rate / in_rate, 2.0);
  // Compare against the ideal continuous sine (skip edges where the kernel
  // is truncated).
  for (std::size_t i = 100; i + 100 < out.size(); ++i) {
    const double expected = std::sin(kTwoPi * f * static_cast<double>(i) / out_rate);
    ASSERT_NEAR(out[i], expected, 0.02) << i;
  }
}

TEST(Resampler, PreservesSineDownsample) {
  const double in_rate = 192000, out_rate = 44100, f = 3000;
  std::vector<float> in(19200);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>(std::sin(kTwoPi * f * static_cast<double>(i) / in_rate));
  const auto out = Resampler(out_rate / in_rate).process(in);
  for (std::size_t i = 100; i + 100 < out.size(); ++i) {
    const double expected = std::sin(kTwoPi * f * static_cast<double>(i) / out_rate);
    ASSERT_NEAR(out[i], expected, 0.05) << i;
  }
}

TEST(Resampler, TinyClockSkew) {
  // 100 ppm skew, as between two real audio clocks.
  const double ratio = 1.0001;
  Resampler r(ratio);
  std::vector<float> in(10000);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>(std::sin(kTwoPi * 0.01 * static_cast<double>(i)));
  const auto out = r.process(in);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(10000 * ratio));
  for (std::size_t i = 100; i + 100 < out.size(); ++i) {
    const double expected = std::sin(kTwoPi * 0.01 * static_cast<double>(i) / ratio);
    ASSERT_NEAR(out[i], expected, 0.02);
  }
}

TEST(Resampler, RejectsBadRatio) {
  EXPECT_THROW(Resampler(0.0), std::invalid_argument);
  EXPECT_THROW(Resampler(-1.0), std::invalid_argument);
}

// ------------------------------------------------------------- Goertzel ---

TEST(Goertzel, DetectsTonePresence) {
  const double fs = 44100;
  std::vector<float> sig(2048);
  for (std::size_t i = 0; i < sig.size(); ++i)
    sig[i] = static_cast<float>(std::sin(kTwoPi * 2500 * static_cast<double>(i) / fs));
  EXPECT_NEAR(goertzel_power(sig, 2500, fs), 1.0, 0.1);
  EXPECT_LT(goertzel_power(sig, 7000, fs), 0.01);
}

TEST(Goertzel, DiscriminatesNearbyTones) {
  const double fs = 44100;
  // Two tones 400 Hz apart, window long enough to resolve them.
  std::vector<float> sig(4096);
  for (std::size_t i = 0; i < sig.size(); ++i)
    sig[i] = static_cast<float>(std::sin(kTwoPi * 3000 * static_cast<double>(i) / fs));
  const double on = goertzel_power(sig, 3000, fs);
  const double off = goertzel_power(sig, 3400, fs);
  EXPECT_GT(on, 20 * off);
}

}  // namespace
}  // namespace sonic::dsp
