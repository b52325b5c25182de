// FIR filtering and windowed-sinc design. Used by the FM layer for the
// 15 kHz program low-pass and by the acoustic channel's band-tilt model.
#pragma once

#include <span>
#include <vector>

#include "dsp/window.hpp"
#include "util/cpu.hpp"

namespace sonic::dsp {

// Linear-phase low-pass design: `cutoff_hz` at `sample_rate_hz`, odd-length
// `taps` (even lengths are bumped by one), windowed by `window`.
std::vector<float> design_lowpass(double cutoff_hz, double sample_rate_hz, std::size_t taps,
                                  WindowType window = WindowType::kHamming);

// Stateful FIR for streaming use.
//
// process() lays the carried history and the new chunk out in one
// contiguous window and computes 16 consecutive outputs per pass, in the
// lanes of four 4-float vectors, or 32 in four 8-float AVX2 vectors where
// `width` is k256 (by default util::simd_width(), the process's one CPU
// probe). Each lane sums its output's products in tap order, exactly like
// a one-output scalar loop, so the output is bit-identical to that loop at
// either width and independent of how the stream is chunked.
class FirFilter {
 public:
  // k256 throws std::invalid_argument where util::simd_width() is k128.
  explicit FirFilter(std::vector<float> taps, util::SimdWidth width = util::simd_width());

  std::vector<float> process(std::span<const float> x);
  void reset();

  // Group delay in samples ((taps-1)/2 for the linear-phase designs above).
  std::size_t delay() const { return (taps_.size() - 1) / 2; }
  const std::vector<float>& taps() const { return taps_; }

 private:
  std::vector<float> taps_;      // design order, for taps()
  std::vector<float> taps_rev_;  // reversed: dot with an oldest-first window
  std::vector<float> hist_;      // last taps-1 inputs, oldest first
  std::vector<float> work_;      // contiguous [history | chunk] scratch
  util::SimdWidth width_;
};

}  // namespace sonic::dsp
