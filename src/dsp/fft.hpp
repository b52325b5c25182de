// Radix-2 iterative FFT. The OFDM modem uses power-of-two transforms
// (1024-point at 44.1 kHz), so a dependency-free radix-2 kernel suffices.
//
// FftPlan is the one entry point: precomputed bit-reversal and twiddle
// tables for one size, with in-place forward/inverse on caller-provided
// scratch. Plans are immutable after construction and safe to share across
// threads; FftPlan::get(n) hands out cached plans from a thread-safe
// registry so the steady-state symbol path never recomputes tables.
// Twiddles are evaluated per-element in double precision (no recurrence),
// so accuracy does not drift with transform size.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace sonic::dsp {

using cplx = std::complex<float>;

class FftPlan {
 public:
  // Builds tables for size n (power of two).
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  // In-place transform of data (data.size() must equal size()).
  void forward(std::span<cplx> data) const;
  // In-place inverse, including the 1/N normalization.
  void inverse(std::span<cplx> data) const;

  // Cached plan for size n; thread-safe, one plan per size per process.
  static std::shared_ptr<const FftPlan> get(std::size_t n);

 private:
  void run(std::span<cplx> data, bool inverse) const;

  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;  // bit-reversed index of each position
  std::vector<cplx> twiddle_;          // exp(-2*pi*i*k/n), k in [0, n/2)
};

bool is_power_of_two(std::size_t n);

}  // namespace sonic::dsp
