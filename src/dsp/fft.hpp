// Radix-2 FFT for the OFDM modem's power-of-two transforms: the receiver's
// fft_size/2-point analysis and the transmitter's fft_size-point synthesis.
//
// FftPlan is the one entry point: precomputed bit-reversal and twiddle
// tables for one size, with in-place forward/inverse on caller-provided
// data. Plans are immutable after construction and safe to share across
// threads; FftPlan::get(n) hands out cached plans from a thread-safe
// registry so the steady-state symbol path never recomputes tables.
// Twiddles are evaluated per-element in double precision (no recurrence),
// so accuracy does not drift with transform size.
//
// The kernel is decimation in time, written once over the lane packs of
// util/lanes.hpp and run through util::at_width: four lanes, or eight in
// the AVX2 instance where util::simd_width() is k256. Its passes:
//  * the bit-reversed gather, each point one 64-bit load into a register,
//    two eight-point blocks per pass at eight lanes (one at four), with
//    stages h = 1, 2 and 4 run in registers, into split real and imaginary
//    arrays;
//  * the stages from h = 8 in fused pairs, h and 2h in one pass over the
//    arrays (x0 .. x3 at i + j + {0, h, 2h, 3h}: stage h's butterflies,
//    then stage 2h's), stage 8 alone first where the count is odd, each
//    loop over contiguous per-stage twiddles;
//  * the last of those passes writes the caller's buffer, interleaved back
//    to complex and scaled by 1/N for the inverse.
// Each butterfly computes v = hi·w and lo ± v with the same float
// operations in the same order as a scalar radix-2 loop, so the output is
// bit-identical to one (tests/oracles' fft_radix2_reference) in either
// instance.
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
  // Bit-reversed index of each position, padded to 16 entries (the widest
  // first pass) with entries that point past n_.
  std::vector<std::uint32_t> bitrev_;
  // Stage h (h butterflies per block, h = 1, 2, 4, ..., n/2) reads its
  // twiddles contiguously at [h, 2h): w_re_[h + j] + i w_im_[h + j] =
  // exp(-2 pi i j / 2h), evaluated as exp(-2 pi i k / n) at k = j n / 2h.
  // The inverse reads the conjugate, w_im_inv_ = -w_im_ (exact).
  std::vector<float> w_re_, w_im_, w_im_inv_;
};

bool is_power_of_two(std::size_t n);

}  // namespace sonic::dsp
