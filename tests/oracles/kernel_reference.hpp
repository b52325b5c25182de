// Reference (pre-optimization) FFT, FIR and fountain XOR kernels and the
// naive DFT, kept as test oracles and as the before-cases of
// bench/micro_dsp_fec. They live in
// the sonic_oracles library, which only tests and benches link.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace sonic::oracles {

using cplx = std::complex<float>;

// Naive O(N^2) DFT with double-precision accumulation: the ground truth
// the FFTs are checked against.
std::vector<cplx> dft_naive(std::span<const cplx> data);

// The pre-plan radix-2 FFT: per-call bit reversal and a per-stage twiddle
// recurrence (w *= w_len), in place; data.size() must be a power of two.
// The recurrence accumulates O(N) ulps of twiddle error, so it drifts past
// a tight tolerance against dft_naive at N = 4096 where dsp::FftPlan
// does not. The inverse includes the 1/N normalization.
void fft_recurrence(std::span<cplx> data);
void ifft_recurrence(std::span<cplx> data);

// The strided radix-2 kernel dsp::FftPlan ran before its four-lane
// rewrite, in place on interleaved complex data: the in-place bit-reversal
// swaps, then every stage reading one n/2-entry twiddle table with stride
// n/len and its imaginary part times the sign, and 1/N scaling for the
// inverse. The plan must match it bit for bit. Tables are built once per
// size (thread-safe); data.size() must be a power of two.
void fft_radix2_reference(std::span<cplx> data, bool inverse);

// Filters `x` from zero initial state with the original per-sample
// ring-buffer FIR kernel.
std::vector<float> fir_reference(std::span<const float> taps, std::span<const float> x);

// |H(f)| of an FIR with these taps at f_hz, for filter design checks.
double fir_magnitude_at(std::span<const float> taps, double f_hz, double sample_rate_hz);

// Byte-at-a-time XOR of src into dst over dst.size() bytes.
void xor_into_reference(util::Bytes& dst, std::span<const std::uint8_t> src);

}  // namespace sonic::oracles
