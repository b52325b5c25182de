// The OFDM receiver's per-carrier complex math in vector lanes, with the
// bits of the scalar std::complex<float> and libm expressions it replaces.
//
// Products use GCC's inline formula (ac - bd, ad + bc) in float lanes and
// hand every product with a NaN part to std::complex's multiplication
// (libgcc's __mulsc3 patches infinities), as dsp::divide does for
// quotients. Magnitudes are glibc's finite hypotf path,
// float(sqrt(double(x) * x + double(y) * y)), in double lanes; a
// non-finite part goes to std::abs. derotate's cos and sin come from a
// Cody-Waite reduction and fdlibm's kernel polynomials in double lanes,
// screened per lane so that a value is kept only where it provably rounds
// to the float libm's would give (DESIGN.md, "Per-carrier math in lanes");
// every other lane takes libm. The CarrierMath kernel tests compare each
// function with its scalar expression at both widths.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

namespace sonic::dsp {

using cplx = std::complex<float>;

// out[i] = a[i] * b[i] for every i < out.size(); a and b hold at least
// out.size() values. The lane product derotate and split_bins run, on its
// own so that the kernel tests can give it any operands.
void multiply(std::span<const cplx> a, std::span<const cplx> b, std::span<cplx> out);

// out[i] = std::abs(in[i]) for every i < out.size().
void magnitudes(std::span<const cplx> in, std::span<float> out);

// out[i] = in[i] * cplx(float(std::cos(x) / amp), float(std::sin(x) / amp))
// with x = -(a + b * i) in double, for every i < out.size(); out may be in.
// Returns how many of the rotations were computed by libm.
std::size_t derotate(std::span<const cplx> in, double a, double b, double amp, std::span<cplx> out);

// The used bins of a real signal's spectrum from the half-size FFT of its
// even and odd samples packed as one complex signal:
// out[i] = (z + m) * half_gain + twiddle[i] * (z - m) with
// z = packed[first + i] and m = std::conj(packed[packed.size() - first - i]),
// for every i < out.size(); first >= 1 and first + out.size() <
// packed.size().
void split_bins(std::span<const cplx> packed, std::size_t first, float half_gain, std::span<const cplx> twiddle,
                std::span<cplx> out);

}  // namespace sonic::dsp
