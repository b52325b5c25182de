// Complex division with std::complex<float>'s bits, without a libgcc call
// per value.
//
// GCC's libgcc computes a float complex quotient (__divsc3) in double:
// x = (ac + bd) / (c² + d²) and y = (bc − ad) / (c² + d²) for
// (a + bi) / (c + di), each rounded once to float, and it patches the
// result only where both parts are NaN (a zero or infinite operand). These
// functions evaluate the same double formula inline, in vector lanes for a
// span, and hand every quotient with a NaN part back to std::complex's
// division, so each value keeps the bits `num / den` gives on this
// toolchain (ComplexDivide tests, against both the formula and
// std::complex).
#pragma once

#include <complex>
#include <span>

namespace sonic::dsp {

using cplx = std::complex<float>;

// num / den.
cplx divide(cplx num, cplx den);

// out[i] = num[i] / den[i] for every i < out.size(); num and den hold at
// least out.size() values.
void divide(std::span<const cplx> num, std::span<const cplx> den, std::span<cplx> out);

}  // namespace sonic::dsp
