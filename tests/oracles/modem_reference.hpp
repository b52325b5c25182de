// Reference (pre-optimization) modem kernels, kept as test oracles for
// modem::OfdmModem::analyze_symbol and the block modem::QamMapper::demap_soft,
// plus the hard QAM demapper the constellation tests decode with. They live in
// the sonic_oracles library, which only tests and benches link.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "modem/profile.hpp"
#include "modem/qam.hpp"

namespace sonic::oracles {

using cplx = std::complex<float>;

// The complex-input symbol analysis: the fft_size-point FFT of the window
// at `pos` (zeros past the end of `samples`) with a zero imaginary part,
// scaled by the modem's receive gain 1 / tx_gain, where
// tx_gain = amplitude * fft_size / sqrt(2 * num_subcarriers). Returns the
// num_subcarriers used bins from first_bin() on.
std::vector<cplx> ofdm_analyze_reference(const modem::OfdmProfile& profile, std::span<const float> samples,
                                         std::size_t pos);

// The per-carrier soft demapper: one point's bits_per_symbol() soft bits,
// every axis bit scanning the squared distances to all levels of its axis.
// QamMapper::demap_soft on a block of points must give each point's bytes.
// The levels are read back through QamMapper::map.
void qam_demap_soft_reference(const modem::QamMapper& mapper, cplx received, float noise_var,
                              std::span<float> soft_out);

// Hard demap: the bit label of the constellation point nearest `received`,
// taking the nearest level on each axis independently (exact for BPSK and
// square QAM). The levels are read back through QamMapper::map.
std::uint32_t qam_demap_hard_reference(const modem::QamMapper& mapper, cplx received);

}  // namespace sonic::oracles
