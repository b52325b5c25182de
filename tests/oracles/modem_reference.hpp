// Reference (pre-optimization) modem kernels, kept as test oracles for
// modem::OfdmModem::analyze_symbol and demod_symbol's per-carrier math (and
// dsp::derotate), the block modem::QamMapper::demap_soft,
// the screened modem::pick_fine_sync, modem::PacketCodec::place_soft, the
// byte-wise modem::PacketCodec::encode and modem::OfdmModem::modulate,
// plus the hard QAM demapper the constellation tests decode with. They
// live in the sonic_oracles library, which only tests and benches link.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "modem/ofdm.hpp"
#include "modem/packet.hpp"
#include "modem/profile.hpp"
#include "modem/qam.hpp"
#include "util/bytes.hpp"

namespace sonic::oracles {

using cplx = std::complex<float>;

// The complex-input symbol analysis: the fft_size-point FFT of the window
// at `pos` (zeros past the end of `samples`) with a zero imaginary part,
// scaled by the modem's receive gain 1 / tx_gain, where
// tx_gain = amplitude * fft_size / sqrt(2 * num_subcarriers). Returns the
// num_subcarriers used bins from first_bin() on.
std::vector<cplx> ofdm_analyze_reference(const modem::OfdmProfile& profile, std::span<const float> samples,
                                         std::size_t pos);

// The per-carrier soft demapper: one point's bits_per_symbol() max-log
// LLRs, every axis bit scanning the squared distances to all levels of its
// axis. QamMapper::demap_soft on a block of points must give each point's
// bytes. The levels are read back through QamMapper::map.
void qam_demap_llr_reference(const modem::QamMapper& mapper, cplx received, float noise_var,
                             std::span<float> llr_out);

// Hard demap: the bit label of the constellation point nearest `received`,
// taking the nearest level on each axis independently (exact for square
// QAM). The levels are read back through QamMapper::map.
std::uint32_t qam_demap_hard_reference(const modem::QamMapper& mapper, cplx received);

// The all-exact fine-sync scan modem::pick_fine_sync screens: every
// candidate's NCC from an eight-lane double dot and the window energy slid
// in double, the first largest above 0 kept under strict >. Same arguments;
// returns the winning candidate (-1 if none) and its NCC.
struct FineSyncReference {
  long index = -1;
  double ncc = 0.0;
};
FineSyncReference fine_sync_reference(std::span<const float> x, std::span<const float> tmpl, double tmpl_energy,
                                      std::size_t candidates);

// modem::PacketCodec::place_soft over a whole frame, in the probability
// domain, as the exp, the de-interleave loop and the quantizer pass it
// replaced: received LLR i becomes p = 1 / (1 + exp(-llr)) in float,
// de-scrambled (1 - p where scrambler bit i is set) into a float buffer at
// its de-interleaved position (i * stride) mod n, stride 101 unless 101
// divides n, then 103 unless 103 does, else 1; that buffer is then
// quantized by quantize_soft_reference.
std::vector<std::uint8_t> place_soft_reference(std::span<const float> llr);

// The per-bit PacketCodec(spec).encode(payload) must match byte for byte:
// payload || crc32 (little-endian), each rs_data_len-byte block through
// rs_encode_reference, the whole through conv_encode_reference, then every
// coded bit read back through util::BitReader into a bit vector and
// written, stride-interleaved (output bit i is coded bit (i * stride) mod
// n, the stride as place_soft_reference picks it) and XORed with scrambler
// bit i mod the sequence length, through util::BitWriter.
util::Bytes packet_encode_reference(const modem::PacketSpec& spec, std::span<const std::uint8_t> payload);

// modem.modulate(frames) as the per-bit transmitter ran it: the preambles,
// the v27 header from conv_encode_reference read one bit per BPSK carrier,
// each frame through packet_encode_reference and one bit at a time into
// each data carrier's QAM label, every symbol synthesized through the
// frozen radix-2 inverse FFT (fft_radix2_reference, bit-identical to the
// plan), then the one-symbol gap. The preamble and pilot values are the
// modem's (OfdmKernelProbe).
std::vector<float> ofdm_modulate_reference(const modem::OfdmModem& modem, const std::vector<util::Bytes>& frames);

// The per-carrier phase correction as the receiver ran it, one carrier at a
// time: out[i] = in[i] * cplx(float(std::cos(-phi) / amp),
// float(std::sin(-phi) / amp)) with phi = a + b * i, through std::complex
// and libm. dsp::derotate must match every bit.
void derotate_reference(std::span<const cplx> in, double a, double b, double amp, std::span<cplx> out);

// modem::OfdmModem::demod_symbol from the analyzed bins y on, frozen as it
// ran one carrier at a time on std::complex and libm: the equalizer
// quotients y[i] / h[i]; the least-squares phase line through the pilots'
// unwrapped std::arg(eq[i] / pilot) and their mean std::abs (at least
// 1e-6); every carrier corrected by derotate_reference's expression, the
// pilots' squared residuals summed in order and the data carriers packed
// in order; then the soft bits (BPSK 2 re / max(noise / 2, 1e-7), else
// mapper.demap_soft) and the noise update 0.7 noise + 0.3 max(residual,
// 1e-7). `pilots` holds the modem's pilot values (OfdmKernelProbe).
std::vector<float> ofdm_demod_reference(const modem::OfdmProfile& profile, const modem::QamMapper& mapper,
                                        std::span<const cplx> y, std::span<const cplx> h,
                                        std::span<const cplx> pilots, bool bpsk, float& noise);

}  // namespace sonic::oracles
