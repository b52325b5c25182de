// Reference (pre-table) implementations of the resampling kernels, kept as
// test oracles and as the before-case of bench/micro_dsp_fec. They live in
// the sonic_oracles library, which only tests and benches link.
#pragma once

#include <span>
#include <vector>

#include "fm/fm_modem.hpp"

namespace sonic::oracles {

// The original dsp::Resampler batch kernel: for every tap of every output
// sample it evaluates the Hann-windowed sinc (one sin and one cos), with the
// window centred on floor(i / ratio). floor(n * ratio) outputs.
std::vector<float> resample_reference(std::span<const float> input, double ratio);

// The original two-stage FmDemodulator over one whole IQ stream, flushed:
// discriminator, 63-tap low-pass at iq_rate (dsp::FirFilter), then
// resample_reference at audio_rate / iq_rate, then de-emphasis.
std::vector<float> fm_demodulate_reference(std::span<const fm::cplx> iq,
                                           const fm::FmParams& params);

}  // namespace sonic::oracles
