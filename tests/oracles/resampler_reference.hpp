// Reference (pre-table) implementations of the resampling kernels, kept as
// test oracles and as the before-case of bench/micro_dsp_fec. They live in
// the sonic_oracles library, which only tests and benches link.
#pragma once

#include <span>
#include <vector>

namespace sonic::oracles {

// The original dsp::Resampler batch kernel: for every tap of every output
// sample it evaluates the Hann-windowed sinc (one sin and one cos), with the
// window centred on floor(i / ratio). floor(n * ratio) outputs.
std::vector<float> resample_reference(std::span<const float> input, double ratio);

// One batch call of the resampler, through its frozen copy:
// frozen::Resampler(out_rate / in_rate).process(input) (frozen_dsp.hpp).
std::vector<float> resample(std::span<const float> input, double in_rate, double out_rate);

}  // namespace sonic::oracles
