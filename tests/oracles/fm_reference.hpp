// Reference (per-sample libm) versions of the simulated FM chain's stages,
// kept as test oracles and as the before-cases of bench/micro_dsp_fec. They
// live in the sonic_oracles library, which only tests and benches link.
#pragma once

#include <span>
#include <vector>

#include "fm/acoustic.hpp"
#include "fm/fm_modem.hpp"
#include "util/rng.hpp"

namespace sonic::oracles {

// FmModulator::modulate with one std::cos/std::sin pair per IQ sample.
std::vector<fm::cplx> fm_modulate_reference(std::span<const float> audio,
                                            const fm::FmParams& params);

// One RfChannel trial over a whole IQ buffer, from the same generator:
// the fading drawn with Rng::normal, the noise power 1 / CNR (unit carrier
// power), and two ZigguratReference deviates per IQ sample, the imaginary
// part's first, each times sqrt(1 / (2 CNR)) in float.
std::vector<fm::cplx> rf_channel_reference(std::span<const fm::cplx> iq,
                                           const fm::RfChannelParams& params, util::Rng rng);

// The quadrature discriminator with one std::arg per IQ sample:
// float(arg(iq[i] · conj(iq[i − 1])) · scale), and 0 for the first sample.
std::vector<float> fm_discriminate_reference(std::span<const fm::cplx> iq,
                                             const fm::FmParams& params);

// FmDemodulator over one whole IQ stream, flushed, with
// fm_discriminate_reference in front of the same fused decimating low-pass
// (frozen::Resampler::decimator).
std::vector<float> fm_demodulate_arg_reference(std::span<const fm::cplx> iq,
                                               const fm::FmParams& params);

// The original two-stage FmDemodulator over one whole IQ stream, flushed:
// fm_discriminate_reference, 63-tap low-pass at iq_rate (frozen::FirFilter),
// then resample_reference at audio_rate / iq_rate.
std::vector<float> fm_demodulate_reference(std::span<const fm::cplx> iq,
                                           const fm::FmParams& params);

// One AcousticChannel trial over a whole buffer (its construction-time
// draws, process, finish) with a std::sin and a std::pow per sample for the
// wobble and one scalar Rng::normal per sample for the noise.
std::vector<float> acoustic_reference(std::span<const float> audio,
                                      const fm::AcousticParams& params, util::Rng rng);

}  // namespace sonic::oracles
