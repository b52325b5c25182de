// FM broadcast modulator/demodulator at complex baseband.
//
// The paper's transmitter is a Raspberry Pi GPIO clock (93.7 MHz carrier);
// we simulate the equivalent at complex baseband, which preserves everything
// the data path can observe: the FM capture/threshold effect, the SNR
// improvement above threshold, and the click noise near it. The program
// material is the FM *mono* channel (30 Hz - 15 kHz) exactly as in §4, at
// 75 kHz deviation and with no pre/de-emphasis, as the Pi transmitter
// applies none (FmParams).
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/resampler.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"

namespace sonic::fm {

using cplx = std::complex<float>;

// The FM layer's fixed values; an instance is only the tag the modulator
// and demodulator constructors take.
struct FmParams {
  static constexpr double audio_rate_hz = 44100.0;
  static constexpr double iq_rate_hz = 220500.0;   // 5x audio rate (integer ratio)
  static constexpr double deviation_hz = 75000.0;  // FM broadcast peak deviation
  static constexpr double audio_lowpass_hz = 15000.0;  // mono channel edge
  // Program-level headroom: audio is scaled by this before modulation and
  // hard-limited at +-1 so OFDM crest peaks cannot overrun the deviation
  // budget (Carson bandwidth must stay inside iq_rate).
  static constexpr double input_gain = 0.7;
};

// The modulator's and demodulator's vector kernels (program low-pass, 1:5
// upsampler, sincos, discriminator, decimator) run the instance `width`
// names: by default util::simd_width(), the process's one CPU probe; k128
// forces the four-lane instance (k256 throws std::invalid_argument where
// the CPU cannot run it). Both give the same bits.
class FmModulator {
 public:
  explicit FmModulator(FmParams = {}, util::SimdWidth width = util::simd_width())
      : width_(util::checked_simd_width(width)) {}
  // Audio in [-1, 1] -> constant-envelope (unit power) IQ at iq_rate: the
  // streamed modulate() run to completion and its blocks concatenated.
  std::vector<cplx> modulate(std::span<const float> audio) const;
  // The same IQ in consecutive blocks, each handed to
  // sink(std::span<cplx>) as soon as it exists; the sink may change the
  // block in place (the RF channel adds its noise there). The audio-rate
  // program filter runs over the whole buffer first; the upsampler, phase
  // integration and sincos then run 512 audio samples (~2560 IQ samples,
  // 20 KB) at a time, so no IQ-rate buffer exists.
  template <typename Sink>
  void modulate(std::span<const float> audio, Sink&& sink) const;

 private:
  // The mono-channel low-pass and the headroom limiter.
  std::vector<float> program(std::span<const float> audio) const;
  // Integrates `up` (program at iq_rate) onto `phase` and writes the IQ to
  // iq[0, up.size()); iq is padded to whole groups of eight.
  void integrate(std::span<const float> up, double& phase, std::vector<cplx>& iq) const;

  util::SimdWidth width_;
};

template <typename Sink>
void FmModulator::modulate(std::span<const float> audio, Sink&& sink) const {
  const std::vector<float> prog = program(audio);
  dsp::Resampler up(FmParams::iq_rate_hz / FmParams::audio_rate_hz, width_);
  constexpr std::size_t kProgramBlock = 512;
  std::vector<cplx> iq;
  double phase = 0.0;
  const auto emit = [&](std::span<const float> upsampled) {
    if (upsampled.empty()) return;
    integrate(upsampled, phase, iq);
    sink(std::span<cplx>(iq.data(), upsampled.size()));
  };
  for (std::size_t pos = 0; pos < prog.size(); pos += kProgramBlock) {
    emit(up.push(std::span(prog).subspan(pos, std::min(kProgramBlock, prog.size() - pos))));
  }
  emit(up.flush());
}

// Streaming demodulator: the discriminator phase history and the decimating
// low-pass are members, so feeding the IQ stream in chunks produces exactly the same audio as one
// batch call — concat(demodulate(c1), demodulate(c2), ..., finish()) ==
// demodulate(c1 + c2 + ...) + finish() for any chunking. The first sample
// after construction/reset() produces zero instantaneous frequency instead
// of a spurious phase impulse against an arbitrary reference.
//
// The post-detection low-pass (63 taps at iq_rate) and the iq_rate ->
// audio_rate decimator are one filter stage (dsp::Resampler::decimator), the
// low-pass folded into the decimation kernel and evaluated only at the
// audio-rate outputs.
class FmDemodulator {
 public:
  explicit FmDemodulator(FmParams = {}, util::SimdWidth width = util::simd_width());
  // IQ at iq_rate -> audio at audio_rate; every output sample that the
  // decimator can already fully determine. Carries state across calls.
  std::vector<float> demodulate(std::span<const cplx> iq);
  // End of stream: drains the decimator tail (a handful of samples).
  std::vector<float> finish();
  // Forget all stream state; the next sample starts a fresh stream.
  void reset();

 private:
  util::SimdWidth width_;
  cplx prev_{1.0f, 0.0f};
  bool have_prev_ = false;
  dsp::Resampler decim_;  // low-pass + decimator, one stage
};

// RF propagation: maps an RSSI reading to carrier-to-noise ratio and applies
// complex AWGN to the IQ stream. FM behaviour vs RSSI (the paper's §4
// "Variable RSSI" experiment) then emerges from the demodulator itself.
struct RfChannelParams {
  double rssi_db = -70.0;         // received signal strength
  // Receiver noise floor, calibrated so the FM threshold cliff (which the
  // demodulator produces naturally at CNR ~= 5 dB) lands where the paper
  // measured it: clean down to -85 dB, fluctuating 2-15% loss in -85..-90,
  // and nothing below -90 dB (§4, "Variable RSSI").
  static constexpr double noise_floor_db = -95.0;
  // Slow fading: per-trial RSSI jitter (standard deviation, dB). Produces
  // the fluctuating-loss band instead of a knife-edge cliff.
  static constexpr double fading_sigma_db = 1.5;
};

// One trial of the RF hop. The carrier has unit power (FmModulator's
// unit-envelope IQ; RSSI is carrier power), so the noise power per IQ
// sample is 1 / CNR, with CNR = rssi - noise_floor + the trial's fading
// draw in dB. The fading is drawn at construction (Rng::normal), and the
// noise comes from a util::ZigguratNormal on the same generator after it:
// IQ sample i gets deviate 2i on its imaginary axis and 2i + 1 on its real
// one, each times sqrt(1 / (2 CNR)). The channel holds no other state, so
// any chunking of the stream adds the same noise, and an empty chunk draws
// nothing.
class RfChannel {
 public:
  RfChannel(RfChannelParams params, sonic::util::Rng rng);
  // iq plus the channel's next noise.
  std::vector<cplx> process(std::span<const cplx> iq);
  // The same, in place.
  void add_noise(std::span<cplx> iq);
  double cnr_db() const { return params_.rssi_db - params_.noise_floor_db; }

 private:
  RfChannelParams params_;
  float sigma_axis_;  // noise standard deviation per axis
  sonic::util::ZigguratNormal noise_;
};

}  // namespace sonic::fm
