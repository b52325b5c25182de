// FM broadcast modulator/demodulator at complex baseband.
//
// The paper's transmitter is a Raspberry Pi GPIO clock (93.7 MHz carrier);
// we simulate the equivalent at complex baseband, which preserves everything
// the data path can observe: the FM capture/threshold effect, the SNR
// improvement above threshold, and the click noise near it. The program
// material is the FM *mono* channel (30 Hz - 15 kHz) exactly as in §4.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "dsp/biquad.hpp"
#include "dsp/fir.hpp"
#include "dsp/resampler.hpp"
#include "util/rng.hpp"

namespace sonic::fm {

using cplx = std::complex<float>;

struct FmParams {
  double audio_rate_hz = 44100.0;
  double iq_rate_hz = 220500.0;   // 5x audio rate (integer ratio)
  double deviation_hz = 75000.0;  // FM broadcast peak deviation
  // 0 disables pre/de-emphasis. The paper's Raspberry Pi GPIO transmitter
  // applies none, so 0 is the faithful default; 50/75 us model commercial
  // stations.
  double emphasis_tau_us = 0.0;
  double audio_lowpass_hz = 15000.0;  // mono channel edge
  // Program-level headroom: audio is scaled by this before modulation and
  // hard-limited at +-1 so OFDM crest peaks cannot overrun the deviation
  // budget (Carson bandwidth must stay inside iq_rate).
  double input_gain = 0.7;
};

class FmModulator {
 public:
  explicit FmModulator(FmParams params = {});
  // Audio in [-1, 1] -> constant-envelope IQ at iq_rate.
  std::vector<cplx> modulate(std::span<const float> audio) const;
  const FmParams& params() const { return params_; }

 private:
  FmParams params_;
};

// Streaming demodulator: discriminator phase history, the decimating
// low-pass, and the de-emphasis network are all members, so
// feeding the IQ stream in chunks produces exactly the same audio as one
// batch call — concat(demodulate(c1), demodulate(c2), ..., finish()) ==
// demodulate(c1 + c2 + ...) + finish() for any chunking. The first sample
// after construction/reset() produces zero instantaneous frequency instead
// of a spurious phase impulse against an arbitrary reference.
//
// The post-detection low-pass (63 taps at iq_rate) and the iq_rate ->
// audio_rate decimator are one filter stage (dsp::Resampler::decimator), the
// low-pass folded into the decimation kernel and evaluated only at the
// audio-rate outputs. iq_rate_hz must therefore be an integer multiple of
// audio_rate_hz (the constructor throws std::invalid_argument otherwise).
class FmDemodulator {
 public:
  explicit FmDemodulator(FmParams params = {});
  // IQ at iq_rate -> audio at audio_rate; every output sample that the
  // decimator can already fully determine. Carries state across calls.
  std::vector<float> demodulate(std::span<const cplx> iq);
  // End of stream: drains the decimator tail (a handful of samples).
  std::vector<float> finish();
  // Forget all stream state; the next sample starts a fresh stream.
  void reset();
  const FmParams& params() const { return params_; }

 private:
  std::vector<float> postprocess(std::vector<float> freq);

  FmParams params_;
  cplx prev_{1.0f, 0.0f};
  bool have_prev_ = false;
  dsp::Resampler decim_;  // low-pass + decimator, one stage
  dsp::Biquad de_emphasis_;  // identity when emphasis_tau_us == 0
  bool de_emphasis_on_ = false;
  double de_mid_gain_ = 1.0;
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
  double noise_floor_db = -95.0;
  // Slow fading: per-trial RSSI jitter (standard deviation, dB). Produces
  // the fluctuating-loss band instead of a knife-edge cliff.
  double fading_sigma_db = 1.5;
};

class RfChannel {
 public:
  RfChannel(RfChannelParams params, sonic::util::Rng rng);
  std::vector<cplx> process(std::span<const cplx> iq);
  double cnr_db() const { return params_.rssi_db - params_.noise_floor_db; }

 private:
  RfChannelParams params_;
  sonic::util::Rng rng_;
};

}  // namespace sonic::fm
