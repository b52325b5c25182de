#include "fm/link.hpp"

namespace sonic::fm {

FmLink::FmLink(FmLinkConfig config) : config_(std::move(config)), rng_(config_.seed) {}

std::vector<float> FmLink::transmit(std::span<const float> audio) {
  std::vector<float> radio_audio;
  if (config_.enable_rf) {
    // Modulator -> RF -> discriminator one IQ block at a time; each stage
    // is chunking-invariant, so this is the three stages run over the whole
    // burst one after another, without the IQ-rate buffers.
    const FmModulator mod(config_.fm);
    RfChannel rf(config_.rf, rng_.fork(1));
    FmDemodulator demod(config_.fm);
    radio_audio.reserve(audio.size());
    mod.modulate(audio, [&](std::span<cplx> iq) {
      rf.add_noise(iq);
      const auto out = demod.demodulate(iq);
      radio_audio.insert(radio_audio.end(), out.begin(), out.end());
    });
    const auto tail = demod.finish();
    radio_audio.insert(radio_audio.end(), tail.begin(), tail.end());
  } else {
    radio_audio.assign(audio.begin(), audio.end());
  }

  // The acoustic hop takes the burst in one call: its noise level is
  // anchored to its first chunk.
  AcousticChannel air(config_.acoustic, rng_.fork(2));
  auto out = air.process(radio_audio);
  const auto air_tail = air.finish();
  out.insert(out.end(), air_tail.begin(), air_tail.end());
  // Advance the seed so repeated transmits see fresh channel draws.
  rng_ = rng_.fork(3);
  return out;
}

}  // namespace sonic::fm
