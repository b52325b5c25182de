#include "fm/link.hpp"

namespace sonic::fm {

FmLink::FmLink(FmLinkConfig config) : config_(std::move(config)), rng_(config_.seed) {}

std::vector<float> FmLink::transmit(std::span<const float> audio) {
  std::vector<float> radio_audio;
  if (config_.enable_rf) {
    FmModulator mod(config_.fm);
    FmDemodulator demod(config_.fm);
    RfChannel rf(config_.rf, rng_.fork(1));
    const auto iq_tx = mod.modulate(audio);
    const auto iq_rx = rf.process(iq_tx);
    radio_audio = demod.demodulate(iq_rx);
    const auto tail = demod.finish();
    radio_audio.insert(radio_audio.end(), tail.begin(), tail.end());
  } else {
    radio_audio.assign(audio.begin(), audio.end());
  }

  AcousticChannel air(config_.acoustic, rng_.fork(2));
  auto out = air.process(radio_audio);
  const auto air_tail = air.finish();
  out.insert(out.end(), air_tail.begin(), air_tail.end());
  // Advance the seed so repeated transmits see fresh channel draws.
  rng_ = rng_.fork(3);
  return out;
}

}  // namespace sonic::fm
