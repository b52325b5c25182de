// Ablation: contribution of each FEC stage in the §3.3 stack
// (crc32 + inner conv v29 + outer rs8 + bit interleaving).
//
// Sweeps the audio SNR across the decode cliff and reports frame loss for:
//   full        - v29 r3/4 + RS(16) + interleave (the sonic-10k stack)
//   no-rs       - inner code only
//   r12-heavy   - v29 r1/2 + RS(32): the robustness end of the trade
//
//   ./ablation_fec [--trials 5] [--frames 12]
#include <cstdio>

#include "bench_util.hpp"
#include "fm/acoustic.hpp"
#include "modem/ofdm.hpp"
#include "modem/profile.hpp"
#include "util/rng.hpp"

using namespace sonic;

namespace {

double run_trial(const modem::OfdmProfile& profile, double snr_db, int frames, std::uint64_t seed) {
  modem::OfdmModem modem(profile);
  util::Rng rng(seed);
  std::vector<util::Bytes> payload;
  for (int i = 0; i < frames; ++i) {
    util::Bytes f(100);
    for (auto& b : f) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    payload.push_back(std::move(f));
  }
  auto audio = modem.modulate(payload);
  // AWGN at the target audio SNR.
  double power = 0;
  for (float s : audio) power += static_cast<double>(s) * s;
  power /= static_cast<double>(audio.size());
  const double sigma = std::sqrt(power / std::pow(10.0, snr_db / 10.0));
  for (auto& s : audio) s += static_cast<float>(rng.normal(0.0, sigma));
  const auto burst = modem.receive_one(audio);
  const std::size_t ok = burst ? burst->frames_ok() : 0;
  return 1.0 - static_cast<double>(ok) / frames;
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = bench::arg_int(argc, argv, "--trials", 5);
  const int frames = bench::arg_int(argc, argv, "--frames", 12);

  struct Variant {
    const char* label;
    modem::OfdmProfile profile;
  };
  std::vector<Variant> variants;
  {
    Variant v{"full (v29 3/4 + rs16 + il)", *modem::profiles::get("sonic-10k")};
    variants.push_back(v);
  }
  {
    Variant v{"no-rs", *modem::profiles::get("sonic-10k")};
    v.profile.rs_nroots = 0;
    variants.push_back(v);
  }
  {
    Variant v{"r12-heavy (v29 1/2 + rs32)", *modem::profiles::get("sonic-10k")};
    v.profile.conv.rate = fec::PunctureRate::kRate1_2;
    v.profile.rs_nroots = 32;
    variants.push_back(v);
  }

  std::printf("FEC ablation: frame loss (%%) vs audio SNR, %d trials x %d frames\n\n", trials,
              frames);
  std::printf("%-28s", "variant / SNR dB");
  for (int snr = 16; snr >= 6; snr -= 2) std::printf(" %6d", snr);
  std::printf("   net kbps\n");

  for (const auto& variant : variants) {
    std::printf("%-28s", variant.label);
    for (int snr = 16; snr >= 6; snr -= 2) {
      double loss = 0;
      for (int t = 0; t < trials; ++t) {
        loss += run_trial(variant.profile, snr, frames,
                          static_cast<std::uint64_t>(snr * 100 + t) ^ 0xabcdef);
      }
      std::printf(" %6.0f", 100.0 * loss / trials);
    }
    std::printf(" %9.1f\n", variant.profile.net_bit_rate(100, 16) / 1000.0);
  }

  std::printf("\nreading: each stage buys cliff margin; the paper's combined stack (\"crc32,\n");
  std::printf("inner v29, outer rs8\") trades ~25%% of raw rate for several dB of robustness.\n");
  std::printf("The interleaver matters under bursty (acoustic) noise rather than AWGN; see\n");
  std::printf("the PacketCodec burst tests in tests/modem_test.cpp.\n");
  return 0;
}
