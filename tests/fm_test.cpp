#include <gtest/gtest.h>

#include <cmath>

#include "fm/acoustic.hpp"
#include "fm/fm_modem.hpp"
#include "fm/link.hpp"
#include "modem/ofdm.hpp"
#include "modem/profile.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace sonic::fm {
namespace {

using sonic::util::kTwoPi;
using sonic::util::Rng;

std::vector<float> sine(double f, double rate, std::size_t n, float amp = 0.5f) {
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = amp * static_cast<float>(std::sin(kTwoPi * f * static_cast<double>(i) / rate));
  return out;
}

double sine_snr_db(std::span<const float> rx, double f, double rate, float amp) {
  // Fit the known sine (amplitude & phase) and measure residual power.
  double c = 0, s = 0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    const double ang = kTwoPi * f * static_cast<double>(i) / rate;
    c += rx[i] * std::cos(ang);
    s += rx[i] * std::sin(ang);
  }
  c = 2 * c / static_cast<double>(rx.size());
  s = 2 * s / static_cast<double>(rx.size());
  double resid = 0, sig = 0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    const double ang = kTwoPi * f * static_cast<double>(i) / rate;
    const double fit = c * std::cos(ang) + s * std::sin(ang);
    resid += (rx[i] - fit) * (rx[i] - fit);
    sig += fit * fit;
  }
  (void)amp;
  return sonic::util::linear_to_db(sig / std::max(resid, 1e-12));
}

// ----------------------------------------------------------------- FM ---

TEST(FmModem, CleanLoopbackRecoversSine) {
  FmParams params;
  FmModulator mod(params);
  FmDemodulator demod(params);
  const auto audio = sine(3000, params.audio_rate_hz, 8820, 0.5f);
  const auto iq = mod.modulate(audio);
  EXPECT_NEAR(static_cast<double>(iq.size()),
              audio.size() * params.iq_rate_hz / params.audio_rate_hz, 10.0);
  const auto rx = demod.demodulate(iq);
  // Skip filter transients at both ends.
  const std::size_t skip = 500;
  std::vector<float> mid(rx.begin() + skip, rx.end() - skip);
  EXPECT_GT(sine_snr_db(mid, 3000, params.audio_rate_hz, 0.5f), 30.0);
}

TEST(FmModem, ConstantEnvelope) {
  FmModulator mod;
  const auto audio = sine(5000, 44100, 4410, 0.9f);
  const auto iq = mod.modulate(audio);
  for (const auto& s : iq) EXPECT_NEAR(std::abs(s), 1.0f, 1e-3);
}

TEST(FmModem, HighCnrTransparent) {
  FmParams params;
  FmModulator mod(params);
  FmDemodulator demod(params);
  RfChannel rf({-60.0}, Rng(1));  // CNR 35 dB
  const auto audio = sine(4000, params.audio_rate_hz, 8820, 0.5f);
  const auto rx = demod.demodulate(rf.process(mod.modulate(audio)));
  const std::size_t skip = 500;
  std::vector<float> mid(rx.begin() + skip, rx.end() - skip);
  EXPECT_GT(sine_snr_db(mid, 4000, params.audio_rate_hz, 0.5f), 25.0);
}

TEST(FmModem, SnrDegradesWithRssi) {
  FmParams params;
  FmModulator mod(params);
  FmDemodulator demod(params);
  const auto audio = sine(4000, params.audio_rate_hz, 8820, 0.5f);
  const auto iq = mod.modulate(audio);
  double prev_snr = 1e9;
  for (double rssi : {-71.0, -86.0, -99.0}) {  // CNR 24, 9 and -4 dB before fading
    RfChannel rf({rssi}, Rng(2));
    const auto rx = demod.demodulate(rf.process(iq));
    const std::size_t skip = 500;
    std::vector<float> mid(rx.begin() + skip, rx.end() - skip);
    const double snr = sine_snr_db(mid, 4000, params.audio_rate_hz, 0.5f);
    EXPECT_LT(snr, prev_snr + 1.0) << "rssi " << rssi;
    prev_snr = snr;
  }
  // Below the FM threshold the audio is junk.
  EXPECT_LT(prev_snr, 10.0);
}

// ------------------------------------------------------------- Acoustic ---

TEST(Acoustic, CableIsNearTransparent) {
  AcousticParams p;
  p.distance_m = 0.0;
  p.clock_skew_ppm = 0.0;  // the fixed-phase sine fit below cannot track skew
  AcousticChannel chan(p, Rng(3));
  const auto audio = sine(9000, 44100, 44100, 0.3f);
  const auto rx = chan.process(audio);
  const std::size_t skip = 200;
  std::vector<float> mid(rx.begin() + skip, rx.end() - skip);
  EXPECT_GT(sine_snr_db(mid, 9000, 44100, 0.3f), 40.0);
  EXPECT_EQ(chan.trial_gain_db(), 0.0);
}

TEST(Acoustic, GainFallsWithDistance) {
  // Average trial gain over many seeds must decrease monotonically.
  auto mean_gain = [](double d) {
    double acc = 0;
    for (int t = 0; t < 200; ++t) {
      AcousticParams p;
      p.distance_m = d;
      AcousticChannel chan(p, Rng(100 + static_cast<std::uint64_t>(t)));
      acc += chan.trial_gain_db();
    }
    return acc / 200;
  };
  const double g10 = mean_gain(0.1);
  const double g50 = mean_gain(0.5);
  const double g100 = mean_gain(1.0);
  const double g120 = mean_gain(1.2);
  EXPECT_GT(g10, g50);
  EXPECT_GT(g50, g100);
  EXPECT_GT(g100, g120);
  // The directivity knee makes the per-meter drop beyond 1 m steeper than
  // between 0.5 and 1 m.
  EXPECT_GT((g100 - g120) / 0.2, (g50 - g100) / 0.5);
}

TEST(Acoustic, AlignmentSpreadGrowsWithDistance) {
  auto gain_stddev = [](double d) {
    std::vector<double> g;
    for (int t = 0; t < 300; ++t) {
      AcousticParams p;
      p.distance_m = d;
      AcousticChannel chan(p, Rng(500 + static_cast<std::uint64_t>(t)));
      g.push_back(chan.trial_gain_db());
    }
    double mean = 0;
    for (double v : g) mean += v;
    mean /= static_cast<double>(g.size());
    double var = 0;
    for (double v : g) var += (v - mean) * (v - mean);
    return std::sqrt(var / static_cast<double>(g.size()));
  };
  EXPECT_LT(gain_stddev(0.1), gain_stddev(1.0));
}

TEST(Acoustic, OutputLengthReflectsClockSkew) {
  AcousticParams p;
  p.distance_m = 0.0;
  p.clock_skew_ppm = 100.0;
  AcousticChannel chan(p, Rng(7));
  const std::vector<float> audio(100000, 0.1f);
  const auto rx = chan.process(audio);
  EXPECT_NEAR(static_cast<double>(rx.size()), 100000.0, 11.0);  // +-100 ppm
  EXPECT_NE(rx.size(), 0u);
}

// -------------------------------------------------- End-to-end FM + OFDM ---

TEST(FmLink, OfdmOverCableDecodesAllFrames) {
  modem::OfdmModem ofdm(*modem::profiles::get("sonic-10k"));
  Rng rng(11);
  std::vector<util::Bytes> frames;
  for (int i = 0; i < 5; ++i) {
    util::Bytes f(100);
    for (auto& b : f) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    frames.push_back(f);
  }
  const auto tx = ofdm.modulate(frames);

  FmLinkConfig cfg;
  cfg.rf.rssi_db = -70.0;  // comfortably above threshold (paper: no loss)
  cfg.acoustic.distance_m = 0.0;
  cfg.seed = 42;
  FmLink link(cfg);
  const auto rx = link.transmit(tx);
  const auto burst = ofdm.receive_one(rx);
  ASSERT_TRUE(burst.has_value());
  EXPECT_EQ(burst->frames_ok(), frames.size()) << "snr=" << burst->snr_db;
}

TEST(FmLink, OfdmFailsBelowFmThreshold) {
  modem::OfdmModem ofdm(*modem::profiles::get("sonic-10k"));
  Rng rng(12);
  std::vector<util::Bytes> frames;
  for (int i = 0; i < 3; ++i) {
    util::Bytes f(100);
    for (auto& b : f) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    frames.push_back(f);
  }
  const auto tx = ofdm.modulate(frames);

  FmLinkConfig cfg;
  cfg.rf.rssi_db = -95.0;  // paper: below -90 dB nothing is received
  cfg.acoustic.distance_m = 0.0;
  cfg.seed = 43;
  FmLink link(cfg);
  const auto rx = link.transmit(tx);
  const auto burst = ofdm.receive_one(rx);
  const std::size_t ok = burst ? burst->frames_ok() : 0;
  EXPECT_EQ(ok, 0u);
}

TEST(FmLink, RfBypassMatchesHighRssiBehaviour) {
  modem::OfdmModem ofdm(*modem::profiles::get("sonic-10k"));
  Rng rng(13);
  std::vector<util::Bytes> frames;
  for (int i = 0; i < 3; ++i) {
    util::Bytes f(100);
    for (auto& b : f) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    frames.push_back(f);
  }
  const auto tx = ofdm.modulate(frames);
  FmLinkConfig cfg;
  cfg.enable_rf = false;
  cfg.acoustic.distance_m = 0.0;
  cfg.seed = 44;
  FmLink link(cfg);
  const auto rx = link.transmit(tx);
  const auto burst = ofdm.receive_one(rx);
  ASSERT_TRUE(burst.has_value());
  EXPECT_EQ(burst->frames_ok(), frames.size());
}

}  // namespace
}  // namespace sonic::fm
