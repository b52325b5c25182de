#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "modem/fsk.hpp"
#include "modem/ofdm.hpp"
#include "modem/packet.hpp"
#include "modem/profile.hpp"
#include "modem/qam.hpp"
#include "oracles/modem_reference.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace sonic::modem {
namespace {

using sonic::util::Bytes;
using sonic::util::Rng;

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

void add_awgn(std::vector<float>& samples, double snr_db, Rng& rng) {
  double power = 0;
  for (float s : samples) power += static_cast<double>(s) * s;
  power /= static_cast<double>(samples.size());
  const double noise_power = power / sonic::util::db_to_linear(snr_db);
  const double sigma = std::sqrt(noise_power);
  for (auto& s : samples) s += static_cast<float>(rng.normal(0.0, sigma));
}

// Minimum distance between the points `qam` maps to.
float min_distance(const QamMapper& qam) {
  const auto order = static_cast<std::uint32_t>(qam.constellation());
  float d = std::numeric_limits<float>::max();
  for (std::uint32_t a = 0; a < order; ++a) {
    for (std::uint32_t b = a + 1; b < order; ++b) d = std::min(d, std::abs(qam.map(a) - qam.map(b)));
  }
  return d;
}

// ------------------------------------------------------------------ QAM ---

class QamTest : public ::testing::TestWithParam<Constellation> {};

TEST_P(QamTest, MapDemapRoundTrip) {
  QamMapper qam(GetParam());
  for (std::uint32_t v = 0; v < static_cast<std::uint32_t>(GetParam()); ++v) {
    EXPECT_EQ(oracles::qam_demap_hard_reference(qam, qam.map(v)), v) << "label " << v;
  }
}

TEST_P(QamTest, UnitAverageEnergy) {
  QamMapper qam(GetParam());
  double energy = 0;
  const int order = static_cast<int>(GetParam());
  for (std::uint32_t v = 0; v < static_cast<std::uint32_t>(order); ++v) energy += std::norm(qam.map(v));
  EXPECT_NEAR(energy / order, 1.0, 1e-4);
}

TEST_P(QamTest, SoftDemapAgreesWithHardAtHighSnr) {
  QamMapper qam(GetParam());
  const int bits = qam.bits_per_symbol();
  std::vector<float> soft(static_cast<std::size_t>(bits));
  for (std::uint32_t v = 0; v < static_cast<std::uint32_t>(GetParam()); ++v) {
    const cplx point = qam.map(v);
    qam.demap_soft(std::span(&point, 1), 1e-4f, soft);
    std::uint32_t recovered = 0;
    for (int b = 0; b < bits; ++b) recovered = (recovered << 1) | (soft[static_cast<std::size_t>(b)] > 0.5f ? 1u : 0u);
    EXPECT_EQ(recovered, v);
    for (float s : soft) EXPECT_TRUE(s < 0.01f || s > 0.99f);  // confident
  }
}

TEST_P(QamTest, SoftDemapUncertainNearBoundary) {
  QamMapper qam(GetParam());
  const int bits = qam.bits_per_symbol();
  std::vector<float> soft(static_cast<std::size_t>(bits));
  // A symbol exactly between the two BPSK/axis points must give ~0.5 on the
  // deciding bit.
  const cplx origin(0.0f, 0.0f);
  qam.demap_soft(std::span(&origin, 1), 0.5f, soft);
  bool any_uncertain = false;
  for (float s : soft) any_uncertain |= (s > 0.3f && s < 0.7f);
  EXPECT_TRUE(any_uncertain);
}

INSTANTIATE_TEST_SUITE_P(AllConstellations, QamTest,
                         ::testing::Values(Constellation::kBpsk, Constellation::kQpsk,
                                           Constellation::kQam16, Constellation::kQam64,
                                           Constellation::kQam256, Constellation::kQam1024),
                         [](const auto& info) { return std::string(constellation_name(info.param)); });

TEST(Qam, GrayNeighborsDifferInOneBit) {
  QamMapper qam(Constellation::kQam64);
  // Adjacent constellation points along either axis differ in exactly one
  // bit — the property that makes soft demapping effective.
  const float d = min_distance(qam);
  for (std::uint32_t v = 0; v < 64; ++v) {
    const cplx p = qam.map(v);
    for (const cplx offset : {cplx(d, 0.0f), cplx(0.0f, d)}) {
      const cplx q = p + offset;
      if (std::abs(q.real()) > 1.1f || std::abs(q.imag()) > 1.1f) continue;
      const std::uint32_t w = oracles::qam_demap_hard_reference(qam, q);
      if (w == v) continue;  // q landed outside the grid
      const int diff = __builtin_popcount(v ^ w);
      EXPECT_EQ(diff, 1) << "labels " << v << " vs " << w;
    }
  }
}

TEST(Qam, MinDistanceShrinksWithOrder) {
  EXPECT_GT(min_distance(QamMapper(Constellation::kQpsk)),
            min_distance(QamMapper(Constellation::kQam16)));
  EXPECT_GT(min_distance(QamMapper(Constellation::kQam16)),
            min_distance(QamMapper(Constellation::kQam64)));
  EXPECT_GT(min_distance(QamMapper(Constellation::kQam64)),
            min_distance(QamMapper(Constellation::kQam1024)));
}

// ----------------------------------------------------------- PacketCodec ---

TEST(PacketCodec, CleanRoundTrip) {
  PacketCodec codec(PacketSpec{});
  Rng rng(1);
  for (std::size_t len : {1u, 100u, 300u, 1000u}) {
    const Bytes payload = random_bytes(rng, len);
    const Bytes coded = codec.encode(payload);
    const std::size_t nbits = codec.encoded_bits(len);
    EXPECT_EQ(coded.size(), (nbits + 7) / 8);
    std::vector<float> soft(nbits);
    util::BitReader br(coded);
    for (auto& s : soft) s = static_cast<float>(br.bit());
    const auto decoded = codec.decode(soft, len);
    ASSERT_TRUE(decoded.has_value()) << len;
    EXPECT_EQ(*decoded, payload);
  }
}

TEST(PacketCodec, SurvivesBurstErrors) {
  // The stride interleaver must spread a burst across the Viterbi input.
  PacketCodec codec(PacketSpec{{fec::ConvCode::kV29, fec::PunctureRate::kRate1_2}, 16, 223, true});
  Rng rng(2);
  const Bytes payload = random_bytes(rng, 100);
  const Bytes coded = codec.encode(payload);
  const std::size_t nbits = codec.encoded_bits(100);
  std::vector<float> soft(nbits);
  util::BitReader br(coded);
  for (auto& s : soft) s = static_cast<float>(br.bit());
  // A burst of 40 erased bits.
  const std::size_t burst_at = nbits / 3;
  for (std::size_t i = 0; i < 40; ++i) soft[burst_at + i] = 0.5f;
  const auto decoded = codec.decode(soft, 100);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST(PacketCodec, WithoutInterleaverBurstsAreWorse) {
  // Sanity for the ablation: identical burst, interleaver off, conv-only.
  PacketSpec spec{{fec::ConvCode::kV29, fec::PunctureRate::kRate1_2}, 0, 223, false};
  PacketCodec codec(spec);
  Rng rng(3);
  const Bytes payload = random_bytes(rng, 100);
  const Bytes coded = codec.encode(payload);
  const std::size_t nbits = codec.encoded_bits(100);
  std::vector<float> soft(nbits);
  util::BitReader br(coded);
  for (auto& s : soft) s = static_cast<float>(br.bit());
  // A hard-corrupted burst (inverted, not erased) longer than the Viterbi
  // traceback can bridge without interleaving or RS.
  const std::size_t burst_at = nbits / 2;
  for (std::size_t i = 0; i < 120; ++i) soft[burst_at + i] = 1.0f - soft[burst_at + i];
  EXPECT_FALSE(codec.decode(soft, 100).has_value());
}

TEST(PacketCodec, DetectsCorruptionBeyondFec) {
  PacketCodec codec(PacketSpec{});
  Rng rng(4);
  const Bytes payload = random_bytes(rng, 100);
  const Bytes coded = codec.encode(payload);
  const std::size_t nbits = codec.encoded_bits(100);
  std::vector<float> soft(nbits);
  // Total garbage.
  for (auto& s : soft) s = static_cast<float>(rng.uniform());
  const auto decoded = codec.decode(soft, 100);
  if (decoded.has_value()) {
    // Astronomically unlikely; if FEC "decodes", CRC must have caught it.
    EXPECT_NE(*decoded, payload);
    FAIL() << "garbage decoded as valid packet";
  }
}

TEST(PacketCodec, ExpansionMatchesSpec) {
  // v29 r1/2 + rs(255,223) on 100B payload: (104+32)*2*8 bits + flush.
  PacketCodec codec(PacketSpec{{fec::ConvCode::kV29, fec::PunctureRate::kRate1_2}, 32, 223, true});
  EXPECT_EQ(codec.encoded_bits(100), ((100 + 4 + 32) * 8 + 8) * 2u);
  EXPECT_NEAR(codec.expansion(100), 2.73, 0.02);
}

TEST(Crc16, KnownVector) {
  const std::string s = "123456789";
  const std::vector<std::uint8_t> data(s.begin(), s.end());
  EXPECT_EQ(crc16_ccitt(data), 0x29b1);  // CRC-16/CCITT-FALSE check value
}

// -------------------------------------------------------------- Profiles ---

TEST(Profiles, Sonic10kMatchesPaperParameters) {
  const auto p = *profiles::get("sonic-10k");
  EXPECT_EQ(p.num_subcarriers, 92);         // §3.3: 92 subcarriers
  EXPECT_NEAR(p.carrier_hz, 9200.0, 1.0);   // §4: 9.2 kHz carrier
  EXPECT_EQ(p.conv.code, fec::ConvCode::kV29);
  EXPECT_GT(p.rs_nroots, 0);
  // The paper's headline rate: ~10 kbps net.
  EXPECT_GE(p.net_bit_rate(100, 16), 9500.0);
  EXPECT_LE(p.net_bit_rate(100, 16), 12000.0);
}

TEST(Profiles, BandFitsFmMonoChannel) {
  // §4: mono channel spans 30 Hz - 15 kHz.
  for (const auto& p : profiles::all()) {
    const double lo = p.first_bin() * p.subcarrier_spacing_hz();
    const double hi = (p.first_bin() + p.num_subcarriers) * p.subcarrier_spacing_hz();
    EXPECT_GT(lo, 30.0) << p.name;
    EXPECT_LT(hi, 15000.0) << p.name;
  }
}

TEST(Profiles, RateLadderIsOrdered) {
  EXPECT_LT(profiles::get("robust-2k")->net_bit_rate(), profiles::get("audible-7k")->net_bit_rate());
  EXPECT_LT(profiles::get("audible-7k")->net_bit_rate(), profiles::get("sonic-10k")->net_bit_rate());
  EXPECT_LT(profiles::get("sonic-10k")->net_bit_rate(), profiles::get("cable-64k")->net_bit_rate(1000, 8));
  // Quiet's cable claim: tens of kbps over the audio jack.
  EXPECT_GT(profiles::get("cable-64k")->net_bit_rate(1000, 8), 40000.0);
}

TEST(ProfileRegistry, BuiltinsRegisteredSlowestFirst) {
  const auto names = profiles::names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names[0], "robust-2k");
  EXPECT_EQ(names[1], "audible-7k");
  EXPECT_EQ(names[2], "sonic-10k");
  EXPECT_EQ(names[3], "cable-64k");
  const auto all = profiles::all();
  ASSERT_EQ(all.size(), names.size());
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].name, names[i]);
}

TEST(ProfileRegistry, LookupIsLooseOnPunctuationAndCase) {
  ASSERT_TRUE(profiles::get("sonic-10k").has_value());
  ASSERT_TRUE(profiles::get("sonic10k").has_value());
  ASSERT_TRUE(profiles::get("SONIC 10K").has_value());
  EXPECT_EQ(profiles::get("sonic10k")->name, "sonic-10k");
  EXPECT_EQ(profiles::get("sonic10k")->net_bit_rate(100, 16),
            profiles::get("sonic-10k")->net_bit_rate(100, 16));
  EXPECT_FALSE(profiles::get("warp-1m").has_value());
  EXPECT_FALSE(profiles::get("").has_value());
}

// ------------------------------------------------------------------ OFDM ---

class OfdmLoopbackTest : public ::testing::TestWithParam<int> {};

TEST_P(OfdmLoopbackTest, CleanLoopbackAllProfiles) {
  const auto profiles = profiles::all();
  const auto& profile = profiles[static_cast<std::size_t>(GetParam())];
  OfdmModem modem(profile);
  Rng rng(10);
  std::vector<Bytes> frames;
  for (int i = 0; i < 5; ++i) frames.push_back(random_bytes(rng, 100));
  auto samples = modem.modulate(frames);
  // Prepend/append silence so sync must actually find the burst.
  std::vector<float> stream(2000, 0.0f);
  stream.insert(stream.end(), samples.begin(), samples.end());
  stream.insert(stream.end(), 3000, 0.0f);
  const auto burst = modem.receive_one(stream);
  ASSERT_TRUE(burst.has_value()) << profile.name;
  ASSERT_EQ(burst->frames.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(burst->frames[i].has_value()) << profile.name << " frame " << i;
    EXPECT_EQ(*burst->frames[i], frames[i]);
  }
  EXPECT_EQ(burst->frame_loss_rate(), 0.0);
  EXPECT_GT(burst->snr_db, 15.0f);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, OfdmLoopbackTest, ::testing::Values(0, 1, 2, 3),
                         [](const auto& info) {
                           std::string name = profiles::all()[static_cast<std::size_t>(info.param)].name;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Ofdm, NoisyLoopbackSonic10k) {
  OfdmModem modem(*profiles::get("sonic-10k"));
  Rng rng(11);
  std::vector<Bytes> frames;
  for (int i = 0; i < 10; ++i) frames.push_back(random_bytes(rng, 100));
  auto samples = modem.modulate(frames);
  add_awgn(samples, 30.0, rng);
  const auto burst = modem.receive_one(samples);
  ASSERT_TRUE(burst.has_value());
  EXPECT_EQ(burst->frames_ok(), frames.size());
}

TEST(Ofdm, RobustProfileSurvivesLowSnr) {
  OfdmModem modem(*profiles::get("robust-2k"));
  Rng rng(12);
  std::vector<Bytes> frames;
  for (int i = 0; i < 4; ++i) frames.push_back(random_bytes(rng, 100));
  auto samples = modem.modulate(frames);
  add_awgn(samples, 12.0, rng);
  const auto burst = modem.receive_one(samples);
  ASSERT_TRUE(burst.has_value());
  EXPECT_EQ(burst->frames_ok(), frames.size());
}

TEST(Ofdm, HighOrderProfileDiesAtLowSnrButRobustLives) {
  // The rate/robustness trade the profile ladder encodes.
  Rng rng(13);
  std::vector<Bytes> frames;
  for (int i = 0; i < 4; ++i) frames.push_back(random_bytes(rng, 100));

  OfdmModem fast(*profiles::get("sonic-10k"));
  auto noisy = fast.modulate(frames);
  add_awgn(noisy, 10.0, rng);
  const auto fast_burst = fast.receive_one(noisy);
  const std::size_t fast_ok = fast_burst ? fast_burst->frames_ok() : 0;
  EXPECT_LT(fast_ok, frames.size());
}

TEST(Ofdm, ReceiveAllFindsMultipleBursts) {
  OfdmModem modem(*profiles::get("sonic-10k"));
  Rng rng(14);
  std::vector<float> stream(1000, 0.0f);
  std::vector<std::vector<Bytes>> sent;
  for (int b = 0; b < 3; ++b) {
    std::vector<Bytes> frames;
    for (int i = 0; i < 3; ++i) frames.push_back(random_bytes(rng, 50));
    sent.push_back(frames);
    const auto s = modem.modulate(frames);
    stream.insert(stream.end(), s.begin(), s.end());
    stream.insert(stream.end(), 500, 0.0f);
  }
  const auto bursts = modem.receive_all(stream);
  ASSERT_EQ(bursts.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    ASSERT_EQ(bursts[b].frames.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(bursts[b].frames[i].has_value());
      EXPECT_EQ(*bursts[b].frames[i], sent[b][i]);
    }
  }
}

TEST(Ofdm, ReceiveOneSkipsUndecodableFirstBurst) {
  // The first burst's preambles are intact but its header is noise: sync
  // succeeds, the header fails, and the receiver must resync onto the next
  // burst rather than report nothing.
  OfdmModem modem(*profiles::get("sonic-10k"));
  Rng rng(19);
  std::vector<std::vector<Bytes>> sent;
  std::vector<float> stream(1000, 0.0f);
  std::vector<std::size_t> starts;
  for (int b = 0; b < 2; ++b) {
    std::vector<Bytes> frames;
    for (int i = 0; i < 3; ++i) frames.push_back(random_bytes(rng, 60));
    sent.push_back(frames);
    starts.push_back(stream.size());
    const auto s = modem.modulate(frames);
    stream.insert(stream.end(), s.begin(), s.end());
    stream.insert(stream.end(), 800, 0.0f);
  }
  const std::size_t symbol =
      static_cast<std::size_t>(modem.profile().fft_size + modem.profile().cp_len);
  for (std::size_t i = starts[0] + 2 * symbol; i < starts[0] + 4 * symbol; ++i) {
    stream[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }

  const auto burst = modem.receive_one(stream);
  ASSERT_TRUE(burst.has_value());
  EXPECT_NEAR(static_cast<double>(burst->start_sample), static_cast<double>(starts[1]), 4.0);
  ASSERT_EQ(burst->frames.size(), sent[1].size());
  for (std::size_t i = 0; i < sent[1].size(); ++i) {
    ASSERT_TRUE(burst->frames[i].has_value()) << i;
    EXPECT_EQ(*burst->frames[i], sent[1][i]);
  }
}

TEST(Ofdm, ReceiveAllDecodesRecordingLongerThanReceiverCap) {
  // A recording longer than the receiver's buffer cap, with bursts at both
  // ends and in the middle: receive_all must feed it through in pieces and
  // report every burst at its offset in the whole recording.
  OfdmModem modem(*profiles::get("sonic-10k"));
  Rng rng(20);
  const std::size_t spacing = OfdmModem::kMaxBurstSamples / 2 + 12345;
  std::vector<std::vector<Bytes>> sent;
  std::vector<std::size_t> starts;
  std::vector<float> stream(500, 0.0f);
  for (int b = 0; b < 3; ++b) {
    std::vector<Bytes> frames;
    for (int i = 0; i < 2; ++i) frames.push_back(random_bytes(rng, 40));
    sent.push_back(frames);
    starts.push_back(stream.size());
    const auto s = modem.modulate(frames);
    stream.insert(stream.end(), s.begin(), s.end());
    if (b < 2) stream.resize(starts.back() + spacing, 0.0f);
  }
  stream.insert(stream.end(), 700, 0.0f);
  ASSERT_GT(stream.size(), OfdmModem::kMaxBurstSamples);

  const auto bursts = modem.receive_all(stream);
  ASSERT_EQ(bursts.size(), sent.size());
  for (std::size_t b = 0; b < sent.size(); ++b) {
    EXPECT_EQ(bursts[b].start_sample, starts[b]) << "burst " << b;
    ASSERT_EQ(bursts[b].frames.size(), sent[b].size()) << "burst " << b;
    for (std::size_t i = 0; i < sent[b].size(); ++i) {
      ASSERT_TRUE(bursts[b].frames[i].has_value()) << "burst " << b << " frame " << i;
      EXPECT_EQ(*bursts[b].frames[i], sent[b][i]);
    }
  }
}

TEST(Ofdm, PreambleAtOffsetZeroDecodes) {
  // No leading silence at all: the burst begins at sample 0, so the fine
  // timing search ranges over negative candidates.
  OfdmModem modem(*profiles::get("sonic-10k"));
  Rng rng(16);
  std::vector<Bytes> frames;
  for (int i = 0; i < 3; ++i) frames.push_back(random_bytes(rng, 80));
  auto samples = modem.modulate(frames);
  samples.insert(samples.end(), 3000, 0.0f);
  const auto burst = modem.receive_one(samples);
  ASSERT_TRUE(burst.has_value());
  EXPECT_EQ(burst->start_sample, 0u);
  EXPECT_EQ(burst->frames_ok(), frames.size());
}

TEST(Ofdm, TruncatedLeadingPrefixDoesNotUnderflowBurstStart) {
  // Regression: a stream cut a few samples into preamble A's cyclic prefix
  // puts the true burst start before sample 0. The fine-timing candidate for
  // that position used to compute start = b_start - sym with b_start < sym,
  // wrapping size_t to ~2^64 and decoding a burst with a garbage
  // start_sample. Such candidates are now clamped out, and the closest legal
  // alignment (a few samples late, inside the CP backoff) decodes instead.
  OfdmModem modem(*profiles::get("sonic-10k"));
  Rng rng(17);
  std::vector<Bytes> frames;
  for (int i = 0; i < 3; ++i) frames.push_back(random_bytes(rng, 80));
  auto samples = modem.modulate(frames);
  samples.insert(samples.end(), 3000, 0.0f);
  const auto chopped = std::span(samples).subspan(5);
  const auto burst = modem.receive_one(chopped);
  if (burst.has_value()) {
    EXPECT_LE(burst->start_sample, chopped.size());
    EXPECT_LE(burst->end_sample, chopped.size());
    EXPECT_EQ(burst->frames_ok(), frames.size());
  }
}

TEST(Ofdm, SilenceYieldsNothing) {
  OfdmModem modem(*profiles::get("sonic-10k"));
  std::vector<float> silence(50000, 0.0f);
  EXPECT_FALSE(modem.receive_one(silence).has_value());
}

TEST(Ofdm, PureNoiseYieldsNothing) {
  OfdmModem modem(*profiles::get("sonic-10k"));
  Rng rng(15);
  std::vector<float> noise(60000);
  for (auto& s : noise) s = static_cast<float>(rng.normal(0.0, 0.1));
  const auto burst = modem.receive_one(noise);
  if (burst.has_value()) {
    // A false sync is tolerable only if every frame is rejected.
    EXPECT_EQ(burst->frames_ok(), 0u);
  }
}

TEST(Ofdm, AmplitudeScalingTolerance) {
  // Automatic gain: the receiver must handle attenuated signals.
  OfdmModem modem(*profiles::get("sonic-10k"));
  Rng rng(16);
  std::vector<Bytes> frames{random_bytes(rng, 100)};
  auto samples = modem.modulate(frames);
  for (auto& s : samples) s *= 0.05f;  // -26 dB
  const auto burst = modem.receive_one(samples);
  ASSERT_TRUE(burst.has_value());
  EXPECT_EQ(burst->frames_ok(), 1u);
}

TEST(Ofdm, TimingOffsetHalfSymbolStillSyncs) {
  OfdmModem modem(*profiles::get("sonic-10k"));
  Rng rng(17);
  std::vector<Bytes> frames{random_bytes(rng, 100)};
  const auto samples = modem.modulate(frames);
  // Odd, non-round prefix length.
  std::vector<float> stream(777, 0.0f);
  stream.insert(stream.end(), samples.begin(), samples.end());
  const auto burst = modem.receive_one(stream);
  ASSERT_TRUE(burst.has_value());
  EXPECT_EQ(burst->frames_ok(), 1u);
  EXPECT_NEAR(static_cast<double>(burst->start_sample), 777.0, 4.0);
}

TEST(Ofdm, BurstSamplesMatchesModulateOutput) {
  OfdmModem modem(*profiles::get("sonic-10k"));
  Rng rng(18);
  for (std::size_t count : {1u, 7u}) {
    std::vector<Bytes> frames;
    for (std::size_t i = 0; i < count; ++i) frames.push_back(random_bytes(rng, 100));
    EXPECT_EQ(modem.modulate(frames).size(), modem.burst_samples(100, count));
  }
}

TEST(Ofdm, RejectsMalformedBursts) {
  OfdmModem modem(*profiles::get("sonic-10k"));
  EXPECT_THROW(modem.modulate({}), std::invalid_argument);
  EXPECT_THROW(modem.modulate({Bytes{}}), std::invalid_argument);
  EXPECT_THROW(modem.modulate({Bytes{1, 2}, Bytes{1, 2, 3}}), std::invalid_argument);
}

// ------------------------------------------------------------------- FSK ---

TEST(Fsk, CleanRoundTrip) {
  FskModem modem(FskProfile{});
  Rng rng(20);
  const Bytes payload = random_bytes(rng, 32);
  auto samples = modem.modulate(payload);
  std::vector<float> stream(1234, 0.0f);
  stream.insert(stream.end(), samples.begin(), samples.end());
  const auto decoded = modem.demodulate(stream);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST(Fsk, NoisyRoundTrip) {
  FskModem modem(FskProfile{});
  Rng rng(21);
  const Bytes payload = random_bytes(rng, 16);
  auto samples = modem.modulate(payload);
  add_awgn(samples, 15.0, rng);
  const auto decoded = modem.demodulate(samples);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST(Fsk, CrcRejectsHeavyCorruption) {
  FskModem modem(FskProfile{});
  Rng rng(22);
  const Bytes payload = random_bytes(rng, 16);
  auto samples = modem.modulate(payload);
  // Obliterate the data section (keep the preamble so sync works): the
  // decoder will read random symbols and the CRC must reject them.
  const std::size_t data_start = static_cast<std::size_t>(modem.profile().samples_per_symbol()) * 8;
  for (std::size_t i = data_start; i < samples.size(); ++i) {
    samples[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  const auto decoded = modem.demodulate(samples);
  if (decoded.has_value()) {
    EXPECT_NE(*decoded, payload) << "CRC must catch corruption";
  }
}

TEST(Fsk, RateIsOrdersOfMagnitudeBelowOfdm) {
  // The motivating comparison from the paper's §2: GGwave-class FSK is
  // hundreds of bps; the OFDM profile is ~10 kbps.
  FskProfile fsk;
  EXPECT_LT(fsk.bit_rate(), 1000.0);
  EXPECT_GT(profiles::get("sonic-10k")->net_bit_rate(), 10.0 * fsk.bit_rate());
}

TEST(Fsk, RejectsBadProfiles) {
  FskProfile p;
  p.num_tones = 12;  // not a power of two
  EXPECT_THROW(FskModem{p}, std::invalid_argument);
  FskProfile q;
  q.base_hz = 21000;
  q.num_tones = 16;
  q.tone_spacing_hz = 200;
  EXPECT_THROW(FskModem{q}, std::invalid_argument);
}

}  // namespace
}  // namespace sonic::modem
