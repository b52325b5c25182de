#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace sonic::util {
namespace {

TEST(ByteWriterReader, RoundTripsScalars) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.str("hello");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, OverrunSetsNotOk) {
  Bytes data{1, 2};
  ByteReader r(data);
  EXPECT_EQ(r.u16(), 0x0201);
  EXPECT_TRUE(r.ok());
  r.u32();
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, StrWithHugeLengthFailsCleanly) {
  ByteWriter w;
  w.u32(0xffffffffu);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(BitWriterReader, RoundTripsBits) {
  BitWriter w;
  w.bits(0b1011, 4);
  w.bits(0x3ff, 10);
  w.bit(1);
  BitReader r(w.bytes());
  EXPECT_EQ(r.bits(4), 0b1011u);
  EXPECT_EQ(r.bits(10), 0x3ffu);
  EXPECT_EQ(r.bit(), 1);
  EXPECT_TRUE(r.ok());
}

TEST(BitWriterReader, MsbFirstPacking) {
  BitWriter w;
  w.bit(1);  // becomes the MSB of byte 0
  for (int i = 0; i < 7; ++i) w.bit(0);
  ASSERT_EQ(w.bytes().size(), 1u);
  EXPECT_EQ(w.bytes()[0], 0x80);
}

TEST(BitWriter, BitCountTracksPartialBytes) {
  BitWriter w;
  w.bits(0, 3);
  EXPECT_EQ(w.bit_count(), 3u);
  w.bits(0, 8);
  EXPECT_EQ(w.bit_count(), 11u);
}

TEST(BitReader, PastEndReturnsZeroAndNotOk) {
  Bytes data{0xff};
  BitReader r(data);
  EXPECT_EQ(r.bits(8), 0xffu);
  EXPECT_EQ(r.bit(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntUnbiasedish) {
  Rng rng(11);
  std::map<std::uint64_t, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(6)];
  for (const auto& [v, c] : counts) {
    EXPECT_LT(v, 6u);
    EXPECT_NEAR(c, n / 6, n / 60);
  }
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng(19);
  std::map<int, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(25, 1.0)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[24]);
  for (const auto& [rank, c] : counts) {
    EXPECT_GE(rank, 0);
    EXPECT_LT(rank, 25);
    (void)c;
  }
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng base(99);
  Rng a = base.fork(1);
  Rng b = base.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
  // Forks are deterministic too.
  Rng c = Rng(99).fork(1);
  Rng d = Rng(99).fork(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c.next(), d.next());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Units, DbLinearRoundTrip) {
  for (double db : {-90.0, -10.0, 0.0, 3.0, 20.0}) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9);
    EXPECT_NEAR(20.0 * std::log10(db_to_amplitude(db)), db, 1e-9);
  }
  EXPECT_NEAR(db_to_linear(3.0103), 2.0, 1e-3);
  EXPECT_NEAR(db_to_amplitude(6.0206), 2.0, 1e-3);
}

}  // namespace
}  // namespace sonic::util

// Appended: WAV I/O tests (sonic_tx / sonic_rx substrate).
#include "util/wav.hpp"

namespace sonic::util {
namespace {

TEST(Wav, RoundTripsMonoPcm) {
  std::vector<float> samples(4410);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = 0.5f * static_cast<float>(std::sin(0.05 * static_cast<double>(i)));
  }
  const std::string path = "/tmp/sonic_wav_test.wav";
  write_wav(path, samples, 44100);
  const WavData back = read_wav(path);
  EXPECT_EQ(back.sample_rate_hz, 44100);
  ASSERT_EQ(back.samples.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); i += 100) {
    EXPECT_NEAR(back.samples[i], samples[i], 1.0 / 12000.0);
  }
  std::remove(path.c_str());
}

TEST(Wav, ClampsOutOfRangeSamples) {
  const std::string path = "/tmp/sonic_wav_clamp.wav";
  write_wav(path, {2.0f, -2.0f, 0.0f}, 8000);
  const WavData back = read_wav(path);
  ASSERT_EQ(back.samples.size(), 3u);
  EXPECT_NEAR(back.samples[0], 1.0f, 0.001f);
  EXPECT_NEAR(back.samples[1], -1.0f, 0.001f);
  std::remove(path.c_str());
}

TEST(Wav, RejectsGarbageFiles) {
  const std::string path = "/tmp/sonic_wav_bad.wav";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a wav file at all", f);
  std::fclose(f);
  EXPECT_THROW(read_wav(path), std::runtime_error);
  EXPECT_THROW(read_wav("/tmp/definitely-missing-file.wav"), std::runtime_error);
  std::remove(path.c_str());
}

// Rewrites the file as its first `keep` bytes with the little-endian u32 at
// `offset` replaced by `value`.
void forge(const std::string& path, std::size_t keep, std::size_t offset, std::uint32_t value) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::vector<std::uint8_t> bytes(keep);
  ASSERT_EQ(std::fread(bytes.data(), 1, keep, f), keep);
  std::fclose(f);
  for (int i = 0; i < 4; ++i) bytes[offset + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(value >> (8 * i));
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

// The data chunk's length field is untrusted: it may not size the sample
// buffer beyond the bytes the file holds, and a chunk skip may not run
// past the end of the file.
TEST(Wav, ForgedDataLengthIsBoundedByFile) {
  const std::string path = "/tmp/sonic_wav_forged.wav";
  constexpr std::size_t kHeader = 44;      // RIFF + fmt + data chunk header
  constexpr std::size_t kDataLength = 40;  // offset of the data chunk's length
  std::vector<float> samples(1000);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i] = static_cast<float>(i % 200) / 400.0f;

  for (std::uint32_t forged : {200'000'000u, 0xFFFFFFFFu}) {
    write_wav(path, samples, 8000);
    forge(path, kHeader, kDataLength, forged);
    const WavData empty = read_wav(path);
    EXPECT_TRUE(empty.samples.empty()) << forged;
    EXPECT_LE(empty.samples.capacity(), 16u) << forged;

    // A truncated recording (600 whole samples and one odd byte present)
    // keeps exactly the samples present.
    write_wav(path, samples, 8000);
    forge(path, kHeader + 2 * 600 + 1, kDataLength, forged);
    const WavData truncated = read_wav(path);
    ASSERT_EQ(truncated.samples.size(), 600u) << forged;
    EXPECT_LE(truncated.samples.capacity(), 600u) << forged;
    for (std::size_t i = 0; i < 600; ++i) EXPECT_NEAR(truncated.samples[i], samples[i], 1.0 / 12000.0);

    // An unknown chunk in the data chunk's place whose length passes the end
    // of the file is rejected.
    write_wav(path, samples, 8000);
    forge(path, kHeader + 2 * samples.size(), kDataLength, forged);
    forge(path, kHeader + 2 * samples.size(), kDataLength - 4, 0x4B4E554Au);  // "JUNK"
    EXPECT_THROW(read_wav(path), std::runtime_error) << forged;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sonic::util
