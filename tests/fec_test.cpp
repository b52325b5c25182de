#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "fec/convolutional.hpp"
#include "fec/crc32.hpp"
#include "fec/reed_solomon.hpp"
#include "util/rng.hpp"

namespace sonic::fec {
namespace {

using sonic::util::Bytes;
using sonic::util::Rng;

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

// Packed code bits as exact 0.0/1.0 soft decisions: hard-decision input
// for decode_soft, through quantized.
std::vector<float> hard_soft_bits(std::span<const std::uint8_t> packed, std::size_t nbits) {
  std::vector<float> soft(nbits);
  util::BitReader br(packed);
  for (auto& s : soft) s = static_cast<float>(br.bit());
  return soft;
}

// Float soft bits as the soft bytes decode_soft takes.
std::vector<std::uint8_t> quantized(std::span<const float> soft) {
  std::vector<std::uint8_t> q(soft.size());
  std::transform(soft.begin(), soft.end(), q.begin(), ConvolutionalCodec::quantize_soft);
  return q;
}

// ---------------------------------------------------------------- CRC32 ---

TEST(Crc32, KnownVectors) {
  // Standard check value for "123456789".
  const std::string s = "123456789";
  const std::vector<std::uint8_t> data(s.begin(), s.end());
  EXPECT_EQ(crc32(data), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Rng rng(1);
  const Bytes data = random_bytes(rng, 1000);
  Crc32 c;
  c.update(std::span(data).subspan(0, 137));
  c.update(std::span(data).subspan(137, 500));
  c.update(std::span(data).subspan(637));
  EXPECT_EQ(c.value(), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlips) {
  Rng rng(2);
  Bytes data = random_bytes(rng, 64);
  const std::uint32_t good = crc32(data);
  for (int i = 0; i < 50; ++i) {
    const std::size_t byte = rng.uniform_int(data.size());
    const int bit = static_cast<int>(rng.uniform_int(8));
    data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    EXPECT_NE(crc32(data), good);
    data[byte] ^= static_cast<std::uint8_t>(1u << bit);
  }
}

TEST(Crc32, ResetRestoresInitialState) {
  Crc32 c;
  c.update(0x42);
  c.reset();
  EXPECT_EQ(c.value(), crc32({}));
}

// -------------------------------------------------------- Convolutional ---

class ConvCodecTest : public ::testing::TestWithParam<std::tuple<ConvCode, PunctureRate>> {};

TEST_P(ConvCodecTest, CleanRoundTrip) {
  const auto [code, rate] = GetParam();
  ConvolutionalCodec codec({code, rate});
  Rng rng(3);
  for (std::size_t len : {1u, 2u, 17u, 100u, 223u}) {
    const Bytes data = random_bytes(rng, len);
    const Bytes enc = codec.encode(data);
    const Bytes dec = codec.decode_soft(quantized(hard_soft_bits(enc, codec.encoded_bits(len))), len);
    EXPECT_EQ(dec, data) << "len=" << len;
  }
}

TEST_P(ConvCodecTest, EncodedBitsMatchesEncodeOutput) {
  const auto [code, rate] = GetParam();
  ConvolutionalCodec codec({code, rate});
  for (std::size_t len : {1u, 10u, 100u}) {
    Rng rng(len);
    const Bytes data = random_bytes(rng, len);
    const Bytes enc = codec.encode(data);
    const std::size_t bits = codec.encoded_bits(len);
    EXPECT_EQ(enc.size(), (bits + 7) / 8);
  }
}

TEST_P(ConvCodecTest, CorrectsScatteredBitErrors) {
  const auto [code, rate] = GetParam();
  ConvolutionalCodec codec({code, rate});
  Rng rng(5);
  const std::size_t len = 100;
  const Bytes data = random_bytes(rng, len);
  const Bytes enc = codec.encode(data);
  const std::size_t nbits = codec.encoded_bits(len);

  // Rate 1/2 K=9 corrects isolated errors comfortably; punctured rates are
  // weaker, so scale the injected error count with the rate.
  const int errors = rate == PunctureRate::kRate1_2 ? static_cast<int>(nbits / 25)
                     : rate == PunctureRate::kRate2_3 ? static_cast<int>(nbits / 60)
                                                      : static_cast<int>(nbits / 100);
  std::vector<float> soft = hard_soft_bits(enc, nbits);
  // Flip well-separated bits.
  for (int e = 0; e < errors; ++e) {
    const std::size_t pos = static_cast<std::size_t>(e) * (nbits / static_cast<std::size_t>(errors + 1)) + 3;
    soft[pos] = 1.0f - soft[pos];
  }
  const Bytes dec = codec.decode_soft(quantized(soft), len);
  EXPECT_EQ(dec, data);
}

std::string ConvParamName(const ::testing::TestParamInfo<std::tuple<ConvCode, PunctureRate>>& info) {
  const ConvCode code = std::get<0>(info.param);
  const PunctureRate rate = std::get<1>(info.param);
  std::string name = code == ConvCode::kV27 ? "v27" : "v29";
  name += rate == PunctureRate::kRate1_2 ? "_r12" : rate == PunctureRate::kRate2_3 ? "_r23" : "_r34";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, ConvCodecTest,
    ::testing::Combine(::testing::Values(ConvCode::kV27, ConvCode::kV29),
                       ::testing::Values(PunctureRate::kRate1_2, PunctureRate::kRate2_3,
                                         PunctureRate::kRate3_4)),
    ConvParamName);

TEST(ConvCodec, SoftDecisionsBeatHardDecisions) {
  // With genuinely soft inputs (confidence ~ noise), the soft decoder should
  // recover a payload that hard slicing alone would corrupt.
  ConvolutionalCodec codec({ConvCode::kV29, PunctureRate::kRate1_2});
  Rng rng(7);
  const std::size_t len = 64;
  const Bytes data = random_bytes(rng, len);
  const Bytes enc = codec.encode(data);
  const std::size_t nbits = codec.encoded_bits(len);

  std::vector<float> soft(nbits);
  util::BitReader br(enc);
  for (auto& s : soft) {
    const float bit = static_cast<float>(br.bit());
    // Gaussian noise around the ideal value, sigma = 0.3.
    s = std::clamp(bit + static_cast<float>(rng.normal(0.0, 0.3)), 0.0f, 1.0f);
  }
  EXPECT_EQ(codec.decode_soft(quantized(soft), len), data);
}

TEST(ConvCodec, RateReportsEffectiveRate) {
  EXPECT_DOUBLE_EQ(ConvolutionalCodec({ConvCode::kV29, PunctureRate::kRate1_2}).rate(), 0.5);
  EXPECT_DOUBLE_EQ(ConvolutionalCodec({ConvCode::kV29, PunctureRate::kRate2_3}).rate(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(ConvolutionalCodec({ConvCode::kV29, PunctureRate::kRate3_4}).rate(), 0.75);
}

TEST(ConvCodec, PuncturedOutputIsShorter) {
  const std::size_t len = 100;
  ConvolutionalCodec r12({ConvCode::kV29, PunctureRate::kRate1_2});
  ConvolutionalCodec r23({ConvCode::kV29, PunctureRate::kRate2_3});
  ConvolutionalCodec r34({ConvCode::kV29, PunctureRate::kRate3_4});
  EXPECT_GT(r12.encoded_bits(len), r23.encoded_bits(len));
  EXPECT_GT(r23.encoded_bits(len), r34.encoded_bits(len));
  // Rate sanity: encoded bits ~ payload bits / rate.
  EXPECT_NEAR(static_cast<double>(r34.encoded_bits(len)), (len * 8 + 8) / 0.75, 4.0);
}

TEST(ConvCodec, AllZerosAndAllOnesPayloads) {
  ConvolutionalCodec codec({ConvCode::kV29, PunctureRate::kRate1_2});
  const Bytes zeros(50, 0x00);
  const Bytes ones(50, 0xff);
  const std::size_t nbits = codec.encoded_bits(50);
  EXPECT_EQ(codec.decode_soft(quantized(hard_soft_bits(codec.encode(zeros), nbits)), 50), zeros);
  EXPECT_EQ(codec.decode_soft(quantized(hard_soft_bits(codec.encode(ones), nbits)), 50), ones);
}

// --------------------------------------------------------- Reed-Solomon ---

TEST(ReedSolomon, GF256TablesConsistent) {
  const GF256& gf = GF256::instance();
  for (int a = 1; a < 256; ++a) {
    EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), gf.inv(static_cast<std::uint8_t>(a))), 1);
    EXPECT_EQ(gf.exp(gf.log(static_cast<std::uint8_t>(a))), a);
  }
  // Distributivity spot-check.
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.uniform_int(256));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(256));
    const auto c = static_cast<std::uint8_t>(rng.uniform_int(256));
    EXPECT_EQ(gf.mul(a, static_cast<std::uint8_t>(b ^ c)), gf.mul(a, b) ^ gf.mul(a, c));
  }
}

TEST(ReedSolomon, CleanRoundTrip) {
  ReedSolomon rs(32);
  Rng rng(13);
  for (std::size_t len : {1u, 50u, 100u, 223u}) {
    const Bytes data = random_bytes(rng, len);
    Bytes block = rs.encode(data);
    EXPECT_EQ(block.size(), len + 32);
    const auto corrected = rs.decode(block);
    ASSERT_TRUE(corrected.has_value());
    EXPECT_EQ(*corrected, 0);
    EXPECT_TRUE(std::equal(data.begin(), data.end(), block.begin()));
  }
}

class RsErrorTest : public ::testing::TestWithParam<int> {};

TEST_P(RsErrorTest, CorrectsUpToHalfNrootsErrors) {
  const int errors = GetParam();
  ReedSolomon rs(32);
  Rng rng(17 + static_cast<std::uint64_t>(errors));
  const std::size_t len = 100;
  const Bytes data = random_bytes(rng, len);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes block = rs.encode(data);
    // Corrupt `errors` distinct random positions.
    std::vector<std::size_t> pos;
    while (pos.size() < static_cast<std::size_t>(errors)) {
      const std::size_t p = rng.uniform_int(block.size());
      if (std::find(pos.begin(), pos.end(), p) == pos.end()) pos.push_back(p);
    }
    for (std::size_t p : pos) block[p] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(255));
    const auto corrected = rs.decode(block);
    ASSERT_TRUE(corrected.has_value()) << "errors=" << errors << " trial=" << trial;
    EXPECT_EQ(*corrected, errors);
    EXPECT_TRUE(std::equal(data.begin(), data.end(), block.begin()));
  }
}

INSTANTIATE_TEST_SUITE_P(ErrorCounts, RsErrorTest, ::testing::Values(1, 2, 5, 10, 15, 16));

TEST(ReedSolomon, FailsBeyondCorrectionCapability) {
  ReedSolomon rs(32);
  Rng rng(19);
  const Bytes data = random_bytes(rng, 100);
  int detected = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    Bytes block = rs.encode(data);
    // 40 errors >> 16 correctable; decoder must not silently "correct".
    for (int e = 0; e < 40; ++e) {
      block[rng.uniform_int(block.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(255));
    }
    const auto r = rs.decode(block);
    const bool payload_intact = r.has_value() && std::equal(data.begin(), data.end(), block.begin());
    if (!r.has_value() || !payload_intact) ++detected;
  }
  // Miscorrection slips through with probability ~ q^-nroots; effectively never.
  EXPECT_EQ(detected, trials);
}

TEST(ReedSolomon, CorrectsFullNrootsErasures) {
  ReedSolomon rs(32);
  Rng rng(23);
  const Bytes data = random_bytes(rng, 150);
  Bytes block = rs.encode(data);
  std::vector<int> erasures;
  while (erasures.size() < 32) {
    const int p = static_cast<int>(rng.uniform_int(block.size()));
    if (std::find(erasures.begin(), erasures.end(), p) == erasures.end()) erasures.push_back(p);
  }
  for (int p : erasures) block[static_cast<std::size_t>(p)] = 0x55;
  const auto corrected = rs.decode(block, erasures);
  ASSERT_TRUE(corrected.has_value());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), block.begin()));
}

TEST(ReedSolomon, MixedErrorsAndErasures) {
  // 2e + f <= 32: use 10 errors + 12 erasures.
  ReedSolomon rs(32);
  Rng rng(29);
  const Bytes data = random_bytes(rng, 120);
  Bytes block = rs.encode(data);
  std::vector<int> touched;
  auto pick = [&]() {
    int p;
    do {
      p = static_cast<int>(rng.uniform_int(block.size()));
    } while (std::find(touched.begin(), touched.end(), p) != touched.end());
    touched.push_back(p);
    return p;
  };
  std::vector<int> erasures;
  for (int i = 0; i < 12; ++i) {
    const int p = pick();
    erasures.push_back(p);
    block[static_cast<std::size_t>(p)] ^= 0xa5;
  }
  for (int i = 0; i < 10; ++i) {
    const int p = pick();
    block[static_cast<std::size_t>(p)] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(255));
  }
  const auto corrected = rs.decode(block, erasures);
  ASSERT_TRUE(corrected.has_value());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), block.begin()));
}

TEST(ReedSolomon, ErasurePositionsMayBeClean) {
  // Declaring an erasure on an uncorrupted byte must still decode.
  ReedSolomon rs(16);
  Rng rng(31);
  const Bytes data = random_bytes(rng, 80);
  Bytes block = rs.encode(data);
  const std::vector<int> erasures{0, 5, 17};
  const auto corrected = rs.decode(block, erasures);
  ASSERT_TRUE(corrected.has_value());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), block.begin()));
}

TEST(ReedSolomon, VariableNroots) {
  Rng rng(37);
  for (int nroots : {4, 8, 16, 32, 64}) {
    ReedSolomon rs(nroots);
    const Bytes data = random_bytes(rng, 50);
    Bytes block = rs.encode(data);
    // Corrupt nroots/2 symbols (the maximum correctable).
    for (int e = 0; e < nroots / 2; ++e) {
      block[static_cast<std::size_t>(e) * 2] ^= 0x3c;
    }
    const auto corrected = rs.decode(block);
    ASSERT_TRUE(corrected.has_value()) << "nroots=" << nroots;
    EXPECT_TRUE(std::equal(data.begin(), data.end(), block.begin()));
  }
}

TEST(ReedSolomon, RejectsOversizedPayload) {
  ReedSolomon rs(32);
  const Bytes data(224, 0);
  EXPECT_THROW(rs.encode(data), std::invalid_argument);
}

TEST(ReedSolomon, RejectsTooManyErasures) {
  ReedSolomon rs(8);
  Rng rng(41);
  const Bytes data = random_bytes(rng, 40);
  Bytes block = rs.encode(data);
  std::vector<int> erasures;
  for (int i = 0; i < 9; ++i) erasures.push_back(i);
  EXPECT_FALSE(rs.decode(block, erasures).has_value());
}

}  // namespace
}  // namespace sonic::fec
