#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "fec/fountain.hpp"
#include "oracles/fountain_reference.hpp"
#include "util/rng.hpp"

namespace sonic::fec {
namespace {

using sonic::util::Bytes;
using sonic::util::Rng;

std::vector<Bytes> random_blocks(Rng& rng, std::size_t k, std::size_t block_size) {
  std::vector<Bytes> blocks(k);
  for (auto& b : blocks) {
    b.resize(block_size);
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.uniform_int(256));
  }
  return blocks;
}

void expect_blocks_identical(const FountainDecoder& decoder, const std::vector<Bytes>& blocks,
                             const std::string& label) {
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    ASSERT_TRUE(decoder.has_block(i)) << label << " block " << i;
    EXPECT_EQ(decoder.block(i), blocks[i]) << label << " block " << i;
  }
}

TEST(Fountain, NeighborSetsAreDeterministicSortedAndCoverCyclically) {
  const std::size_t k = 250;  // LT regime
  for (std::uint32_t r = 0; r < 600; ++r) {
    const auto a = oracles::fountain_neighbors(77, r, k);
    const auto b = oracles::fountain_neighbors(77, r, k);
    ASSERT_EQ(a, b) << "repair_seq " << r;
    ASSERT_FALSE(a.empty());
    ASSERT_TRUE(std::is_sorted(a.begin(), a.end()));
    ASSERT_TRUE(std::adjacent_find(a.begin(), a.end()) == a.end()) << "duplicate neighbor";
    EXPECT_LT(a.back(), k);
    // The forced cyclic walk: symbol r always touches source r mod k.
    EXPECT_TRUE(std::binary_search(a.begin(), a.end(), r % k));
    // A different page draws a different set (with overwhelming probability
    // for at least one of 600 seqs) — checked in aggregate below.
  }
  std::size_t differing = 0;
  for (std::uint32_t r = 0; r < 64; ++r) {
    if (oracles::fountain_neighbors(77, r, k) != oracles::fountain_neighbors(78, r, k)) ++differing;
  }
  EXPECT_GT(differing, 32u);
}

TEST(Fountain, EncoderIsStatelessAcrossInstances) {
  Rng rng(1);
  const auto blocks = random_blocks(rng, 60, 91);
  FountainEncoder a(9, blocks);
  FountainEncoder b(9, blocks);
  for (std::uint32_t r : {0u, 1u, 17u, 300u}) {
    EXPECT_EQ(a.repair_symbol(r), b.repair_symbol(r)) << "repair_seq " << r;
  }
}

// The repair stream is wire format: station and phone derive every symbol
// from (page_id, repair_seq) alone, so its bytes must never move. Pins an
// FNV-1a hash of repair symbols 0..63 in MDS mode (k = 40, 170) and LT mode
// (k = 171, 400, 2000).
TEST(Fountain, RepairStreamBytesArePinned) {
  const std::pair<std::size_t, std::uint64_t> golden[] = {
      {40, 0xbc6f85f94281c974ull},  {170, 0xfc6c6a6566ce6f98ull},
      {171, 0x1a1be92d49760041ull}, {400, 0x6e2d0c67e2b7d86aull},
      {2000, 0xdc66a4ed364de222ull},
  };
  for (const auto& [k, expected] : golden) {
    Rng rng(k);
    FountainEncoder encoder(0x50000 + static_cast<std::uint32_t>(k), random_blocks(rng, k, 91));
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::uint32_t r = 0; r < 64; ++r) {
      for (std::uint8_t byte : encoder.repair_symbol(r)) {
        hash = (hash ^ byte) * 0x100000001b3ull;
      }
    }
    EXPECT_EQ(hash, expected) << "k=" << k << std::hex << " hash=0x" << hash;
  }
}

// The batched encoder against the per-symbol oracle, on seq lists that
// wrap from 65535 to 0 as the carousel's do, at batch sizes around both
// switch points: the direct/Four-Russians crossover and the internal batch
// size (one more than a batch spills into a second batch of one).
TEST(Fountain, BatchedRepairSymbolsEqualOracle) {
  for (std::size_t k : {171u, 172u, 1000u, 3001u, 9000u, 11000u}) {
    Rng rng(k);
    const auto blocks = random_blocks(rng, k, 91);
    const auto page_id = 0x70000 + static_cast<std::uint32_t>(k);
    const FountainEncoder encoder(page_id, blocks);
    const oracles::LtEncoderReference oracle(page_id, blocks);
    const std::size_t cross = FountainEncoder::kFourRussiansMinBatch;
    const std::size_t batch = encoder.four_russians_batch();
    ASSERT_GE(batch, cross);
    std::vector<std::uint32_t> seqs(batch + 1);
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      seqs[i] = static_cast<std::uint32_t>((65536 - 40 + i) % 65536);
    }
    std::vector<Bytes> expected;
    for (std::uint32_t seq : seqs) expected.push_back(oracle.repair_symbol(seq));
    const std::size_t sizes[] = {1, cross - 1, cross, cross + 1, batch - 1, batch, batch + 1};
    for (std::size_t n : sizes) {
      // Every window of two or more seqs straddles the wrap (list index 40).
      const std::size_t first = std::min(seqs.size() - n, 40 - std::min<std::size_t>(n, 40) / 2);
      const auto got = encoder.repair_symbols(std::span(seqs).subspan(first, n));
      ASSERT_EQ(got.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], expected[first + i]) << "k=" << k << " batch of " << n << " seq "
                                               << seqs[first + i];
      }
    }
    EXPECT_EQ(encoder.repair_symbol(65535), expected[39]) << "k=" << k;
  }
}

TEST(Fountain, NeighborDrawEqualsOracle) {
  for (std::size_t k : {1u, 2u, 3u, 171u, 9000u, 65535u}) {
    for (std::uint32_t page_id : {0u, 1u, 0x5a5a5u, 0xffffffffu}) {
      for (std::uint32_t seq : {0u, 1u, 2u, 170u, 171u, 4097u, 65535u}) {
        ASSERT_EQ(oracles::fountain_neighbors(page_id, seq, k),
                  oracles::fountain_neighbors_reference(page_id, seq, k))
            << "k=" << k << " page " << page_id << " seq " << seq;
      }
    }
  }
}

// ExactRemainder is uniform_int's v % k on every draw, so it must be exact
// for every divisor a page can have (k is a u16 on the wire), at the edges
// of the 64-bit range and of the rejection limit.
TEST(Fountain, ExactRemainderMatchesModulo) {
  Rng rng(5);
  std::size_t mismatches = 0;
  std::uint64_t first_bad_d = 0, first_bad_v = 0;
  for (std::uint64_t d = 2; d <= 65535; ++d) {
    const ExactRemainder mod(d);
    const std::uint64_t limit = ~0ull - (~0ull % d);
    const std::uint64_t edges[] = {0, d - 1, d, limit - 1, ~0ull};
    auto check = [&](std::uint64_t v) {
      if (mod(v) != v % d && mismatches++ == 0) {
        first_bad_d = d;
        first_bad_v = v;
      }
    };
    for (std::uint64_t v : edges) check(v);
    for (int i = 0; i < 4; ++i) check(rng.next());
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first_bad_v << " % " << first_bad_d;
  EXPECT_EQ(ExactRemainder(1)(~0ull), 0u);
}

// The acceptance property: for pages of 1..400 frames and ANY loss pattern
// that leaves at least k * (1 + 0.08) received symbols, reconstruction is
// byte-identical. Below mds_max_k the code is MDS, so even exactly k
// symbols suffice; above it, the all-dense LT default fails with
// probability ~2^-excess, which at 8 % overhead is < 2^-13 per trial —
// and the seeds here are fixed, so a passing run is a permanent proof for
// these patterns.
TEST(Fountain, RoundTripAnyLossPatternWithinOverheadBudget) {
  Rng rng(42);
  const double epsilon = 0.08;
  for (std::size_t k :
       {1u, 2u, 3u, 5u, 9u, 17u, 40u, 85u, 170u, 171u, 200u, 256u, 333u, 400u}) {
    const std::size_t block_size = k > 200 ? 24 : 91;  // keep big-k trials cheap
    const auto blocks = random_blocks(rng, k, block_size);
    FountainEncoder encoder(1000 + static_cast<std::uint32_t>(k), blocks);
    for (double loss : {0.0, 0.1, 0.2, 0.35, 0.5}) {
      // MDS mode has only 255 - k distinct repair points (a Reed-Solomon
      // code lives inside GF(2^8)), so a single systematic pass plus
      // repairs cannot always reach k distinct symbols when k is near
      // mds_max_k AND loss is heavy — real receivers span carousel cycles
      // there. Keep this single-pass property to the regimes it holds in.
      if (k > 127 && k <= 170 && loss > 0.35) continue;
      FountainDecoder decoder(1000 + static_cast<std::uint32_t>(k), k, block_size);
      const auto target =
          std::max(k, static_cast<std::size_t>(std::ceil(static_cast<double>(k) * (1 + epsilon))));
      for (std::size_t i = 0; i < k && decoder.symbols_received() < target; ++i) {
        if (rng.bernoulli(loss)) continue;  // lost on the air
        decoder.add_source(i, blocks[i]);
      }
      // The carousel's repair tail (starting mid-stream: receivers can tune
      // in at any cycle) tops the reception up to the overhead budget.
      std::uint32_t repair_seq = static_cast<std::uint32_t>(rng.uniform_int(5000));
      for (std::uint32_t tries = 0;
           decoder.symbols_received() < target && !decoder.decoded() && tries < 65536; ++tries) {
        decoder.add_repair(repair_seq, encoder.repair_symbol(repair_seq));
        ++repair_seq;
      }
      const std::string label =
          "k=" + std::to_string(k) + " loss=" + std::to_string(loss);
      ASSERT_TRUE(decoder.complete()) << label;
      expect_blocks_identical(decoder, blocks, label);
    }
  }
}

TEST(Fountain, MdsModeDecodesFromExactlyKSymbolsEvenPureRepair) {
  Rng rng(7);
  // Pure repair needs k distinct repair points, i.e. 255 - k >= k: the
  // guarantee covers k up to 127 (above that some sources must arrive, or
  // the receiver waits for the next cycle's systematic pass).
  for (std::size_t k : {1u, 8u, 64u, 127u}) {
    const auto blocks = random_blocks(rng, k, 91);
    FountainEncoder encoder(5, blocks);
    ASSERT_TRUE(encoder.mds_mode()) << k;
    // Worst case: every source frame lost; k repair symbols are enough.
    FountainDecoder decoder(5, k, 91);
    for (std::uint32_t r = 0; r < k; ++r) {
      ASSERT_TRUE(decoder.add_repair(r, encoder.repair_symbol(r))) << "k=" << k << " r=" << r;
    }
    ASSERT_TRUE(decoder.complete()) << "k=" << k;
    expect_blocks_identical(decoder, blocks, "pure-repair k=" + std::to_string(k));
  }
  // Just past the boundary the code switches to LT.
  EXPECT_FALSE(FountainEncoder(5, random_blocks(rng, 171, 24)).mds_mode());
}

TEST(Fountain, LtModePureRepairDecodesWithinOverhead) {
  Rng rng(12);
  const std::size_t k = 300;
  const auto blocks = random_blocks(rng, k, 24);
  FountainEncoder encoder(6, blocks);
  FountainDecoder decoder(6, k, 24);
  std::uint32_t r = 0;
  const auto target = static_cast<std::size_t>(std::ceil(k * 1.08));
  while (decoder.symbols_received() < target) {
    decoder.add_repair(r, encoder.repair_symbol(r));
    ++r;
  }
  ASSERT_TRUE(decoder.complete());
  expect_blocks_identical(decoder, blocks, "LT pure-repair");
}

TEST(Fountain, RejectsMalformedAndDuplicateSymbols) {
  Rng rng(9);
  const std::size_t k = 20;
  const auto blocks = random_blocks(rng, k, 91);
  FountainEncoder encoder(4, blocks);
  FountainDecoder decoder(4, k, 91);
  EXPECT_FALSE(decoder.add_source(k, blocks[0]));            // index out of range
  EXPECT_FALSE(decoder.add_source(0, Bytes(90)));            // wrong size
  EXPECT_FALSE(decoder.add_repair(0, Bytes(92)));            // wrong size
  EXPECT_TRUE(decoder.add_source(0, blocks[0]));
  EXPECT_FALSE(decoder.add_source(0, blocks[0]));            // duplicate
  EXPECT_TRUE(decoder.add_repair(1, encoder.repair_symbol(1)));
  EXPECT_FALSE(decoder.add_repair(1, encoder.repair_symbol(1)));  // duplicate
  EXPECT_EQ(decoder.symbols_received(), 2u);
  EXPECT_EQ(decoder.sources_received(), 1u);
  EXPECT_EQ(decoder.repairs_received(), 1u);
}

}  // namespace
}  // namespace sonic::fec
