// Deterministic random number generation for SONIC.
//
// Every stochastic component (channel noise, corpus churn, loss injection,
// user-study sampling) draws from a seeded Rng so that tests and benchmarks
// are reproducible. The core generator is xoshiro256** seeded via splitmix64.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sonic::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x534f4e4943ull);  // "SONIC"

  std::uint64_t next() { return xoshiro_step(s_); }  // uniform 64-bit
  double uniform();                        // [0, 1)
  double uniform(double lo, double hi);    // [lo, hi)
  std::uint64_t uniform_int(std::uint64_t n);  // [0, n), n > 0
  double normal(double mean = 0.0, double stddev = 1.0);
  // out[i] = float(normal(mean, stddev)) for i = 0, 1, ..., bit for bit, and
  // leaves the generator (including the cached second deviate of the polar
  // method) exactly where those scalar calls would. Draws are batched in
  // blocks of kNormalBlock deviates: candidates for the polar method's
  // rejection loop are generated branch-free, then the accepted pairs are
  // scaled.
  void fill_normal(std::span<float> out, double mean = 0.0, double stddev = 1.0);
  static constexpr std::size_t kNormalBlock = 256;
  double exponential(double rate);
  bool bernoulli(double p);

  // Zipf distribution over ranks [0, n); used for webpage popularity.
  int zipf(int n, double s = 1.0);

  // Derive an independent stream (e.g. per-page, per-trial) from this seed.
  Rng fork(std::uint64_t stream_id) const;

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_int(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  // One xoshiro256** step; inline so tight draw loops keep the state in
  // registers.
  static std::uint64_t xoshiro_step(std::uint64_t (&s)[4]) {
    const std::uint64_t result = std::rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = std::rotl(s[3], 45);
    return result;
  }

  std::uint64_t s_[4];
  std::uint64_t seed_;
  bool have_gauss_ = false;
  double gauss_ = 0.0;
};

// Standard normal deviates by a 256-layer float ziggurat (Marsaglia & Tsang,
// "The Ziggurat Method for Generating Random Variables", J. Stat. Softw.
// 5(8), 2000), for bulk channel noise where Rng::fill_normal's polar method
// costs a log and a square root per pair.
//
// Each 64-bit draw of the generator it is built from gives two candidates,
// the low 32 bits for the even deviate and the high 32 bits for the odd one.
// In a candidate, bits 24-31 pick the layer, bit 23 the sign and bits 0-22
// the uniform position in the layer (separate bits, as Doornik, "An
// Improved Ziggurat Method to Generate Normal Random Samples", 2005,
// advises). A candidate inside its layer's inner rectangle (~98.5 %) is the
// deviate. The others (a wedge or the tail) are resolved in deviate order
// from a side stream, rng.fork(kSideStream): the wedge test's uniform, the
// tail's, and whole new candidates after a rejection. The main stream thus
// steps once per two deviates whatever is accepted, and a deviate depends
// only on its index: fill(a) then fill(b) equals fill(a + b) for any
// split, odd lengths included.
class ZigguratNormal {
 public:
  static constexpr std::uint64_t kSideStream = 0x5a49474755524154ull;  // "ZIGGURAT"

  explicit ZigguratNormal(Rng rng);
  // The next out.size() deviates, N(0, 1).
  void fill(std::span<float> out);

 private:
  // The deviate of candidate c: its rectangle's, or a wedge or tail draw
  // from the side stream.
  float resolve(std::uint32_t c);

  Rng main_;
  Rng side_;
  std::uint32_t held_ = 0;  // the odd candidate of a draw a fill split
  bool have_held_ = false;
};

}  // namespace sonic::util
