// dsp::FirFilter, frozen (see frozen_dsp.hpp).
#include <algorithm>
#include <stdexcept>

#include "oracles/frozen_dsp.hpp"
#include "util/lanes.hpp"

namespace sonic::oracles::frozen {
namespace {

// Outputs per fir_block call: the lanes of kFirAccumulators vector sums of
// P::n floats, 16 in the Lanes4 instance and 32 in Lanes8. Buffers are
// padded to the larger block.
constexpr std::size_t kFirAccumulators = 4;
constexpr std::size_t kFirMaxBlock = 8 * kFirAccumulators;

// out[i] = sum of window[i + k] * taps_rev[k] over k = 0..n-1, for
// i = 0..kFirAccumulators * P::n - 1. Lane i accumulates exactly the
// sequence of a scalar loop `acc += window[i + k] * taps_rev[k]` from
// acc = 0 (the same products, added in the same order), so an output is
// bit-identical whichever block, lane and instance computes it; the
// independent lanes keep the adds from waiting on each other.
template <class P>
[[gnu::always_inline]] inline void fir_block(const float* window, const float* taps_rev, std::size_t n, float* out) {
  using F = typename P::F;
  F acc[kFirAccumulators] = {};
  for (std::size_t k = 0; k < n; ++k) {
    // Unrolled, so the sums stay in registers at -O2 too.
#pragma GCC unroll 4
    for (std::size_t a = 0; a < kFirAccumulators; ++a) {
      F x;
      util::load_to(x, window + k + P::n * a);
      acc[a] += x * taps_rev[k];
    }
  }
  for (std::size_t a = 0; a < kFirAccumulators; ++a) util::store_from(out + P::n * a, acc[a]);
}

// The first `outputs` outputs (a multiple of kFirMaxBlock) of `window`.
template <class P>
[[gnu::always_inline]] inline void fir_blocks(const float* window, const float* taps_rev, std::size_t n,
                                              std::size_t outputs, float* out) {
  constexpr std::size_t kBlock = kFirAccumulators * P::n;
  for (std::size_t b = 0; b < outputs; b += kBlock) fir_block<P>(window + b, taps_rev, n, out + b);
}

}  // namespace

FirFilter::FirFilter(std::vector<float> taps)
    : taps_(std::move(taps)), taps_rev_(taps_.rbegin(), taps_.rend()),
      hist_(taps_.empty() ? 0 : taps_.size() - 1, 0.0f) {
  if (taps_.empty()) throw std::invalid_argument("empty taps");
}

void FirFilter::reset() { std::fill(hist_.begin(), hist_.end(), 0.0f); }

std::vector<float> FirFilter::process(std::span<const float> x) {
  const std::size_t t = taps_.size();
  const std::size_t h = t - 1;
  const std::size_t n = x.size();
  if (n == 0) return {};
  // [history | chunk | zeros up to a whole block]; the padding's outputs
  // are computed and dropped.
  const std::size_t outputs = (n + kFirMaxBlock - 1) / kFirMaxBlock * kFirMaxBlock;
  work_.assign(h + outputs, 0.0f);
  std::copy(hist_.begin(), hist_.end(), work_.begin());
  std::copy(x.begin(), x.end(), work_.begin() + static_cast<std::ptrdiff_t>(h));
  std::vector<float> out(outputs);
  util::at_width([&]<class P> { fir_blocks<P>(work_.data(), taps_rev_.data(), t, outputs, out.data()); });
  out.resize(n);
  // Carry the last taps-1 inputs.
  std::copy_n(work_.begin() + static_cast<std::ptrdiff_t>(n), h, hist_.begin());
  return out;
}

}  // namespace sonic::oracles::frozen
