#include "dsp/resampler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "util/lanes.hpp"
#include "util/units.hpp"

namespace sonic::dsp {

// One ratio's kernel weights, rows of `width` taps. An output centred on
// input c reads inputs c - before .. c + after; tap j of a row weights input
// c - before + j, and for the Hann-sinc kernel (before = after = reach) holds
// it at offset frac + reach - j, frac being the row's fractional input
// position.
struct ResamplerTable {
  long before = 0, after = 0;
  std::size_t width = 0;  // before + after + 1
  // Rational ratio L/M: one exact row per output phase.
  bool rational = false;
  std::uint64_t up = 1, down = 1;  // L, M
  // Rational: `up` rows, row r at frac = r / up. Grid: kGridPhases + 1 rows,
  // row r at frac = r / kGridPhases; the extra row (frac = 1) gives every
  // interpolation an upper neighbour. Weights are rounded to float and held
  // in double, the precision the dot products run in.
  std::vector<double> weights;

  const double* row(std::size_t r) const { return weights.data() + r * width; }
};

namespace {

// Largest phase count a rational ratio gets exact rows for, and the phase
// resolution of the interpolated grid for every other ratio.
constexpr std::uint64_t kMaxRationalPhases = 4096;
constexpr std::size_t kGridPhases = 4096;
// At most this many tables stay memoized (table_for).
constexpr std::size_t kMaxCachedTables = 64;
// Windows per grid block of whole-window outputs, against one row pair.
constexpr std::size_t kGridBlock = 4;

double sinc(double x) {
  if (std::fabs(x) < 1e-12) return 1.0;
  return std::sin(sonic::util::kPi * x) / (sonic::util::kPi * x);
}

// Hann-windowed sinc kernel. The half-width covers 4 zero-crossings of the
// (possibly cutoff-stretched) sinc so downsampling keeps its anti-alias
// stopband and its passband gain.
double kernel(double x, double cutoff, double half_width) {
  if (std::fabs(x) >= half_width) return 0.0;
  const double window = 0.5 + 0.5 * std::cos(sonic::util::kPi * x / half_width);
  return cutoff * sinc(cutoff * x) * window;
}

double cutoff_for(double ratio) { return ratio >= 1.0 ? 1.0 : ratio; }

long reach_for(double cutoff) { return static_cast<long>(std::ceil(4.0 / cutoff)); }

// ratio == up/down exactly enough (1e-12 relative) with up <=
// kMaxRationalPhases, found by continued-fraction expansion.
bool as_rational(double ratio, std::uint64_t& up, std::uint64_t& down) {
  std::uint64_t h0 = 0, h1 = 1, k0 = 1, k1 = 0;
  double x = ratio;
  for (int term = 0; term < 40; ++term) {
    const double a = std::floor(x);
    if (a > static_cast<double>(kMaxRationalPhases)) return false;
    const auto ai = static_cast<std::uint64_t>(a);
    const std::uint64_t h2 = ai * h1 + h0;
    const std::uint64_t k2 = ai * k1 + k0;
    if (h2 > kMaxRationalPhases || k2 > (std::uint64_t{1} << 24)) return false;
    h0 = h1, h1 = h2, k0 = k1, k1 = k2;
    if (h1 > 0 && std::fabs(static_cast<double>(h1) / static_cast<double>(k1) - ratio) <=
                      1e-12 * ratio) {
      up = h1;
      down = k1;
      return true;
    }
    const double frac = x - a;
    if (frac <= 0.0) return false;
    x = 1.0 / frac;
  }
  return false;
}

std::shared_ptr<const ResamplerTable> build_table(bool rational, std::uint64_t up,
                                                  std::uint64_t down, double cutoff) {
  auto t = std::make_shared<ResamplerTable>();
  const double half_width = 4.0 / cutoff;
  const long reach = reach_for(cutoff);
  t->before = t->after = reach;
  t->width = static_cast<std::size_t>(2 * reach + 1);
  t->rational = rational;
  t->up = up;
  t->down = down;
  const std::size_t phases = rational ? static_cast<std::size_t>(up) : kGridPhases;
  const std::size_t rows = rational ? phases : phases + 1;
  t->weights.resize(rows * t->width);
  // The kernel is even, and grid row r sits at the exact binary fraction
  // r / kGridPhases, so tap j of row kGridPhases - r is tap
  // 2*reach + 1 - j of row r, bit for bit; its tap 0 lies at reach + frac
  // >= half_width, where the kernel is zero. The grid evaluates only the
  // rows up to kGridPhases / 2 and mirrors the rest.
  const std::size_t evaluated = rational ? rows : kGridPhases / 2 + 1;
  for (std::size_t r = 0; r < evaluated; ++r) {
    const double frac = static_cast<double>(r) / static_cast<double>(phases);
    double* w = t->weights.data() + r * t->width;
    for (std::size_t j = 0; j < t->width; ++j) {
      const double x = frac + static_cast<double>(reach) - static_cast<double>(j);
      w[j] = static_cast<float>(kernel(x, cutoff, half_width));
    }
  }
  for (std::size_t r = evaluated; r < rows; ++r) {
    const double* mirror = t->row(kGridPhases - r);
    double* w = t->weights.data() + r * t->width;
    w[0] = 0.0;
    std::reverse_copy(mirror + 1, mirror + t->width, w + 1);
  }
  return t;
}

// Process-wide memo of the tables that recur: rational ratios, keyed by
// (L, M), and the cutoff-1 grid every ratio > 1 shares, keyed by (0, 0). A
// grid below ratio 1 has the ratio as its cutoff; each acoustic trial draws
// its own, so those are built for their resampler alone and never memoized.
// Tables are immutable once built, so handing out shared pointers is
// thread-safe; clearing the map on overflow leaves tables held by live
// resamplers intact.
std::shared_ptr<const ResamplerTable> table_for(double ratio) {
  std::uint64_t up = 0, down = 0;
  const bool rational = as_rational(ratio, up, down);
  const double cutoff =
      rational ? cutoff_for(static_cast<double>(up) / static_cast<double>(down)) : cutoff_for(ratio);
  if (!rational && cutoff < 1.0) return build_table(false, 0, 0, cutoff);
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, std::uint64_t>,
                  std::shared_ptr<const ResamplerTable>>
      cache;
  const std::pair key(up, down);
  std::lock_guard<std::mutex> lock(mu);
  if (auto it = cache.find(key); it != cache.end()) return it->second;
  if (cache.size() >= kMaxCachedTables) cache.clear();
  auto table = build_table(rational, up, down, cutoff);
  cache.emplace(key, table);
  return table;
}

// NX windows against NW rows: out[k * NW + m] is the dot product of window
// k (x + k * x_step) with row m (w + m * w_step) over n taps. Every x and w
// is a float held in double, so each product is exact. Each sum keeps four
// partial sums: a_m takes the terms j = m mod 4 of the whole groups of
// four, a0 also the tail, and the result is (a0 + a1) + (a2 + a3). The
// order is fixed, so a window and row give bit-identical results whichever
// form or lane pack computes them. {a0, a1, a2, a3} are one D in Lanes8
// and a pair of D in Lanes4; a row is loaded once for all NX windows, a
// window once for all NW rows, and the NX * NW interleaved sums keep the
// adds from waiting on each other. The unroll pragmas let GCC keep the sums
// in registers: without them the four-lane 5:1 decimator spilled them to
// the stack and ran ~15 % slower.
template <class P, std::size_t NX, std::size_t NW>
[[gnu::always_inline]] inline void dots(const double* x, long x_step, const double* w, long w_step, long n,
                                        double* out) {
  using D = typename P::D;
  constexpr std::size_t kHalf = P::n / 2;    // doubles per D
  constexpr std::size_t kParts = 4 / kHalf;  // D per group of four taps
  D acc[NX][NW][kParts] = {};
  long j = 0;
  for (; j + 4 <= n; j += 4) {
    D wv[NW][kParts];
#pragma GCC unroll 8
    for (std::size_t m = 0; m < NW; ++m) {
#pragma GCC unroll 8
      for (std::size_t h = 0; h < kParts; ++h) util::load_to(wv[m][h], w + m * w_step + j + h * kHalf);
    }
#pragma GCC unroll 8
    for (std::size_t k = 0; k < NX; ++k) {
#pragma GCC unroll 8
      for (std::size_t h = 0; h < kParts; ++h) {
        D xv;
        util::load_to(xv, x + k * x_step + j + h * kHalf);
        for (std::size_t m = 0; m < NW; ++m) acc[k][m][h] += xv * wv[m][h];
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t k = 0; k < NX; ++k) {
#pragma GCC unroll 8
    for (std::size_t m = 0; m < NW; ++m) {
      // a_e is lane e % kHalf of acc[k][m][e / kHalf].
      double a0 = acc[k][m][0][0];
      for (long tail = j; tail < n; ++tail) a0 += x[k * x_step + tail] * w[m * w_step + tail];
      const D* a = acc[k][m];
      out[k * NW + m] = (a0 + a[0][1]) + (a[2 / kHalf][2 % kHalf] + a[3 / kHalf][3 % kHalf]);
    }
  }
}

// W windows one input apart (window k at x + k) against NW rows:
// out[m * W + k]. One lane per window: lane k of the vectors acc[m][p]
// holds window k's partial sum a_p of row m, so every window keeps the
// sums and the order of dots and leaves as one lane of
// (a0 + a1) + (a2 + a3), with no horizontal step and no per-window scalar
// tail.
template <class P, std::size_t W, std::size_t NW>
[[gnu::always_inline]] inline void adjacent_dots(const double* x, const double* w, long w_step, long n,
                                                 double* out) {
  using D = typename P::D;
  constexpr std::size_t kHalf = P::n / 2;    // doubles per D
  constexpr std::size_t kParts = W / kHalf;  // D per partial sum
  static_assert(kParts * kHalf == W);
  D acc[NW][4][kParts] = {};
  long j = 0;
  for (; j + 4 <= n; j += 4) {
    for (std::size_t p = 0; p < 4; ++p) {
      for (std::size_t h = 0; h < kParts; ++h) {
        D xv;
        util::load_to(xv, x + j + p + h * kHalf);
        for (std::size_t m = 0; m < NW; ++m) acc[m][p][h] += xv * w[m * w_step + j + p];
      }
    }
  }
  for (; j < n; ++j) {
    for (std::size_t h = 0; h < kParts; ++h) {
      D xv;
      util::load_to(xv, x + j + h * kHalf);
      for (std::size_t m = 0; m < NW; ++m) acc[m][0][h] += xv * w[m * w_step + j];
    }
  }
  for (std::size_t m = 0; m < NW; ++m) {
    for (std::size_t h = 0; h < kParts; ++h) {
      const D sum = (acc[m][0][h] + acc[m][1][h]) + (acc[m][2][h] + acc[m][3][h]);
      util::store_from(out + m * W + h * kHalf, sum);
    }
  }
}

// Grid: an output from the dot products d[0] and d[d_step] of its window
// with the rows either side of its position, `w` of the way to the upper
// one.
float lerp(const double* d, std::size_t d_step, double w) {
  return static_cast<float>(d[0] + w * (d[d_step] - d[0]));
}

// Grid: the row below a fractional input position and the weight of the
// row above it.
std::pair<std::size_t, double> grid_row(double frac) {
  const double pos = frac * static_cast<double>(kGridPhases);
  const auto r = std::min(static_cast<std::size_t>(pos), kGridPhases - 1);
  return {r, pos - static_cast<double>(r)};
}

// Where one output's kernel sits: the input its window centres on, and its
// phase row (rational ratios) or fractional position (grid).
struct KernelPos {
  long centre;
  std::size_t phase;
  double frac;
};

KernelPos locate(const ResamplerTable& t, double ratio, std::size_t i) {
  if (t.rational) {
    const std::uint64_t q = i * t.down;
    return {static_cast<long>(q / t.up), static_cast<std::size_t>(q % t.up), 0.0};
  }
  const double src = static_cast<double>(i) / ratio;
  const double c = std::floor(src);
  return {static_cast<long>(c), 0, src - c};
}

// One output whose window is clamped to the inputs lo..hi at a stream edge
// (absolute indices; `x` points at input lo).
template <class P>
[[gnu::always_inline]] inline float evaluate(const ResamplerTable& t, const double* x, long lo, long hi,
                                             KernelPos p) {
  // Clamping the window to the input leaves the taps of the row that face
  // it: the row starts at input centre - before.
  const long skip = lo - (p.centre - t.before);
  const long n = hi - lo + 1;
  if (n <= 0) return 0.0f;
  if (t.rational) {
    double y;
    dots<P, 1, 1>(x, 0, t.row(p.phase) + skip, 0, n, &y);
    return static_cast<float>(y);
  }
  // Grid: interpolate between the rows either side of the fractional
  // position (the weights are linear in it, so interpolating the two dot
  // products is the same as interpolating the rows).
  const auto [r, w] = grid_row(p.frac);
  double y[2];
  dots<P, 1, 2>(x, 0, t.row(r) + skip, static_cast<long>(t.width), n, y);
  return lerp(y, 1, w);
}

// One emit_ready pass: what it reads, and the cursor it advances (output i,
// its kernel position p, written at y).
struct EmitPass {
  const ResamplerTable& t;
  double ratio;
  const double* hist;  // input `base` onwards
  long base;
  long end;  // inputs received
  std::size_t out_total;
  bool final_flush;
  std::size_t i;
  KernelPos p;
  float* y;
};

// Emits outputs while their kernel window is satisfied, on lane pack P.
template <class P>
[[gnu::always_inline]] inline void emit(EmitPass& e) {
  const ResamplerTable& t = e.t;
  const double* hist = e.hist;
  const long base = e.base, end = e.end;
  const std::size_t out_total = e.out_total;
  const double ratio = e.ratio;
  const bool final_flush = e.final_flush;
  std::size_t i = e.i;
  KernelPos p = e.p;
  float* y = e.y;
  // From output i to i + 1: a rational ratio steps (i*M) div L and
  // (i*M) mod L by M without dividing; the grid locates the next output.
  const long centre_step = t.rational ? static_cast<long>(t.down / t.up) : 0;
  const auto phase_step = t.rational ? static_cast<std::size_t>(t.down % t.up) : 0;
  const auto step = [&] {
    ++i;
    if (!t.rational) {
      p = locate(t, ratio, i);
      return;
    }
    p.centre += centre_step;
    p.phase += phase_step;
    if (p.phase >= t.up) {
      p.phase -= static_cast<std::size_t>(t.up);
      ++p.centre;
    }
  };
  // Output i is due once its whole window has been received (push()
  // holds it until then), or at the end of the stream (flush(), which
  // reads past the last input as silence).
  const auto window_received = [&] { return p.centre + t.after < end; };
  const auto width = static_cast<long>(t.width);
  // A rational block is P::n windows per phase; a grid block kGridBlock
  // windows between one row pair.
  const std::size_t block = P::n * static_cast<std::size_t>(t.up);
  const long window_step = static_cast<long>(t.down);
  while (i < out_total && (final_flush || window_received())) {
    if (t.rational && p.centre >= t.before && i + block <= out_total &&
        locate(t, ratio, i + block - 1).centre + t.after < end) {
      // Rational ratios run phase-major over blocks of P::n * L outputs
      // whose windows all lie inside the input: outputs i + q + k*L
      // (k < P::n) share row (i + q)*M mod L, and their windows step by M
      // inputs, so each phase is one row against P::n windows, one lane
      // per window where they lie one input apart (M = 1).
      for (std::size_t q = 0; q < t.up; ++q) {
        double d[P::n];
        const double* x = hist + (p.centre - t.before - base);
        if (window_step == 1) {
          adjacent_dots<P, P::n, 1>(x, t.row(p.phase), 0, width, d);
        } else {
          dots<P, P::n, 1>(x, window_step, t.row(p.phase), 0, width, d);
        }
        for (std::size_t k = 0; k < P::n; ++k) y[q + k * t.up] = static_cast<float>(d[k]);
        step();
      }
      // p is now L outputs past the block's first; the next block starts
      // (P::n - 1) * L outputs and (P::n - 1) * M inputs further on, in
      // the same phase.
      y += block;
      i += block - t.up;
      p.centre += static_cast<long>(P::n - 1) * window_step;
      continue;
    }
    if (!t.rational && p.centre >= t.before && window_received()) {
      // Grid: up to kGridBlock outputs with whole windows. If all lie
      // between the same two rows, windows one input apart (a skew 1 + eps
      // moves to the next row every 1 / (4096 |eps|) outputs), they are one
      // row pair against kGridBlock windows, one lane per window; otherwise
      // each takes its own rows.
      KernelPos pos[kGridBlock];
      std::size_t n = 0;
      do {
        pos[n++] = p;
        step();
      } while (n < kGridBlock && i < out_total && window_received());
      const std::size_t r = grid_row(pos[0].frac).first;
      bool shared = n == kGridBlock;
      for (std::size_t k = 1; shared && k < n; ++k) {
        shared = pos[k].centre == pos[0].centre + static_cast<long>(k) && grid_row(pos[k].frac).first == r;
      }
      if (shared) {
        double d[2 * kGridBlock];
        adjacent_dots<P, kGridBlock, 2>(hist + (pos[0].centre - t.before - base), t.row(r), width, width, d);
        for (std::size_t k = 0; k < kGridBlock; ++k) *y++ = lerp(d + k, kGridBlock, grid_row(pos[k].frac).second);
        continue;
      }
      for (std::size_t k = 0; k < n; ++k) {
        const long lo = pos[k].centre - t.before;
        *y++ = evaluate<P>(t, hist + (lo - base), lo, pos[k].centre + t.after, pos[k]);
      }
      continue;
    }
    // One output at a time: a rational remainder short of a block, and
    // windows clamped at a stream edge.
    const long lo = std::max<long>(p.centre - t.before, 0);
    *y++ = evaluate<P>(t, hist + (lo - base), lo, std::min(p.centre + t.after, end - 1), p);
    step();
  }
  e.i = i;
  e.p = p;
  e.y = y;
}

}  // namespace

Resampler::Resampler(double ratio) : ratio_(ratio) {
  if (!(ratio > 0)) throw std::invalid_argument("resample ratio must be positive");
  table_ = table_for(ratio_);
}

Resampler::Resampler(double ratio, std::shared_ptr<const ResamplerTable> table)
    : ratio_(ratio), table_(std::move(table)) {}

Resampler Resampler::decimator(std::size_t factor, std::span<const float> prefilter) {
  if (factor == 0) throw std::invalid_argument("decimation factor must be positive");
  if (prefilter.empty()) throw std::invalid_argument("empty prefilter");
  const double ratio = 1.0 / static_cast<double>(factor);
  const double cutoff = cutoff_for(ratio);
  const double half_width = 4.0 / cutoff;
  const long reach = reach_for(cutoff);
  const long p = static_cast<long>(prefilter.size());
  // c[m] = sum_u kernel(u) * prefilter[m - u] for m in [-reach, reach + p - 1],
  // accumulated in double at index m + reach.
  std::vector<double> c(static_cast<std::size_t>(2 * reach + p), 0.0);
  for (long u = -reach; u <= reach; ++u) {
    const double k = kernel(static_cast<double>(u), cutoff, half_width);
    for (long q = 0; q < p; ++q) {
      c[static_cast<std::size_t>(u + q + reach)] +=
          k * static_cast<double>(prefilter[static_cast<std::size_t>(q)]);
    }
  }
  // Output i centres on input factor*i and reads inputs factor*i - m, so
  // tap j (input centre - before + j) carries offset m = before - j: the
  // composite in reverse, one phase.
  auto t = std::make_shared<ResamplerTable>();
  t->before = reach + p - 1;
  t->after = reach;
  t->width = c.size();
  t->rational = true;
  t->up = 1;
  t->down = factor;
  t->weights.resize(c.size());
  std::transform(c.rbegin(), c.rend(), t->weights.begin(),
                 [](double v) { return static_cast<float>(v); });
  return Resampler(ratio, std::move(t));
}

std::vector<float> Resampler::process(std::span<const float> input) const {
  Resampler stream(ratio_, table_);
  auto out = stream.push(input);
  const auto tail = stream.flush();
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

void Resampler::emit_ready(std::vector<float>& out, bool final_flush) {
  const ResamplerTable& t = *table_;
  const std::size_t out_total =
      static_cast<std::size_t>(std::floor(static_cast<double>(total_in_) * ratio_));
  // Sized for every output still to come, trimmed to the ones emitted.
  const std::size_t first = out.size();
  out.resize(first + (out_total > next_out_ ? out_total - next_out_ : 0));
  // hist_ is contiguous with absolute base hist_base_.
  EmitPass e{t, ratio_, hist_.data(), static_cast<long>(hist_base_), static_cast<long>(total_in_), out_total,
             final_flush, next_out_, locate(t, ratio_, next_out_), out.data() + first};
  util::at_width([&]<class P> { emit<P>(e); });
  next_out_ = e.i;
  out.resize(static_cast<std::size_t>(e.y - out.data()));
  // Evict history the next output can no longer reach.
  const long keep_from = e.p.centre - t.before;
  if (keep_from > static_cast<long>(hist_base_)) {
    const std::size_t drop =
        std::min(hist_.size(), static_cast<std::size_t>(keep_from) - hist_base_);
    hist_.erase(hist_.begin(), hist_.begin() + static_cast<long>(drop));
    hist_base_ += drop;
  }
}

std::vector<float> Resampler::push(std::span<const float> chunk) {
  if (flushed_) throw std::logic_error("Resampler::push after flush (call reset first)");
  hist_.insert(hist_.end(), chunk.begin(), chunk.end());
  total_in_ += chunk.size();
  std::vector<float> out;
  emit_ready(out, /*final_flush=*/false);
  return out;
}

std::vector<float> Resampler::flush() {
  if (flushed_) throw std::logic_error("Resampler::flush called twice (call reset first)");
  flushed_ = true;
  std::vector<float> out;
  emit_ready(out, /*final_flush=*/true);
  return out;
}

void Resampler::reset() {
  hist_.clear();
  hist_base_ = 0;
  total_in_ = 0;
  next_out_ = 0;
  flushed_ = false;
}

}  // namespace sonic::dsp
