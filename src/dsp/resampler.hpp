// Arbitrary-ratio resampling. The FM simulator runs its IQ path at a higher
// rate than the 44.1 kHz audio path; the acoustic channel also uses a small
// resampling step to model sample-clock offset between transmitter and
// receiver (speaker vs. microphone ADC clocks never match exactly).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace sonic::dsp {

// Precomputed kernel weights for one ratio (defined in resampler.cpp).
struct ResamplerTable;

// Windowed-sinc interpolation resampler. The kernel is a Hann-windowed sinc
// spanning 4 zero-crossings on each side; when downsampling, its cutoff
// drops to the ratio and it stretches to match, so it has
// 2*ceil(4/cutoff)+1 taps: 9 when upsampling, 41 at ratio 0.2. Suitable both
// for large ratio changes (44.1k -> 192k) and for tiny clock skews
// (ratio 1 + epsilon).
//
// The kernel is never evaluated per sample. A polyphase table built once per
// ratio holds one row of weights per output phase:
//  * rational ratios L/M (L <= 4096, e.g. 5, 0.2, 640/147) get one exact row
//    per phase; output i centres on input (i*M) div L and takes row
//    (i*M) mod L, both in integer arithmetic;
//  * any other ratio (the acoustic clock skew 1 +- epsilon) gets a fine grid
//    of 4096 phases per input sample, linearly interpolated between the two
//    rows around each output's fractional position.
// Rational tables and the cutoff-1 grid (shared by every ratio >= 1) are
// memoized process-wide and immutable. A grid below ratio 1 has its ratio as
// its cutoff; each acoustic trial draws its own, so it is built for its
// resampler alone, and only half its rows are evaluated: the kernel is
// even, so the other half are the same rows reversed.
//
// Every output is a dot product in double with a fixed summation order, so
// its bits do not depend on which pass computes it. Outputs whose whole
// window lies inside the input go in blocks that load a row once for
// several windows:
//  * rational ratios run phase-major over blocks of n*L outputs, n the lane
//    count of the kernels' instance (4, or 8 with AVX2): outputs
//    i + q + k*L (k < n) share row q and their windows step by M. The 1:5
//    upsampler's windows lie one input apart (M = 1), so each lane takes
//    one window; the 5:1 decimator computes one row against n windows;
//  * the grid takes four consecutive outputs between the same two rows as
//    one row pair against four windows, one lane per window, and any other
//    output alone.
// The rest, a rational remainder short of a block and the few outputs
// clamped at a stream edge, are computed one at a time, over the part of
// the window inside the input.
//
// The kernels have a four-lane instance (SSE2, or the generic lowering of
// a build without it) and an eight-lane AVX2 one; a resampler runs the one
// util::simd_width() names. Both give the same bits.
//
// Streaming: push(chunk)* then flush() resamples an unbounded stream in
// chunks with bounded memory. Interpolation state — the kernel's history
// window and the output position — carries across push() calls, so
// concat(push(c1), push(c2), ..., flush()) is sample-identical for any
// chunking. push() withholds outputs whose kernel window still reaches past
// the samples received so far; flush() emits them treating the beyond-end
// region as silence. process(input) is push(input) + flush() on a fresh
// stream.
class Resampler {
 public:
  // ratio = output_rate / input_rate.
  explicit Resampler(double ratio);

  // Integer-factor decimator (ratio 1/factor) with `prefilter`, a causal
  // FIR at the input rate, folded into its kernel: one filter whose taps are
  // the prefilter convolved with the 1/factor Hann-sinc kernel, computed
  // once and evaluated only at the outputs, so a low-pass followed by a
  // decimating resampler costs one filter stage instead of two. Output
  // i = sum_n c[factor*i - n] * x[n], c spanning offsets
  // -4*factor .. 4*factor + prefilter.size() - 1. Output count and the
  // streaming contract are those of any Resampler. Past the last input the
  // stream is silence, so the prefilter's tail rings on into the last 4
  // outputs, where a separate low-pass and Resampler(1.0 / factor) cut the
  // low-pass output off instead; every earlier output is the same.
  static Resampler decimator(std::size_t factor, std::span<const float> prefilter);

  // Batch: whole buffer in, floor(n * ratio) samples out; the resampler's
  // own stream state is left alone.
  std::vector<float> process(std::span<const float> input) const;

  // Streaming: feed one chunk, get every output sample that is now fully
  // determined. History is bounded by the kernel reach, not the stream.
  std::vector<float> push(std::span<const float> chunk);
  // End of stream: the tail outputs the batch path would have produced.
  // After flush(), reset() must be called before pushing again.
  std::vector<float> flush();
  // Forget all streaming state (a fresh stream follows).
  void reset();

  double ratio() const { return ratio_; }
  // Input samples currently held for the kernel window (streaming mode).
  std::size_t history_size() const { return hist_.size(); }

 private:
  // Emits out[next_out_...] while the kernel window is satisfied; with
  // `final_flush` the stream is complete and end-of-input is silence.
  void emit_ready(std::vector<float>& out, bool final_flush);

  Resampler(double ratio, std::shared_ptr<const ResamplerTable> table);

  double ratio_;
  std::shared_ptr<const ResamplerTable> table_;

  // Streaming state: hist_[0] is absolute input index hist_base_. Inputs
  // are held in double, the precision the dot products run in.
  std::vector<double> hist_;
  std::size_t hist_base_ = 0;
  std::size_t total_in_ = 0;
  std::size_t next_out_ = 0;
  bool flushed_ = false;
};

}  // namespace sonic::dsp
