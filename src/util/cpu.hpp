// The one CPU probe behind every kernel that is written at two register
// widths: the Viterbi's add-compare-select (fec::ConvolutionalCodec) and
// the FM chain's vector kernels (dsp/fast_math.hpp and its callers), all
// run through util::at_width (util/lanes.hpp), which reads simd_width() on
// each call. A process makes one decision, here, and every such kernel
// follows it; no kernel, constructor or option takes a width. The one
// exception is ScopedSimdWidth, which lets a test or a benchmark row run
// the four-lane instance on an AVX2 host, on its own thread only.
#pragma once

namespace sonic::util {

// k128: 16-byte registers (util::Lanes4: SSE2, or the generic lowering of
// a build without it). k256: 32-byte AVX2 registers (util::Lanes8),
// reached only through util::run_lanes8, which carries target("avx2"); the
// build itself keeps the default ISA.
enum class SimdWidth { k128, k256 };

// On the calling thread, the width of the innermost live ScopedSimdWidth;
// without one, the probe's answer: k256 in an SSE2 build on a CPU with
// AVX2, else k128. Probed once per process (__builtin_cpu_supports); no
// option, environment variable or -march changes it.
SimdWidth simd_width();

// Pins simd_width() on the constructing thread to `width` until the guard
// is destroyed, then restores what the thread read before; guards nest in
// scope order. Other threads (pipeline workers included) keep the probe's
// answer. Throws std::invalid_argument for k256 where the probe says k128,
// so a guard never runs an instance the CPU cannot.
class ScopedSimdWidth {
 public:
  explicit ScopedSimdWidth(SimdWidth width);
  ~ScopedSimdWidth();
  ScopedSimdWidth(const ScopedSimdWidth&) = delete;
  ScopedSimdWidth& operator=(const ScopedSimdWidth&) = delete;

 private:
  SimdWidth pinned_;
  const SimdWidth* outer_;  // the enclosing guard's width, or null
};

}  // namespace sonic::util
