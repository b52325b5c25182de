// The one CPU probe behind every kernel that is written at two register
// widths: the Viterbi's add-compare-select (fec::ConvolutionalCodec) and
// the FM chain's vector kernels (dsp/fast_math.hpp and its callers), all
// run through util::at_width (util/lanes.hpp). A process makes one
// decision, here, and every such kernel follows it.
#pragma once

namespace sonic::util {

// k128: 16-byte registers (util::Lanes4: SSE2, or the generic lowering of
// a build without it). k256: 32-byte AVX2 registers (util::Lanes8),
// reached only through util::run_lanes8, which carries target("avx2"); the
// build itself keeps the default ISA.
enum class SimdWidth { k128, k256 };

// k256 in an SSE2 build on a CPU with AVX2, else k128. Probed once per
// process (__builtin_cpu_supports); no option, environment variable or
// -march changes it.
SimdWidth simd_width();

// `width` if this process can run it, else std::invalid_argument: k256
// needs simd_width() to be k256. Lets a caller (a test, a benchmark row)
// run the k128 instance on an AVX2 host, never the reverse.
SimdWidth checked_simd_width(SimdWidth width);

}  // namespace sonic::util
