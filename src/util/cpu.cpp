#include "util/cpu.hpp"

#include <stdexcept>

namespace sonic::util {

SimdWidth simd_width() {
#if defined(__SSE2__)
  static const bool avx2 = (__builtin_cpu_init(), __builtin_cpu_supports("avx2"));
  return avx2 ? SimdWidth::k256 : SimdWidth::k128;
#else
  return SimdWidth::k128;
#endif
}

SimdWidth checked_simd_width(SimdWidth width) {
  if (width == SimdWidth::k256 && simd_width() != SimdWidth::k256) {
    throw std::invalid_argument("256-bit kernels need an SSE2 build on a CPU with AVX2");
  }
  return width;
}

}  // namespace sonic::util
