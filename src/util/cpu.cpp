#include "util/cpu.hpp"

#include <stdexcept>

namespace sonic::util {

namespace {

// The innermost live ScopedSimdWidth's width on this thread, or null.
thread_local const SimdWidth* t_pinned = nullptr;

SimdWidth probed_width() {
#if defined(__SSE2__)
  static const bool avx2 = (__builtin_cpu_init(), __builtin_cpu_supports("avx2"));
  return avx2 ? SimdWidth::k256 : SimdWidth::k128;
#else
  return SimdWidth::k128;
#endif
}

}  // namespace

SimdWidth simd_width() { return t_pinned != nullptr ? *t_pinned : probed_width(); }

ScopedSimdWidth::ScopedSimdWidth(SimdWidth width) : pinned_(width), outer_(t_pinned) {
  if (width == SimdWidth::k256 && probed_width() != SimdWidth::k256) {
    throw std::invalid_argument("256-bit kernels need an SSE2 build on a CPU with AVX2");
  }
  t_pinned = &pinned_;
}

ScopedSimdWidth::~ScopedSimdWidth() { t_pinned = outer_; }

}  // namespace sonic::util
