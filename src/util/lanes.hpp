// The lane vocabulary of every vector kernel, and the one width dispatch
// that picks a kernel's instance. A kernel is written once, as a template
// over a lane pack P:
//  * Lanes4: 16-byte vectors (4 floats, 8 int16): SSE2 registers, or the
//    generic lowering of a build without SSE2;
//  * Lanes8: 32-byte vectors (8 floats, 16 int16), defined only under
//    __SSE2__; its ops carry target("avx2").
// util::at_width(f) runs f.template operator()<P>() at the pack that
// util::simd_width() (cpu.hpp) names on the calling thread: Lanes4 inline
// in the caller, Lanes8 inside run_lanes8, the one function that carries
// target("avx2") and flatten, which inline f, the kernel templates it
// calls and the pack's ops into it. Its instances are the only functions
// that hold a 32-byte register. The CPU probe decides once per process
// whether they run; only a test or benchmark row narrows a thread to
// Lanes4, through util::ScopedSimdWidth. No kernel takes a width.
// The build keeps the default ISA: no -mavx2, which could make an inline
// header function every caller's AVX2 copy, and no FMA, whose contracted
// multiply-add would change bits.
//
// What keeps the two instances' bits equal:
//  * arithmetic, compares and selects are the vector extensions' own
//    operators, lane by lane, so a lane's result depends only on that
//    lane's inputs, through the same IEEE or int16 operations at either
//    width;
//  * the ops of the packs below are the only ones whose lane indices
//    depend on n;
//  * vectors go in and out by reference, so no function compiled at the
//    default ISA passes a 32-byte vector by value (GCC's -Wpsabi).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/cpu.hpp"

namespace sonic::util {

// Any vector from or to memory, at any alignment.
template <class V>
[[gnu::always_inline]] inline void load_to(V& v, const void* p) {
  std::memcpy(&v, p, sizeof v);
}
template <class V>
[[gnu::always_inline]] inline void store_from(void* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// F, I and U hold n floats, int32 and uint32; D holds n / 2 doubles, so a
// pack's doubles are a pair of D; S holds 2n int16. Lanes4's Q holds two
// uint64.
struct Lanes4 {
  static constexpr std::size_t n = 4;
  typedef float F __attribute__((vector_size(16)));
  typedef std::int32_t I __attribute__((vector_size(16)));
  typedef std::uint32_t U __attribute__((vector_size(16)));
  typedef double D __attribute__((vector_size(16)));
  typedef std::uint64_t Q __attribute__((vector_size(16)));
  typedef std::int16_t S __attribute__((vector_size(16)));
  // n doubles, only ever converted from or to F: GCC splits the conversion
  // into cvtps2pd / cvtpd2ps pairs where a half-width float type would cost
  // a scalar conversion per lane.
  typedef double W __attribute__((vector_size(32)));

  // The lanes of lo then hi, rounded to float.
  static void narrow(const D& lo, const D& hi, F& out) {
    out = __builtin_convertvector(W(__builtin_shufflevector(lo, hi, 0, 1, 2, 3)), F);
  }
  // f's lanes in double, the low half in lo.
  static void widen(const F& f, D& lo, D& hi) {
    const W w = __builtin_convertvector(f, W);
    lo = __builtin_shufflevector(w, w, 0, 1);
    hi = __builtin_shufflevector(w, w, 2, 3);
  }
  // The low 32 bits of each double of lo then hi.
  static void low_words(const D& lo, const D& hi, U& out) {
    out = __builtin_shufflevector(reinterpret_cast<U>(lo), reinterpret_cast<U>(hi), 0, 2, 4, 6);
  }
  // {a0, b0, a1, b1, ...}: its first n lanes in lo, the rest in hi.
  static void interleave(const F& a, const F& b, F& lo, F& hi) {
    lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
  }
  // The even and the odd lanes of {lo, hi}.
  static void deinterleave(const F& lo, const F& hi, F& even, F& odd) {
    even = __builtin_shufflevector(lo, hi, 0, 2, 4, 6);
    odd = __builtin_shufflevector(lo, hi, 1, 3, 5, 7);
  }
  // Block by block of four lanes (shufps): each block of `even` holds
  // lanes 0 and 2 of x's block then of y's, and `odd` lanes 1 and 3. One
  // block here, so the same as deinterleave.
  static void deinterleave_blocks(const F& x, const F& y, F& even, F& odd) { deinterleave(x, y, even, odd); }
  // The four-lane blocks of a and b in turn, a's first: the first n lanes in
  // lo, the rest in hi.
  static void interleave_blocks(const F& a, const F& b, F& lo, F& hi) {
    lo = a;
    hi = b;
  }
  // Lane i of `even` to p[2i], lane i of `odd` to p[2i + 1] (punpck[lh]wd).
  static void store_interleaved(std::int16_t* p, const S& even, const S& odd) {
    store_from(p, S(__builtin_shufflevector(even, odd, 0, 8, 1, 9, 2, 10, 3, 11)));
    store_from(p + 8, S(__builtin_shufflevector(even, odd, 4, 12, 5, 13, 6, 14, 7, 15)));
  }
  // One 16-bit decision word to *words from two masks of all-ones or zero
  // lanes: bit i is lane i of `even`, bit 8 + i lane i of `odd`.
  static void decisions(const S& even, const S& odd, std::uint16_t* words) {
#if defined(__SSE2__)
    *words = static_cast<std::uint16_t>(__builtin_ia32_pmovmskb128(__builtin_ia32_packsswb128(even, odd)));
#else
    // Each all-ones lane keeps its own bit of a lane constant; the lanes
    // are then OR-ed together as 16-bit fields of two words, which holds
    // on either byte order.
    typedef std::uint16_t Su __attribute__((vector_size(16)));
    constexpr Su kEvenBits = {1, 2, 4, 8, 16, 32, 64, 128};
    constexpr Su kOddBits = {256, 512, 1024, 2048, 4096, 8192, 16384, 32768};
    const Su v = (reinterpret_cast<Su>(even) & kEvenBits) | (reinterpret_cast<Su>(odd) & kOddBits);
    std::uint64_t halves[2];
    std::memcpy(halves, &v, sizeof halves);
    std::uint64_t x = halves[0] | halves[1];
    x |= x >> 32;
    x |= x >> 16;
    *words = static_cast<std::uint16_t>(x & 0xffffu);
#endif
  }
  // Bit i set where lane i of the all-ones-or-zero `mask` is set (movmskps).
  static unsigned mask_bits(const I& mask) {
#if defined(__SSE2__)
    return static_cast<unsigned>(__builtin_ia32_movmskps(reinterpret_cast<F>(mask)));
#else
    const U bit = reinterpret_cast<U>(mask) & U{1, 2, 4, 8};
    return bit[0] | bit[1] | bit[2] | bit[3];
#endif
  }
};

// Four-lane values, for kernels that run at the one width.
inline Lanes4::F splat(float c) { return Lanes4::F{c, c, c, c}; }
inline Lanes4::F load(const float* p) {
  Lanes4::F v;
  load_to(v, p);
  return v;
}
inline void store(float* p, Lanes4::F v) { store_from(p, v); }

#if defined(__SSE2__)
struct Lanes8 {
  static constexpr std::size_t n = 8;
  typedef float F __attribute__((vector_size(32)));
  typedef std::int32_t I __attribute__((vector_size(32)));
  typedef std::uint32_t U __attribute__((vector_size(32)));
  typedef double D __attribute__((vector_size(32)));
  typedef std::int16_t S __attribute__((vector_size(32)));
  typedef float H __attribute__((vector_size(16)));  // n / 2 floats
  typedef double W __attribute__((vector_size(64)));

  [[gnu::target("avx2")]] static void narrow(const D& lo, const D& hi, F& out) {
    out = __builtin_shufflevector(__builtin_convertvector(lo, H), __builtin_convertvector(hi, H), 0, 1, 2, 3, 4, 5,
                                  6, 7);
  }
  [[gnu::target("avx2")]] static void widen(const F& f, D& lo, D& hi) {
    const W w = __builtin_convertvector(f, W);
    lo = __builtin_shufflevector(w, w, 0, 1, 2, 3);
    hi = __builtin_shufflevector(w, w, 4, 5, 6, 7);
  }
  [[gnu::target("avx2")]] static void low_words(const D& lo, const D& hi, U& out) {
    out = __builtin_shufflevector(reinterpret_cast<U>(lo), reinterpret_cast<U>(hi), 0, 2, 4, 6, 8, 10, 12, 14);
  }
  [[gnu::target("avx2")]] static void interleave(const F& a, const F& b, F& lo, F& hi) {
    lo = __builtin_shufflevector(a, b, 0, 8, 1, 9, 2, 10, 3, 11);
    hi = __builtin_shufflevector(a, b, 4, 12, 5, 13, 6, 14, 7, 15);
  }
  [[gnu::target("avx2")]] static void deinterleave(const F& lo, const F& hi, F& even, F& odd) {
    even = __builtin_shufflevector(lo, hi, 0, 2, 4, 6, 8, 10, 12, 14);
    odd = __builtin_shufflevector(lo, hi, 1, 3, 5, 7, 9, 11, 13, 15);
  }
  // vshufps, within each 128-bit half.
  [[gnu::target("avx2")]] static void deinterleave_blocks(const F& x, const F& y, F& even, F& odd) {
    even = __builtin_shufflevector(x, y, 0, 2, 8, 10, 4, 6, 12, 14);
    odd = __builtin_shufflevector(x, y, 1, 3, 9, 11, 5, 7, 13, 15);
  }
  // vperm2f128.
  [[gnu::target("avx2")]] static void interleave_blocks(const F& a, const F& b, F& lo, F& hi) {
    lo = __builtin_shufflevector(a, b, 0, 1, 2, 3, 8, 9, 10, 11);
    hi = __builtin_shufflevector(a, b, 4, 5, 6, 7, 12, 13, 14, 15);
  }
  // vpunpck[lh]wd interleave within each 128-bit half; vperm2i128 puts the
  // halves back in lane order.
  [[gnu::target("avx2")]] static void store_interleaved(std::int16_t* p, const S& even, const S& odd) {
    store_from(p, S(__builtin_shufflevector(even, odd, 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23)));
    store_from(p + 16, S(__builtin_shufflevector(even, odd, 8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30,
                                                 15, 31)));
  }
  // Two decision words, Lanes4's of lanes 0-7 then of lanes 8-15:
  // vpacksswb packs within each 128-bit half.
  [[gnu::target("avx2")]] static void decisions(const S& even, const S& odd, std::uint16_t* words) {
    const auto mask = static_cast<std::uint32_t>(__builtin_ia32_pmovmskb256(__builtin_ia32_packsswb256(even, odd)));
    std::memcpy(words, &mask, sizeof mask);
  }
};

// The Lanes8 instance of at_width.
template <class Kernel>
[[gnu::target("avx2"), gnu::flatten]] void run_lanes8(Kernel& kernel) {
  kernel.template operator()<Lanes8>();
}
#endif

// kernel.template operator()<P>() with P = Lanes8 where simd_width() is
// k256 on the calling thread, else Lanes4. A build without SSE2 has only
// the Lanes4 instance.
template <class Kernel>
[[gnu::always_inline]] inline void at_width(Kernel&& kernel) {
#if defined(__SSE2__)
  if (simd_width() == SimdWidth::k256) return run_lanes8(kernel);
#endif
  kernel.template operator()<Lanes4>();
}

}  // namespace sonic::util
