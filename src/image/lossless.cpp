#include "image/lossless.hpp"

#include <cmath>
#include <cstdlib>

#include "image/exp_golomb.hpp"

namespace sonic::image {
namespace {

constexpr std::uint32_t kMagic = 0x534c5331;  // "SLS1"

// PNG's Paeth predictor.
int paeth(int a, int b, int c) {
  const int p = a + b - c;
  const int pa = std::abs(p - a), pb = std::abs(p - b), pc = std::abs(p - c);
  if (pa <= pb && pa <= pc) return a;
  if (pb <= pc) return b;
  return c;
}

}  // namespace

util::Bytes lossless_encode(const Raster& img) {
  util::ByteWriter head;
  head.u32(kMagic);
  head.u32(static_cast<std::uint32_t>(img.width()));
  head.u32(static_cast<std::uint32_t>(img.height()));

  util::BitWriter bw;
  for (std::uint8_t b : head.bytes()) bw.bits(b, 8);
  for (int ch = 0; ch < 3; ++ch) {
    auto get = [&](int x, int y) -> int {
      if (x < 0 || y < 0) return 0;
      const Rgb& p = img.at(x, y);
      return ch == 0 ? p.r : ch == 1 ? p.g : p.b;
    };
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        const int pred = paeth(get(x - 1, y), get(x, y - 1), get(x - 1, y - 1));
        put_se(bw, get(x, y) - pred);
      }
    }
  }
  return bw.take();
}

}  // namespace sonic::image
