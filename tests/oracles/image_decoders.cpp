#include "oracles/image_decoders.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "util/bytes.hpp"
#include "util/units.hpp"

namespace sonic::oracles {
namespace {

using image::Raster;
using image::Rgb;

// --- Exp-Golomb -----------------------------------------------------------

std::uint32_t get_ue(util::BitReader& br) {
  int zeros = 0;
  while (br.ok() && br.bit() == 0) {
    if (++zeros > 32) return 0;
  }
  std::uint32_t v = 1;
  for (int i = 0; i < zeros; ++i) v = (v << 1) | static_cast<std::uint32_t>(br.bit());
  return v - 1;
}

int get_se(util::BitReader& br) {
  const std::uint32_t u = get_ue(br);
  return (u & 1) ? static_cast<int>((u + 1) / 2) : -static_cast<int>(u / 2);
}

// --- swebp ------------------------------------------------------------------

constexpr std::uint32_t kSwebpMagic = 0x53575031;  // "SWP1"

struct Planes {
  int w = 0, h = 0;    // luma dims
  int cw = 0, ch = 0;  // chroma dims (4:2:0)
  std::vector<float> y, cb, cr;
};

Raster from_ycbcr420(const Planes& p) {
  Raster img(p.w, p.h);
  for (int yy = 0; yy < p.h; ++yy) {
    for (int xx = 0; xx < p.w; ++xx) {
      const float Y = p.y[static_cast<std::size_t>(yy) * p.w + xx];
      const std::size_t ci = static_cast<std::size_t>(yy / 2) * p.cw + xx / 2;
      const float Cb = p.cb[ci] - 128.0f;
      const float Cr = p.cr[ci] - 128.0f;
      auto clamp8 = [](float v) {
        return static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f));
      };
      img.at(xx, yy) = Rgb{clamp8(Y + 1.402f * Cr), clamp8(Y - 0.344136f * Cb - 0.714136f * Cr),
                           clamp8(Y + 1.772f * Cb)};
    }
  }
  return img;
}

struct DctTables {
  float c[8][8];  // c[u][x] = alpha(u) * cos((2x+1)u*pi/16)
  DctTables() {
    for (int u = 0; u < 8; ++u) {
      const float alpha = u == 0 ? std::sqrt(1.0f / 8.0f) : std::sqrt(2.0f / 8.0f);
      for (int x = 0; x < 8; ++x) {
        c[u][x] = alpha * std::cos((2 * x + 1) * u * static_cast<float>(sonic::util::kPi) / 16.0f);
      }
    }
  }
};

void idct8x8(const float in[64], float out[64]) {
  static const DctTables t;
  float tmp[64];
  for (int v = 0; v < 8; ++v) {
    for (int x = 0; x < 8; ++x) {
      float acc = 0;
      for (int u = 0; u < 8; ++u) acc += in[v * 8 + u] * t.c[u][x];
      tmp[v * 8 + x] = acc;
    }
  }
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      float acc = 0;
      for (int v = 0; v < 8; ++v) acc += tmp[v * 8 + x] * t.c[v][y];
      out[y * 8 + x] = acc;
    }
  }
}

constexpr int kLumaBase[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

constexpr int kChromaBase[64] = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

// The public quality's quantizer table: the encoder's WebP-to-internal
// quality map, JPEG-style scale and low-quality AC boost.
std::array<int, 64> scaled_table(const int* base, int public_quality) {
  public_quality = std::clamp(public_quality, 1, 100);
  const int quality = public_quality <= 10 ? public_quality : 10 + (public_quality - 10) * 15 / 80;
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  const int ac_boost_pct = quality < 30 ? 100 + (30 - quality) * 25 : 100;
  std::array<int, 64> q{};
  for (int i = 0; i < 64; ++i) {
    const int boost = i == 0 ? 100 : ac_boost_pct;
    q[static_cast<std::size_t>(i)] =
        std::clamp((base[i] * scale + 50) / 100 * boost / 100, 1, 1024);
  }
  return q;
}

constexpr int kZigzag[64] = {0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
                             12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
                             35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
                             58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

bool decode_plane(util::BitReader& br, std::vector<float>& plane, int w, int h,
                  const std::array<int, 64>& quant) {
  const int bw_blocks = (w + 7) / 8;
  const int bh_blocks = (h + 7) / 8;
  int prev_dc = 0;
  float coef[64], block[64];
  plane.assign(static_cast<std::size_t>(w) * h, 0.0f);
  for (int by = 0; by < bh_blocks; ++by) {
    for (int bx = 0; bx < bw_blocks; ++bx) {
      int q[64] = {0};
      prev_dc += get_se(br);
      q[0] = prev_dc;
      int i = 1;
      while (i < 64) {
        const std::uint32_t token = get_ue(br);
        if (token == 0) break;  // EOB
        i += static_cast<int>(token) - 1;
        if (i >= 64) return false;
        q[i] = get_se(br);
        ++i;
        if (i == 64) {
          if (get_ue(br) != 0) return false;  // trailing EOB
          break;
        }
      }
      if (!br.ok()) return false;
      for (int k = 0; k < 64; ++k) coef[kZigzag[k]] = static_cast<float>(q[k]) * static_cast<float>(quant[static_cast<std::size_t>(kZigzag[k])]);
      idct8x8(coef, block);
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          const int sy = by * 8 + y, sx = bx * 8 + x;
          if (sy >= h || sx >= w) continue;
          plane[static_cast<std::size_t>(sy) * w + sx] = block[y * 8 + x] + 128.0f;
        }
      }
    }
  }
  return true;
}

// --- lossless ---------------------------------------------------------------

constexpr std::uint32_t kLosslessMagic = 0x534c5331;  // "SLS1"

// PNG's Paeth predictor.
int paeth(int a, int b, int c) {
  const int p = a + b - c;
  const int pa = std::abs(p - a), pb = std::abs(p - b), pc = std::abs(p - c);
  if (pa <= pb && pa <= pc) return a;
  if (pb <= pc) return b;
  return c;
}

}  // namespace

std::optional<SwebpInfo> swebp_peek(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  if (r.u32() != kSwebpMagic) return std::nullopt;
  SwebpInfo info;
  info.width = static_cast<int>(r.u32());
  info.height = static_cast<int>(r.u32());
  info.quality = r.u8();
  if (!r.ok() || info.width <= 0 || info.height <= 0 || info.width > 1 << 16 || info.height > 1 << 20)
    return std::nullopt;
  return info;
}

std::optional<Raster> swebp_decode(std::span<const std::uint8_t> data) {
  const auto info = swebp_peek(data);
  if (!info) return std::nullopt;
  const auto ql = scaled_table(kLumaBase, info->quality);
  const auto qc = scaled_table(kChromaBase, info->quality);
  Planes p;
  p.w = info->width;
  p.h = info->height;
  p.cw = (p.w + 1) / 2;
  p.ch = (p.h + 1) / 2;
  util::BitReader br(data.subspan(13));
  if (!decode_plane(br, p.y, p.w, p.h, ql)) return std::nullopt;
  if (!decode_plane(br, p.cb, p.cw, p.ch, qc)) return std::nullopt;
  if (!decode_plane(br, p.cr, p.cw, p.ch, qc)) return std::nullopt;
  return from_ycbcr420(p);
}

std::optional<Raster> lossless_decode(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  if (r.u32() != kLosslessMagic) return std::nullopt;
  const int w = static_cast<int>(r.u32());
  const int h = static_cast<int>(r.u32());
  if (!r.ok() || w <= 0 || h <= 0 || w > 1 << 16 || h > 1 << 20) return std::nullopt;
  Raster img(w, h);
  util::BitReader br(data.subspan(12));
  for (int ch = 0; ch < 3; ++ch) {
    auto get = [&](int x, int y) -> int {
      if (x < 0 || y < 0) return 0;
      const Rgb& p = img.at(x, y);
      return ch == 0 ? p.r : ch == 1 ? p.g : p.b;
    };
    auto set = [&](int x, int y, int v) {
      Rgb& p = img.at(x, y);
      const std::uint8_t b = static_cast<std::uint8_t>(v);
      if (ch == 0) {
        p.r = b;
      } else if (ch == 1) {
        p.g = b;
      } else {
        p.b = b;
      }
    };
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const int pred = paeth(get(x - 1, y), get(x, y - 1), get(x - 1, y - 1));
        set(x, y, pred + get_se(br));
      }
    }
  }
  if (!br.ok()) return std::nullopt;
  return img;
}

}  // namespace sonic::oracles
