#include "image/dct_codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "image/exp_golomb.hpp"
#include "util/units.hpp"

namespace sonic::image {
namespace {

constexpr std::uint32_t kMagic = 0x53575031;  // "SWP1"

// --- color ----------------------------------------------------------------

struct Planes {
  int w = 0, h = 0;    // luma dims
  int cw = 0, ch = 0;  // chroma dims (4:2:0)
  std::vector<float> y, cb, cr;
};

Planes to_ycbcr420(const Raster& img) {
  Planes p;
  p.w = img.width();
  p.h = img.height();
  p.cw = (p.w + 1) / 2;
  p.ch = (p.h + 1) / 2;
  p.y.resize(static_cast<std::size_t>(p.w) * p.h);
  std::vector<float> cb_full(p.y.size()), cr_full(p.y.size());
  for (int yy = 0; yy < p.h; ++yy) {
    for (int xx = 0; xx < p.w; ++xx) {
      const Rgb& c = img.at(xx, yy);
      const float r = c.r, g = c.g, b = c.b;
      const std::size_t i = static_cast<std::size_t>(yy) * p.w + xx;
      p.y[i] = 0.299f * r + 0.587f * g + 0.114f * b;
      cb_full[i] = -0.168736f * r - 0.331264f * g + 0.5f * b + 128.0f;
      cr_full[i] = 0.5f * r - 0.418688f * g - 0.081312f * b + 128.0f;
    }
  }
  p.cb.resize(static_cast<std::size_t>(p.cw) * p.ch);
  p.cr.resize(p.cb.size());
  for (int yy = 0; yy < p.ch; ++yy) {
    for (int xx = 0; xx < p.cw; ++xx) {
      float scb = 0, scr = 0;
      int n = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const int sy = yy * 2 + dy, sx = xx * 2 + dx;
          if (sy >= p.h || sx >= p.w) continue;
          scb += cb_full[static_cast<std::size_t>(sy) * p.w + sx];
          scr += cr_full[static_cast<std::size_t>(sy) * p.w + sx];
          ++n;
        }
      }
      const std::size_t i = static_cast<std::size_t>(yy) * p.cw + xx;
      p.cb[i] = scb / n;
      p.cr[i] = scr / n;
    }
  }
  return p;
}

// --- DCT ------------------------------------------------------------------

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

const DctTables& dct_tables() {
  static const DctTables t;
  return t;
}

void fdct8x8(const float in[64], float out[64]) {
  const auto& t = dct_tables();
  float tmp[64];
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      float acc = 0;
      for (int x = 0; x < 8; ++x) acc += in[y * 8 + x] * t.c[u][x];
      tmp[y * 8 + u] = acc;
    }
  }
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      float acc = 0;
      for (int y = 0; y < 8; ++y) acc += tmp[y * 8 + u] * t.c[v][y];
      out[v * 8 + u] = acc;
    }
  }
}

// --- quantization ----------------------------------------------------------

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

// Maps the public WebP-equivalent quality (0..100, as the paper uses) onto
// the internal JPEG-style scale. Calibrated on the rendered corpus so the
// size curve matches libwebp's: WebP Q10 ~= internal 10, WebP Q90 ~=
// internal 25 (VP8's prediction + arithmetic coding beat this coder's
// Exp-Golomb scheme by a growing margin at higher quality).
int webp_quality_to_internal(int quality) {
  quality = std::clamp(quality, 1, 100);
  if (quality <= 10) return quality;
  return 10 + (quality - 10) * 15 / 80;
}

std::array<int, 64> scaled_table(const int* base, int public_quality) {
  const int quality = webp_quality_to_internal(public_quality);
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  // Below quality ~30, WebP's VP8 coder degrades far more aggressively than
  // a JPEG-style scale: emulate with an extra AC multiplier so the size and
  // softness of the paper's Q10 operating point are reproduced.
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

// --- per-plane coding -------------------------------------------------------

void encode_plane(util::BitWriter& bw, const std::vector<float>& plane, int w, int h,
                  const std::array<int, 64>& quant) {
  const int bw_blocks = (w + 7) / 8;
  const int bh_blocks = (h + 7) / 8;
  int prev_dc = 0;
  float block[64], coef[64];
  for (int by = 0; by < bh_blocks; ++by) {
    for (int bx = 0; bx < bw_blocks; ++bx) {
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          const int sy = std::min(h - 1, by * 8 + y);
          const int sx = std::min(w - 1, bx * 8 + x);
          block[y * 8 + x] = plane[static_cast<std::size_t>(sy) * w + sx] - 128.0f;
        }
      }
      fdct8x8(block, coef);
      int q[64];
      for (int i = 0; i < 64; ++i) {
        q[i] = static_cast<int>(std::lround(coef[kZigzag[i]] / static_cast<float>(quant[static_cast<std::size_t>(kZigzag[i])])));
      }
      // DC delta.
      put_se(bw, q[0] - prev_dc);
      prev_dc = q[0];
      // AC run-length: token ue(0) is end-of-block (1 bit — most blocks in
      // a webpage are background and stop immediately); otherwise
      // ue(run + 1) zeros-skipped followed by the signed level.
      int i = 1;
      while (i < 64) {
        int run = 0;
        while (i + run < 64 && q[i + run] == 0) ++run;
        if (i + run >= 64) break;
        put_ue(bw, static_cast<std::uint32_t>(run) + 1);
        put_se(bw, q[i + run]);
        i += run + 1;
      }
      put_ue(bw, 0);  // EOB
    }
  }
}

}  // namespace

util::Bytes swebp_encode(const Raster& img, int quality) {
  quality = std::clamp(quality, 1, 100);
  const Planes p = to_ycbcr420(img);
  const auto ql = scaled_table(kLumaBase, quality);
  const auto qc = scaled_table(kChromaBase, quality);

  util::ByteWriter head;
  head.u32(kMagic);
  head.u32(static_cast<std::uint32_t>(img.width()));
  head.u32(static_cast<std::uint32_t>(img.height()));
  head.u8(static_cast<std::uint8_t>(quality));

  util::BitWriter bw;
  encode_plane(bw, p.y, p.w, p.h, ql);
  encode_plane(bw, p.cb, p.cw, p.ch, qc);
  encode_plane(bw, p.cr, p.cw, p.ch, qc);

  util::Bytes out = head.take();
  const util::Bytes body = bw.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace sonic::image
