#include "oracles/column_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/bytes.hpp"

namespace sonic::oracles {

namespace {

using image::ColumnSegment;
using image::Rgb;

void put_ue(util::BitWriter& bw, std::uint32_t v) {
  const std::uint32_t vp1 = v + 1;
  int bits = 0;
  while ((1u << (bits + 1)) <= vp1) ++bits;
  for (int i = 0; i < bits; ++i) bw.bit(0);
  bw.bits(vp1, bits + 1);
}

std::uint32_t get_ue(util::BitReader& br) {
  int zeros = 0;
  while (br.ok() && br.bit() == 0) {
    if (++zeros > 32) return 0;
  }
  std::uint32_t v = 1;
  for (int i = 0; i < zeros; ++i) v = (v << 1) | static_cast<std::uint32_t>(br.bit());
  return v - 1;
}

void put_se(util::BitWriter& bw, int v) {
  put_ue(bw, v <= 0 ? static_cast<std::uint32_t>(-2 * v) : static_cast<std::uint32_t>(2 * v - 1));
}

int get_se(util::BitReader& br) {
  const std::uint32_t u = get_ue(br);
  return (u & 1) ? static_cast<int>((u + 1) / 2) : -static_cast<int>(u / 2);
}

struct QuantSteps {
  int y;
  int c;
};

QuantSteps steps_for_quality(int quality) {
  quality = std::clamp(quality, 1, 100);
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  return {std::clamp(12 * scale / 100, 1, 128), std::clamp(24 * scale / 100, 1, 160)};
}

struct Ycc {
  int y, cb, cr;
};

Ycc to_ycc(Rgb c) {
  const float r = c.r, g = c.g, b = c.b;
  return {static_cast<int>(std::lround(0.299f * r + 0.587f * g + 0.114f * b)),
          static_cast<int>(std::lround(-0.168736f * r - 0.331264f * g + 0.5f * b + 128.0f)),
          static_cast<int>(std::lround(0.5f * r - 0.418688f * g - 0.081312f * b + 128.0f))};
}

Rgb to_rgb(Ycc c) {
  const float Y = static_cast<float>(c.y);
  const float Cb = static_cast<float>(c.cb) - 128.0f;
  const float Cr = static_cast<float>(c.cr) - 128.0f;
  auto clamp8 = [](float v) { return static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f)); };
  return {clamp8(Y + 1.402f * Cr), clamp8(Y - 0.344136f * Cb - 0.714136f * Cr), clamp8(Y + 1.772f * Cb)};
}

std::size_t ue_bits(std::uint32_t v) {
  const std::uint32_t vp1 = v + 1;
  int bits = 0;
  while ((1u << (bits + 1)) <= vp1) ++bits;
  return static_cast<std::size_t>(2 * bits + 1);
}

std::size_t se_bits(int v) {
  return ue_bits(v <= 0 ? static_cast<std::uint32_t>(-2 * v) : static_cast<std::uint32_t>(2 * v - 1));
}

void encode_explicit_row(util::BitWriter& bw, const Ycc& q, const Ycc& prev) {
  put_se(bw, q.y - prev.y);
  const bool chroma_changed = q.cb != prev.cb || q.cr != prev.cr;
  bw.bit(chroma_changed ? 1 : 0);
  if (chroma_changed) {
    put_se(bw, q.cb - prev.cb);
    put_se(bw, q.cr - prev.cr);
  }
}

std::size_t explicit_row_bits(const Ycc& q, const Ycc& prev) {
  std::size_t bits = se_bits(q.y - prev.y) + 1;
  if (q.cb != prev.cb || q.cr != prev.cr) bits += se_bits(q.cb - prev.cb) + se_bits(q.cr - prev.cr);
  return bits;
}

// Decoded quantized components outside this range end the segment.
bool in_range(std::int64_t v) { return v >= 0 && v <= 2047; }

}  // namespace

std::vector<ColumnSegment> column_encode_reference(const image::Raster& img,
                                                   const image::ColumnCodecParams& params) {
  const QuantSteps steps = steps_for_quality(params.quality);
  std::vector<ColumnSegment> segments;
  const std::size_t budget_bits = static_cast<std::size_t>(params.payload_budget) * 8;

  for (int x = 0; x < img.width(); ++x) {
    int row = 0;
    while (row < img.height()) {
      ColumnSegment seg;
      seg.col = static_cast<std::uint16_t>(x);
      seg.row0 = static_cast<std::uint16_t>(row);
      util::BitWriter bw;
      Ycc prev{};
      int rows = 0;
      std::uint32_t pending_run = 0;
      auto flush_run = [&]() {
        put_ue(bw, pending_run);
        pending_run = 0;
      };
      while (row + rows < img.height() && rows < 0xffff) {
        const Ycc raw = to_ycc(img.at(x, row + rows));
        const Ycc q{(raw.y + steps.y / 2) / steps.y, (raw.cb + steps.c / 2) / steps.c,
                    (raw.cr + steps.c / 2) / steps.c};
        if (rows == 0) {
          const std::size_t cost = ue_bits(static_cast<std::uint32_t>(q.y)) +
                                   ue_bits(static_cast<std::uint32_t>(q.cb)) +
                                   ue_bits(static_cast<std::uint32_t>(q.cr));
          if (cost > budget_bits) break;
          put_ue(bw, static_cast<std::uint32_t>(q.y));
          put_ue(bw, static_cast<std::uint32_t>(q.cb));
          put_ue(bw, static_cast<std::uint32_t>(q.cr));
        } else if (q.y == prev.y && q.cb == prev.cb && q.cr == prev.cr) {
          if (bw.bit_count() + ue_bits(pending_run + 1) > budget_bits) break;
          ++pending_run;
          prev = q;
          ++rows;
          continue;
        } else {
          const std::size_t cost = ue_bits(pending_run) + explicit_row_bits(q, prev);
          if (bw.bit_count() + cost > budget_bits) break;
          flush_run();
          encode_explicit_row(bw, q, prev);
        }
        prev = q;
        ++rows;
      }
      if (rows > 0 && pending_run > 0) flush_run();
      seg.rows = static_cast<std::uint16_t>(rows);
      seg.data = bw.take();
      segments.push_back(std::move(seg));
      row += rows;
      if (rows == 0) break;
    }
  }
  return segments;
}

image::ColumnDecodeResult column_decode_reference(int width, int height,
                                                  std::span<const ColumnSegment> segments,
                                                  const image::ColumnCodecParams& params) {
  const QuantSteps steps = steps_for_quality(params.quality);
  image::ColumnDecodeResult out;
  out.image = image::Raster(width, height, Rgb{0, 0, 0});
  out.mask.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), 0);

  for (const ColumnSegment& seg : segments) {
    if (seg.col >= width || seg.row0 >= height) continue;
    util::BitReader br(seg.data);
    Ycc prev{};
    int r = 0;
    auto emit = [&](const Ycc& q) {
      const int y = seg.row0 + r;
      if (y < height) {
        out.image.at(seg.col, y) = to_rgb(Ycc{q.y * steps.y, q.cb * steps.c, q.cr * steps.c});
        out.mask[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) + seg.col] = 1;
      }
      ++r;
    };
    prev.y = static_cast<int>(get_ue(br));
    prev.cb = static_cast<int>(get_ue(br));
    prev.cr = static_cast<int>(get_ue(br));
    if (!br.ok()) continue;
    if (!in_range(prev.y) || !in_range(prev.cb) || !in_range(prev.cr)) continue;
    emit(prev);
    while (r < seg.rows) {
      const std::uint32_t run = get_ue(br);
      if (!br.ok()) break;
      for (std::uint32_t i = 0; i < run && r < seg.rows; ++i) emit(prev);
      if (r >= seg.rows) break;
      std::int64_t y = std::int64_t{prev.y} + get_se(br);
      std::int64_t cb = prev.cb;
      std::int64_t cr = prev.cr;
      if (br.bit()) {
        cb = std::int64_t{prev.cb} + get_se(br);
        cr = std::int64_t{prev.cr} + get_se(br);
      }
      if (!br.ok()) break;
      if (!in_range(y) || !in_range(cb) || !in_range(cr)) break;
      const Ycc q{static_cast<int>(y), static_cast<int>(cb), static_cast<int>(cr)};
      emit(q);
      prev = q;
    }
  }
  return out;
}

}  // namespace sonic::oracles
