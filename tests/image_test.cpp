#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "image/column_codec.hpp"
#include "image/dct_codec.hpp"
#include "image/interpolate.hpp"
#include "image/lossless.hpp"
#include "image/raster.hpp"
#include "oracles/readback.hpp"
#include "util/rng.hpp"

namespace sonic::image {
namespace {

using sonic::util::Rng;

// A webpage-like test card: white background, dark text-ish stripes, a
// colored header and an image-ish noise block.
Raster test_page(int w = 320, int h = 480, std::uint64_t seed = 7) {
  Rng rng(seed);
  Raster img(w, h, Rgb{255, 255, 255});
  img.fill_rect(0, 0, w, 60, Rgb{30, 60, 160});  // header
  for (int line = 0; line < (h - 80) / 20; ++line) {
    const int y = 80 + line * 20;
    const int len = static_cast<int>(rng.uniform(0.4, 0.95) * w);
    // "text": short dark dashes with gaps
    for (int x = 10; x < len; x += 7) {
      img.fill_rect(x, y, 5, 8, Rgb{20, 20, 20});
    }
  }
  // image block
  for (int y = h / 2; y < h / 2 + 80 && y < h; ++y) {
    for (int x = w / 4; x < 3 * w / 4; ++x) {
      img.at(x, y) = Rgb{static_cast<std::uint8_t>(rng.uniform_int(256)),
                         static_cast<std::uint8_t>(rng.uniform_int(256)),
                         static_cast<std::uint8_t>(rng.uniform_int(256))};
    }
  }
  return img;
}

// ----------------------------------------------------------------- Raster ---

TEST(Raster, BasicAccessorsAndFill) {
  Raster img(10, 5);
  EXPECT_EQ(img.width(), 10);
  EXPECT_EQ(img.height(), 5);
  img.fill_rect(2, 1, 3, 2, Rgb{1, 2, 3});
  EXPECT_EQ(img.at(2, 1), (Rgb{1, 2, 3}));
  EXPECT_EQ(img.at(4, 2), (Rgb{1, 2, 3}));
  EXPECT_EQ(img.at(5, 1), (Rgb{255, 255, 255}));
  // fill_rect clips out-of-range rectangles.
  img.fill_rect(-5, -5, 100, 100, Rgb{9, 9, 9});
  EXPECT_EQ(img.at(0, 0), (Rgb{9, 9, 9}));
  EXPECT_EQ(img.at(9, 4), (Rgb{9, 9, 9}));
}

TEST(Raster, CropToHeight) {
  Raster img(8, 100);
  img.at(3, 40) = Rgb{1, 1, 1};
  const Raster cropped = img.cropped_to_height(50);
  EXPECT_EQ(cropped.height(), 50);
  EXPECT_EQ(cropped.at(3, 40), (Rgb{1, 1, 1}));
  // No-op when already short enough.
  EXPECT_EQ(img.cropped_to_height(200).height(), 100);
}

TEST(Raster, ResetRedimensionsAndKeepsStorage) {
  Raster img(8, 100);
  img.at(3, 40) = Rgb{1, 1, 1};
  const Rgb* storage = img.pixels().data();
  img.reset(6, 20);
  EXPECT_EQ(img.width(), 6);
  EXPECT_EQ(img.height(), 20);
  EXPECT_EQ(img.pixels().size(), 120u);
  EXPECT_EQ(img.pixels().data(), storage);  // shrinking reuses the buffer
  for (const Rgb& p : img.pixels()) EXPECT_EQ(p, (Rgb{255, 255, 255}));
  img.reset(2, 3, Rgb{4, 5, 6});
  for (const Rgb& p : img.pixels()) EXPECT_EQ(p, (Rgb{4, 5, 6}));
  EXPECT_THROW(img.reset(-1, 3), std::invalid_argument);
}

TEST(Raster, ScalingFactorResize) {
  // §3.2: a 360-px-wide phone gets scaling factor 360/1080 = 1/3.
  Raster img(1080, 300);
  img.fill_rect(0, 0, 540, 300, Rgb{0, 0, 0});
  const Raster scaled = img.scaled_by(1.0 / 3.0);
  EXPECT_EQ(scaled.width(), 360);
  EXPECT_EQ(scaled.height(), 100);
  EXPECT_EQ(scaled.at(10, 50), (Rgb{0, 0, 0}));
  EXPECT_EQ(scaled.at(350, 50), (Rgb{255, 255, 255}));
}

TEST(Raster, PpmRoundTrip) {
  const Raster img = test_page(64, 48);
  const std::string path = "/tmp/sonic_test_roundtrip.ppm";
  write_ppm(img, path);
  const Raster back = oracles::read_ppm(path);
  ASSERT_EQ(back.width(), img.width());
  ASSERT_EQ(back.height(), img.height());
  EXPECT_EQ(back.pixels(), img.pixels());
  std::remove(path.c_str());
}

TEST(Raster, PsnrIdentityAndSensitivity) {
  const Raster img = test_page(64, 64);
  EXPECT_GE(psnr(img, img), 99.0);
  Raster noisy = img;
  Rng rng(3);
  for (auto& p : noisy.pixels()) {
    p.r = static_cast<std::uint8_t>(std::clamp(static_cast<int>(p.r) + static_cast<int>(rng.normal(0, 10)), 0, 255));
  }
  const double val = psnr(img, noisy);
  EXPECT_LT(val, 40.0);
  EXPECT_GT(val, 15.0);
}

// ------------------------------------------------------------------ swebp ---

TEST(Swebp, RoundTripPreservesContent) {
  const Raster img = test_page();
  for (int q : {10, 50, 90}) {
    const auto coded = swebp_encode(img, q);
    const auto decoded = swebp_decode(coded);
    ASSERT_TRUE(decoded.has_value()) << q;
    ASSERT_EQ(decoded->width(), img.width());
    ASSERT_EQ(decoded->height(), img.height());
    const double quality_db = psnr(img, *decoded);
    EXPECT_GT(quality_db, q >= 90 ? 19.0 : q >= 50 ? 17.0 : 14.0) << "q=" << q;
  }
}

TEST(Swebp, SizeGrowsWithQuality) {
  // Figure 4(b)'s premise: Q10 is several times smaller than Q90.
  const Raster img = test_page();
  const auto s10 = swebp_encode(img, 10).size();
  const auto s50 = swebp_encode(img, 50).size();
  const auto s90 = swebp_encode(img, 90).size();
  EXPECT_LT(s10, s50);
  EXPECT_LT(s50, s90);
  EXPECT_GT(static_cast<double>(s90) / static_cast<double>(s10), 2.5);
}

TEST(Swebp, QualityImprovesPsnrMonotonically) {
  const Raster img = test_page();
  double prev = 0;
  for (int q : {5, 20, 40, 60, 80, 95}) {
    const auto decoded = swebp_decode(swebp_encode(img, q));
    ASSERT_TRUE(decoded.has_value());
    const double val = psnr(img, *decoded);
    EXPECT_GE(val, prev - 0.3) << "q=" << q;  // allow tiny non-monotonic noise
    prev = val;
  }
}

TEST(Swebp, CompressesTextPagesHard) {
  // ~10x over raw is the paper's compression claim territory at Q10.
  const Raster img = test_page(640, 960);
  const std::size_t raw = static_cast<std::size_t>(img.width()) * img.height() * 3;
  const auto coded = swebp_encode(img, 10);
  EXPECT_LT(coded.size() * 10, raw);
}

TEST(Swebp, PeekParsesHeaderOnly) {
  const Raster img = test_page(100, 50);
  const auto coded = swebp_encode(img, 42);
  const auto info = swebp_peek(coded);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->width, 100);
  EXPECT_EQ(info->height, 50);
  EXPECT_EQ(info->quality, 42);
}

TEST(Swebp, RejectsGarbage) {
  util::Bytes junk{1, 2, 3, 4, 5};
  EXPECT_FALSE(swebp_decode(junk).has_value());
  EXPECT_FALSE(swebp_peek(junk).has_value());
  // Truncated valid stream: decoder may fail or return a partial image,
  // but must not crash or loop.
  const auto coded = swebp_encode(test_page(64, 64), 50);
  util::Bytes truncated(coded.begin(), coded.begin() + static_cast<std::ptrdiff_t>(coded.size() / 2));
  (void)swebp_decode(truncated);
}

TEST(Swebp, NonMultipleOf8Dimensions) {
  const Raster img = test_page(65, 47);
  const auto decoded = swebp_decode(swebp_encode(img, 60));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->width(), 65);
  EXPECT_EQ(decoded->height(), 47);
  // The noise block dominates MSE on this small card; the threshold checks
  // edge-block handling, not absolute fidelity.
  EXPECT_GT(psnr(img, *decoded), 16.0);
}

// --------------------------------------------------------------- lossless ---

TEST(Lossless, ExactRoundTrip) {
  const Raster img = test_page(120, 90);
  const auto coded = lossless_encode(img);
  const auto decoded = lossless_decode(coded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->pixels(), img.pixels());
}

TEST(Lossless, LargerThanLossyAtQ10) {
  // The size argument for choosing lossy WebP over DS's lossless PNG.
  const Raster img = test_page();
  EXPECT_GT(lossless_encode(img).size(), swebp_encode(img, 10).size() * 2);
}

TEST(Lossless, RejectsGarbage) {
  util::Bytes junk{9, 9, 9, 9};
  EXPECT_FALSE(lossless_decode(junk).has_value());
}

// ----------------------------------------------------------- column codec ---

TEST(ColumnCodec, FullDeliveryRoundTrip) {
  const Raster img = test_page(64, 200);
  ColumnCodecParams params;
  params.quality = 50;
  const auto segments = column_encode(img, params);
  ASSERT_FALSE(segments.empty());
  const auto result = column_decode(img.width(), img.height(), segments, params);
  EXPECT_EQ(result.coverage(), 1.0);
  EXPECT_GT(psnr(img, result.image), 17.0);
}

TEST(ColumnCodec, SegmentsRespectBudget) {
  const Raster img = test_page(32, 300);
  ColumnCodecParams params;
  const auto segments = column_encode(img, params);
  for (const auto& s : segments) {
    EXPECT_LE(s.data.size(), static_cast<std::size_t>(params.payload_budget) + 8)
        << "col " << s.col << " row0 " << s.row0;
    EXPECT_GT(s.rows, 0);
  }
}

TEST(ColumnCodec, SegmentsTileEachColumnExactly) {
  const Raster img = test_page(16, 123);
  ColumnCodecParams params;
  const auto segments = column_encode(img, params);
  std::vector<int> covered(16, 0);
  for (const auto& s : segments) covered[s.col] += s.rows;
  for (int c = 0; c < 16; ++c) EXPECT_EQ(covered[c], 123) << "col " << c;
}

TEST(ColumnCodec, LostSegmentsBlankOnlyTheirRows) {
  const Raster img = test_page(48, 200);
  ColumnCodecParams params;
  auto segments = column_encode(img, params);
  // Drop every 5th segment.
  std::vector<ColumnSegment> kept;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i % 5 != 0) kept.push_back(segments[i]);
  }
  const auto result = column_decode(img.width(), img.height(), kept, params);
  EXPECT_LT(result.coverage(), 1.0);
  EXPECT_GT(result.coverage(), 0.7);
  // Received pixels must still be correct.
  double err = 0;
  std::size_t n = 0;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (!result.mask[static_cast<std::size_t>(y) * img.width() + static_cast<std::size_t>(x)]) continue;
      err += std::abs(static_cast<int>(img.at(x, y).g) - static_cast<int>(result.image.at(x, y).g));
      ++n;
    }
  }
  EXPECT_LT(err / static_cast<double>(n), 30.0);
}

// Total coded transport size (segment data + per-segment headers).
std::size_t column_encoded_size(std::span<const ColumnSegment> segments) {
  std::size_t total = 0;
  for (const auto& s : segments) total += s.data.size() + 6;
  return total;
}

TEST(ColumnCodec, SizeComparableToSwebp) {
  // Column transport sacrifices some compression for loss resilience, but
  // must stay within a small factor of the 2D codec at the same quality.
  const Raster img = test_page(320, 480);
  ColumnCodecParams params;
  params.quality = 10;
  const auto segments = column_encode(img, params);
  const std::size_t col_size = column_encoded_size(segments);
  const std::size_t webp_size = swebp_encode(img, 10).size();
  EXPECT_LT(static_cast<double>(col_size) / static_cast<double>(webp_size), 10.0);
  const std::size_t raw = static_cast<std::size_t>(img.width()) * img.height() * 3;
  EXPECT_LT(col_size * 4, raw);  // still compresses well
}

TEST(ColumnCodec, SegmentSerializationRoundTrip) {
  ColumnSegment seg;
  seg.col = 1000;
  seg.row0 = 9999;
  seg.rows = 77;
  seg.data = {1, 2, 3, 4, 5};
  util::Bytes bytes(kSegmentHeaderSize + seg.data.size());
  EXPECT_EQ(segment_write(seg, bytes.data()), bytes.size());
  const auto back = segment_parse(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->col, seg.col);
  EXPECT_EQ(back->row0, seg.row0);
  EXPECT_EQ(back->rows, seg.rows);
  EXPECT_EQ(back->data, seg.data);
  EXPECT_FALSE(segment_parse(util::Bytes{1, 2}).has_value());
}

TEST(ColumnCodec, QualityKnobChangesSize) {
  const Raster img = test_page(64, 200);
  ColumnCodecParams lo{10, 94};
  ColumnCodecParams hi{90, 94};
  EXPECT_LT(column_encoded_size(column_encode(img, lo)),
            column_encoded_size(column_encode(img, hi)));
}

TEST(ColumnCodec, RejectsRastersBeyondSixteenBitFields) {
  // col and row0 are u16: a 65536th column or row would silently wrap.
  EXPECT_THROW(column_encode(Raster(0x10000, 1), {10, 94}), std::invalid_argument);
  EXPECT_THROW(column_encode(Raster(1, 0x10000), {10, 94}), std::invalid_argument);
  const auto tallest = column_encode(Raster(1, 0xffff), {10, 94});
  ASSERT_FALSE(tallest.empty());
  EXPECT_EQ(tallest.back().row0 + tallest.back().rows, 0xffff);
}

// ue(v) written the way the encoder does: zeros, then v + 1 in binary.
void put_ue_bits(util::BitWriter& bw, std::uint32_t zeros, std::uint64_t vp1) {
  for (std::uint32_t i = 0; i < zeros; ++i) bw.bit(0);
  for (int i = static_cast<int>(zeros); i >= 0; --i) bw.bit(static_cast<int>((vp1 >> i) & 1));
}

TEST(ColumnCodec, CraftedHugeFirstRowEndsSegment) {
  // y = ue(2^31 - 1): 31 zeros, then 0x80000000. Dequantizing it would
  // overflow int; the segment must end like a truncated one instead.
  util::BitWriter bw;
  put_ue_bits(bw, 31, 0x80000000u);
  put_ue_bits(bw, 0, 1);  // cb = 0
  put_ue_bits(bw, 0, 1);  // cr = 0
  put_ue_bits(bw, 0, 1);  // run 0
  ColumnSegment seg{0, 0, 4, bw.take()};
  const auto result = column_decode(1, 4, std::span(&seg, 1), {10, 94});
  EXPECT_EQ(result.coverage(), 0.0);
}

TEST(ColumnCodec, CraftedDeltaOverflowEndsSegment) {
  // A valid first row at the top of the range, then a luma delta of
  // 2^31 - 1 (se code 2^32 - 3): the sum would overflow int.
  util::BitWriter bw;
  put_ue_bits(bw, 11, 2048);  // y = 2047
  put_ue_bits(bw, 0, 1);      // cb = 0
  put_ue_bits(bw, 0, 1);      // cr = 0
  put_ue_bits(bw, 0, 1);      // run 0
  put_ue_bits(bw, 31, 0xfffffffeu);
  bw.bit(0);  // chroma unchanged
  put_ue_bits(bw, 0, 1);
  ColumnSegment seg{0, 0, 3, bw.take()};
  const auto result = column_decode(1, 3, std::span(&seg, 1), {10, 94});
  EXPECT_EQ(result.mask, (std::vector<std::uint8_t>{1, 0, 0}));
  EXPECT_EQ(result.image.at(0, 0), (Rgb{255, 255, 255}));
}

// ------------------------------------------------------------ interpolate ---

// Simulate column-segment losses on a decoded image and measure recovery.
struct LossyDecode {
  Raster image;
  std::vector<std::uint8_t> mask;
};

LossyDecode lossy_column_delivery(const Raster& img, double loss_rate, std::uint64_t seed) {
  ColumnCodecParams params;
  params.quality = 50;
  auto segments = column_encode(img, params);
  Rng rng(seed);
  std::vector<ColumnSegment> kept;
  for (auto& s : segments) {
    if (!rng.bernoulli(loss_rate)) kept.push_back(std::move(s));
  }
  auto result = column_decode(img.width(), img.height(), kept, params);
  return {std::move(result.image), std::move(result.mask)};
}

TEST(Interpolate, LeftRecoversColumnLosses) {
  const Raster img = test_page(96, 240);
  auto lossy = lossy_column_delivery(img, 0.10, 11);
  const double before = psnr(img, lossy.image);
  interpolate_missing(lossy.image, lossy.mask, InterpolationMode::kLeft);
  const double after = psnr(img, lossy.image);
  EXPECT_GT(after, before + 3.0);
  // Mask is fully filled afterwards.
  for (std::uint8_t m : lossy.mask) EXPECT_EQ(m, 1);
}

TEST(Interpolate, LeftBeatsUpForColumnLosses) {
  // Column losses blank vertical runs; the useful neighbours are horizontal.
  // (kUp can only ever reach the pixels above/below the lost run.)
  const Raster img = test_page(96, 240);
  auto a = lossy_column_delivery(img, 0.15, 13);
  auto b = a;
  interpolate_missing(a.image, a.mask, InterpolationMode::kLeft);
  interpolate_missing(b.image, b.mask, InterpolationMode::kUp);
  EXPECT_GT(psnr(img, a.image), psnr(img, b.image));
}

TEST(Interpolate, NoneLeavesMaskUntouched) {
  const Raster img = test_page(48, 100);
  auto lossy = lossy_column_delivery(img, 0.2, 17);
  const auto mask_before = lossy.mask;
  interpolate_missing(lossy.image, lossy.mask, InterpolationMode::kNone);
  EXPECT_EQ(lossy.mask, mask_before);
}

TEST(Interpolate, FillsEverythingEvenFromSinglePixel) {
  Raster img(16, 16, Rgb{0, 0, 0});
  img.at(8, 8) = Rgb{200, 100, 50};
  std::vector<std::uint8_t> mask(256, 0);
  mask[8 * 16 + 8] = 1;
  interpolate_missing(img, mask, InterpolationMode::kLeft);
  for (std::uint8_t m : mask) EXPECT_EQ(m, 1);
  EXPECT_EQ(img.at(0, 0), (Rgb{200, 100, 50}));
}

TEST(Interpolate, RejectsBadMask) {
  Raster img(4, 4);
  std::vector<std::uint8_t> mask(3, 0);
  EXPECT_THROW(interpolate_missing(img, mask, InterpolationMode::kLeft), std::invalid_argument);
}

TEST(Interpolate, ModeNames) {
  EXPECT_STREQ(interpolation_mode_name(InterpolationMode::kLeft), "left");
  EXPECT_STREQ(interpolation_mode_name(InterpolationMode::kNone), "none");
}

}  // namespace
}  // namespace sonic::image
