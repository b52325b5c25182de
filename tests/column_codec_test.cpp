// Column-codec equivalence suite (run with `ctest -L kernel`): the row-fed
// encoder and strip decoder in image/column_codec.cpp against the per-pixel
// oracle in tests/oracles/column_reference.* —
//
//  * column_encode byte-identical on corpus pages across quality and
//    budget, on run-free noise, at strip-edge widths, on the tallest
//    addressable column, and on the cases the row-fed encoder shortcuts:
//    RGB changes that keep the quantized word, one row chunk repeating
//    next to one that changes, a change only in the last row, heights 1
//    and 2, width 1, runs cut where their ue() stops fitting, a run and
//    explicit row too long for one write, and repeated rows passed as a
//    count (the frozen pre-count encoder alongside);
//  * column_decode giving the identical image and mask on dropped,
//    shuffled, duplicated, overlapping and out-of-image segments, on
//    truncated data, on bit flips and on hand-built edge-case codes;
//  * concurrent encodes of one shared raster matching serial ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "image/column_codec.hpp"
#include "oracles/column_reference.hpp"
#include "oracles/frozen_row_encoder.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "web/corpus.hpp"
#include "web/html.hpp"
#include "web/layout.hpp"

namespace sonic {
namespace {

using image::ColumnCodecParams;
using image::ColumnSegment;
using image::Raster;
using image::Rgb;

void expect_same_segments(const std::vector<ColumnSegment>& got, const std::vector<ColumnSegment>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].col, want[i].col) << label << " segment " << i;
    ASSERT_EQ(got[i].row0, want[i].row0) << label << " segment " << i;
    ASSERT_EQ(got[i].rows, want[i].rows) << label << " segment " << i;
    ASSERT_EQ(got[i].data, want[i].data) << label << " segment " << i;
  }
}

void expect_encode_matches(const Raster& img, const ColumnCodecParams& params, const std::string& label) {
  expect_same_segments(image::column_encode(img, params), oracles::column_encode_reference(img, params),
                       label + " q" + std::to_string(params.quality) + " b" +
                           std::to_string(params.payload_budget));
}

void expect_decode_matches(int width, int height, const std::vector<ColumnSegment>& segments,
                           const ColumnCodecParams& params, const std::string& label) {
  const auto got = image::column_decode(width, height, segments, params);
  const auto want = oracles::column_decode_reference(width, height, segments, params);
  ASSERT_EQ(got.image.width(), want.image.width()) << label;
  ASSERT_EQ(got.image.height(), want.image.height()) << label;
  EXPECT_TRUE(got.image.pixels() == want.image.pixels()) << label;
  EXPECT_TRUE(got.mask == want.mask) << label;
}

Raster corpus_page(std::size_t index, int width, int max_height) {
  const web::PkCorpus corpus;
  const auto& ref = corpus.pages()[index % corpus.pages().size()];
  return web::render_html(corpus.html(ref, 0), web::LayoutParams{width, max_height, 24}).image;
}

Raster noise_raster(int width, int height, std::uint64_t seed) {
  util::Rng rng(seed);
  Raster img(width, height);
  for (auto& px : img.pixels()) {
    const std::uint64_t v = rng.next();
    px = Rgb{static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v >> 16)};
  }
  return img;
}

// Page-like content: flat bands and dashes with a noisy block.
Raster banded_raster(int width, int height, std::uint64_t seed) {
  util::Rng rng(seed);
  Raster img(width, height, Rgb{255, 255, 255});
  img.fill_rect(0, 0, width, height / 8, Rgb{30, 60, 160});
  for (int y = height / 6; y + 8 < height; y += 13) {
    for (int x = static_cast<int>(rng.uniform_int(6)); x < width; x += 7) img.fill_rect(x, y, 4, 7, Rgb{20, 20, 20});
  }
  for (int y = height / 2; y < std::min(height, height / 2 + 24); ++y) {
    for (int x = 0; x < width; ++x) {
      const std::uint64_t v = rng.next();
      img.at(x, y) = Rgb{static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8), 90};
    }
  }
  return img;
}

// ------------------------------------------------------------- encoder ---

TEST(ColumnCodecOracle, EncodeMatchesOnCorpusPagesAcrossQualityAndBudget) {
  // Budget 1 (8 bits) leaves most first rows unencodable: the rows == 0
  // path. 200 lets long runs grow past the frame-sized budgets.
  const int qualities[] = {1, 10, 50, 90, 100};
  for (std::size_t i = 0; i < std::size(qualities); ++i) {
    const Raster page = corpus_page(i * 7, 1080, 480);
    for (int budget : {1, 6, 20, 84, 94, 200}) {
      expect_encode_matches(page, {qualities[i], budget}, "corpus page " + std::to_string(i * 7));
    }
  }
}

TEST(ColumnCodecOracle, EncodeMatchesOnNoiseWithoutRuns) {
  const Raster noise = noise_raster(130, 300, 11);
  for (int quality : {10, 100}) {
    for (int budget : {6, 94}) expect_encode_matches(noise, {quality, budget}, "noise");
  }
}

TEST(ColumnCodecOracle, EncodeMatchesAtStripEdgeWidths) {
  for (int width : {1, 63, 64, 65, 127, 1081}) {
    const Raster img = banded_raster(width, 150, static_cast<std::uint64_t>(width));
    for (int budget : {6, 94}) expect_encode_matches(img, {10, budget}, "width " + std::to_string(width));
  }
}

TEST(ColumnCodecOracle, EncodeMatchesOnTallestUniformColumn) {
  // 65535 identical rows: the whole column is one run up to the 0xffff
  // rows-per-segment cap, or many budget-limited runs at small budgets.
  const Raster column(1, 0xffff, Rgb{40, 200, 90});
  for (int budget : {3, 4, 6, 94}) expect_encode_matches(column, {10, budget}, "uniform column");
  const auto segments = image::column_encode(column, {10, 94});
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].rows, 0xffff);
}

TEST(ColumnCodecOracle, EncodeMatchesOnEmptyAndNegativeBudget) {
  expect_encode_matches(Raster(0, 5), {10, 94}, "zero width");
  expect_encode_matches(Raster(5, 0), {10, 94}, "zero height");
  // A negative budget converts to an effectively unlimited one.
  expect_encode_matches(banded_raster(70, 90, 3), {10, -1}, "unlimited budget");
  expect_encode_matches(banded_raster(70, 90, 3), {10, 0}, "zero budget");
}

// The row-fed encoder skips row chunks equal to the chunk above, quantizes
// only pixels that differ from the one above, and codes a column's run when
// its word changes. These cases aim at each of those shortcuts.

TEST(ColumnCodecOracle, EncodeMatchesWhenRgbChangesButTheWordDoesNot) {
  // Two colours that quantize alike at quality 10, alternating row by row
  // and column by column: every chunk differs from the one above, no word
  // changes, so the page codes exactly as a uniform one.
  const Rgb a{200, 200, 200};
  const Rgb b{205, 200, 195};
  Raster alternating(130, 90);
  for (int y = 0; y < alternating.height(); ++y) {
    for (int x = 0; x < alternating.width(); ++x) alternating.at(x, y) = (x + y) % 2 ? a : b;
  }
  const ColumnCodecParams params{10, 94};
  expect_encode_matches(alternating, params, "alternating");
  expect_same_segments(image::column_encode(alternating, params),
                       image::column_encode(Raster(130, 90, a), params), "alternating vs uniform");
  // A real change in one row still shows through the alternation.
  alternating.fill_rect(10, 40, 100, 1, Rgb{20, 20, 20});
  expect_encode_matches(alternating, params, "alternating with a dark row");
}

TEST(ColumnCodecOracle, EncodeMatchesWhenOneChunkRepeatsAndItsNeighbourDoesNot) {
  // Width 150 has row chunks [0, 64), [64, 128) and [128, 150). Each row
  // repeats some chunks of the row above and changes others, including
  // changes only at the pixels on either side of a chunk edge.
  util::Rng rng(21);
  Raster img(150, 240, Rgb{255, 255, 255});
  const Rgb inks[] = {{0, 0, 0}, {30, 60, 160}, {200, 40, 40}, {250, 250, 250}};
  for (int y = 1; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) img.at(x, y) = img.at(x, y - 1);
    switch (y % 4) {
      case 0:  // the middle chunk changes, its neighbours repeat
        for (int x = 64; x < 128; x += 3) img.at(x, y) = inks[rng.uniform_int(4)];
        break;
      case 1:  // only the last pixel of the first chunk
        img.at(63, y) = inks[rng.uniform_int(4)];
        break;
      case 2:  // only the first pixel of the second chunk and the last pixel
        img.at(64, y) = inks[rng.uniform_int(4)];
        img.at(149, y) = inks[rng.uniform_int(4)];
        break;
      default:  // the row repeats whole
        break;
    }
  }
  for (int budget : {6, 20, 94}) expect_encode_matches(img, {10, budget}, "chunk edges");
  for (int budget : {6, 94}) expect_encode_matches(img, {100, budget}, "chunk edges");
}

TEST(ColumnCodecOracle, EncodeMatchesWhenOnlyTheLastRowChanges) {
  for (int height : {2, 3, 64, 500}) {
    Raster img(70, height, Rgb{240, 240, 240});
    for (int x = 0; x < img.width(); x += 2) img.at(x, height - 1) = Rgb{10, 90, 200};
    for (int budget : {1, 6, 94}) {
      expect_encode_matches(img, {10, budget}, "last row, height " + std::to_string(height));
    }
  }
}

TEST(ColumnCodecOracle, EncodeMatchesAtHeightsOneAndTwoAndWidthOne) {
  for (int height : {1, 2}) {
    for (int width : {1, 2, 64, 65, 130}) {
      const Raster img = noise_raster(width, height, static_cast<std::uint64_t>(width * 10 + height));
      for (int budget : {1, 6, 94}) {
        expect_encode_matches(img, {10, budget}, std::to_string(width) + "x" + std::to_string(height));
      }
    }
  }
  for (int height : {3, 100, 1000}) {
    const Raster column = banded_raster(1, height, static_cast<std::uint64_t>(height));
    for (int budget : {1, 6, 94}) expect_encode_matches(column, {50, budget}, "width 1 height " + std::to_string(height));
  }
}

TEST(ColumnCodecOracle, EncodeMatchesWhenRunsCrossTheFitCut) {
  // Column x codes x rows that alternate between two greys, then a run of
  // 300 identical rows, then alternates again. Across the columns the run
  // starts at every fill level of its segment, so at each budget some runs
  // are cut where their ue() stops fitting and the next segment starts
  // inside the run.
  const int width = 400;
  const int run = 300;
  Raster img(width, 2 * width + run + 40);
  const Rgb grey_a{100, 100, 100};
  const Rgb grey_b{170, 170, 170};
  for (int x = 0; x < width; ++x) {
    for (int y = 0; y < img.height(); ++y) {
      const bool in_run = y >= x && y < x + run;
      img.at(x, y) = in_run || y % 2 ? grey_a : grey_b;
    }
  }
  for (int budget : {1, 6, 94, 200}) {
    const ColumnCodecParams params{10, budget};
    expect_encode_matches(img, params, "fit cut");
    if (budget == 1) continue;  // nothing fits but the first rows
    int cut_inside_run = 0;
    for (const auto& seg : image::column_encode(img, params)) {
      if (seg.row0 > seg.col && seg.row0 < seg.col + run) ++cut_inside_run;
    }
    EXPECT_GT(cut_inside_run, 0) << "budget " << budget;
  }
}

TEST(ColumnCodecOracle, EncodeMatchesWhenARunAndItsRowOverflowOneWrite) {
  // The encoder writes ue(run) and the explicit row after it as one code
  // when the three fit 56 bits, else code by code. At quality 100 the
  // quantizer step is 1: after a run of more than 1 000 rows (ue: 19 bits
  // or more), a jump from green to magenta costs se(dY) and the flag (14
  // bits) and se(dCb) se(dCr) (34 bits), 67 bits or more in all. Column x
  // holds green for 1 000 + 37x rows, magenta for x + 1 rows, then green
  // again, so the magenta row is coded when the green returns; at quality
  // 10 the same page takes the one-write path.
  const int width = 24;
  Raster img(width, 2200, Rgb{0, 255, 0});
  for (int x = 0; x < width; ++x) img.fill_rect(x, 1000 + 37 * x, 1, x + 1, Rgb{255, 0, 255});
  for (int quality : {100, 10}) {
    for (int budget : {94, 200}) expect_encode_matches(img, {quality, budget}, "run then a full-scale jump");
  }
}

// A row that repeats the row above can be passed as a count: the encoder
// then skips its chunk comparison, and the segments stay the same. Fed the
// distinct rows of a laid-out page with their repeat counts, it matches
// the reference on the page's raster, as does the frozen pre-count encoder
// fed every row.
TEST(ColumnCodecOracle, RepeatedRowsPassedAsACountEncodeAlike) {
  const web::PkCorpus corpus;
  for (const std::size_t page : {0, 41, 77}) {
    const web::LayoutParams layout{360, 3000, 12};
    const web::PageLayout laid = web::layout_html(web::parse_html(corpus.html(corpus.pages()[page], 0)), layout);
    const Raster full = web::render_html(corpus.html(corpus.pages()[page], 0), layout).image;
    const std::vector<int>& distinct = laid.distinct_rows();
    Raster rows;
    laid.paint_distinct(0, static_cast<int>(distinct.size()), rows);
    for (const ColumnCodecParams params : {ColumnCodecParams{10, 84}, ColumnCodecParams{100, 20}}) {
      image::RowFedEncoder encoder(laid.width(), laid.height(), params);
      const std::size_t w = static_cast<std::size_t>(laid.width());
      for (std::size_t i = 0; i < distinct.size(); ++i) {
        const Rgb* row = rows.pixels().data() + i * w;
        encoder.push_row(row, i > 0 ? row - w : nullptr);
        encoder.repeat_row((i + 1 < distinct.size() ? distinct[i + 1] : laid.height()) - distinct[i] - 1);
      }
      const auto want = oracles::column_encode_reference(full, params);
      const std::string label = "page " + std::to_string(page) + " q" + std::to_string(params.quality);
      expect_same_segments(encoder.finish(), want, label);

      oracles::frozen::RowFedEncoder frozen(full.width(), full.height(), params);
      for (int y = 0; y < full.height(); ++y) {
        const Rgb* row = full.pixels().data() + static_cast<std::size_t>(y) * w;
        frozen.push_row(row, y > 0 ? row - w : nullptr);
      }
      expect_same_segments(frozen.finish(), want, label + " frozen");
    }
  }
  image::RowFedEncoder encoder(4, 3, {10, 94});
  const Raster row(4, 1, Rgb{1, 2, 3});
  EXPECT_THROW(encoder.repeat_row(1), std::logic_error);  // no row yet
  encoder.push_row(row.pixels().data(), nullptr);
  EXPECT_THROW(encoder.repeat_row(-1), std::logic_error);
  EXPECT_THROW(encoder.repeat_row(3), std::logic_error);  // past the last row
  encoder.repeat_row(2);
  EXPECT_EQ(encoder.finish().size(), 4u);
}

// ------------------------------------------------------------- decoder ---

TEST(ColumnCodecOracle, DecodeMatchesOnDroppedShuffledDuplicatedSegments) {
  const Raster page = corpus_page(3, 1080, 400);
  const ColumnCodecParams params{10, 94};
  const auto segments = image::column_encode(page, params);
  util::Rng rng(5);

  expect_decode_matches(page.width(), page.height(), segments, params, "all");
  std::vector<ColumnSegment> dropped;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i % 7 != 3) dropped.push_back(segments[i]);
  }
  expect_decode_matches(page.width(), page.height(), dropped, params, "1/7 dropped");

  auto shuffled = dropped;
  rng.shuffle(shuffled);
  expect_decode_matches(page.width(), page.height(), shuffled, params, "shuffled");

  auto duplicated = shuffled;
  for (std::size_t i = 0; i < shuffled.size(); i += 5) duplicated.push_back(shuffled[i]);
  rng.shuffle(duplicated);
  expect_decode_matches(page.width(), page.height(), duplicated, params, "duplicated");
}

TEST(ColumnCodecOracle, DecodeMatchesOnOverlappingSegments) {
  // Segments of two different images of one size, interleaved, plus
  // segments shifted onto their neighbours' rows: the later one must win.
  const Raster a = banded_raster(150, 260, 1);
  const Raster b = noise_raster(150, 260, 2);
  const ColumnCodecParams params{50, 20};
  const auto sa = image::column_encode(a, params);
  const auto sb = image::column_encode(b, params);
  std::vector<ColumnSegment> mixed;
  for (std::size_t i = 0; i < std::max(sa.size(), sb.size()); ++i) {
    if (i < sb.size()) mixed.push_back(sb[i]);
    if (i < sa.size()) mixed.push_back(sa[i]);
  }
  util::Rng rng(8);
  for (std::size_t i = 0; i < mixed.size(); i += 3) {
    ColumnSegment shifted = mixed[i];
    shifted.row0 = static_cast<std::uint16_t>(shifted.row0 + rng.uniform_int(9));
    mixed.insert(mixed.begin() + static_cast<std::ptrdiff_t>(rng.uniform_int(mixed.size())), shifted);
  }
  expect_decode_matches(150, 260, mixed, params, "overlapping");
}

TEST(ColumnCodecOracle, DecodeMatchesWithSegmentsOutsideTheImage) {
  const Raster img = banded_raster(130, 200, 4);
  const ColumnCodecParams params{10, 94};
  auto segments = image::column_encode(img, params);
  // Decoding into a smaller image puts whole segments at col >= width and
  // row0 >= height, and cuts others at the bottom edge.
  expect_decode_matches(100, 170, segments, params, "smaller image");
  // Rows decoded past the bottom edge must not land in the next column.
  std::vector<ColumnSegment> odd_columns;
  for (const auto& seg : segments) {
    if (seg.col % 2) odd_columns.push_back(seg);
  }
  expect_decode_matches(100, 170, odd_columns, params, "odd columns, smaller image");
  ColumnSegment far = segments[0];
  far.col = 0xffff;
  far.row0 = 0xffff;
  segments.push_back(far);
  far.col = 3;
  segments.push_back(far);
  expect_decode_matches(130, 200, segments, params, "far segments");
  expect_decode_matches(0, 0, segments, params, "empty image");
}

TEST(ColumnCodecOracle, DecodeMatchesOnTruncatedData) {
  const Raster img = corpus_page(9, 300, 400);
  const ColumnCodecParams params{10, 94};
  auto segments = image::column_encode(img, params);
  util::Rng rng(6);
  for (auto& seg : segments) seg.data.resize(rng.uniform_int(seg.data.size() + 1));
  expect_decode_matches(img.width(), img.height(), segments, params, "truncated");
}

TEST(ColumnCodecOracle, DecodeMatchesUnderRandomBitFlips) {
  const Raster img = banded_raster(200, 300, 9);
  for (int quality : {10, 100}) {
    const ColumnCodecParams params{quality, 94};
    const auto clean = image::column_encode(img, params);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      util::Rng rng(seed);
      auto segments = clean;
      for (auto& seg : segments) {
        if (seg.data.empty()) continue;
        const int flips = static_cast<int>(rng.uniform_int(4));
        for (int f = 0; f < flips; ++f) {
          seg.data[rng.uniform_int(seg.data.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
        }
        if (rng.bernoulli(0.1)) seg.rows = static_cast<std::uint16_t>(rng.uniform_int(0x10000));
      }
      expect_decode_matches(img.width(), img.height(), segments, params, "flips seed " + std::to_string(seed));
    }
  }
}

TEST(ColumnCodecOracle, DecodeMatchesOnRandomBytes) {
  // Mostly-zero garbage reaches the long-code paths: more than 32 leading
  // zeros, 32-zero codes that wrap, and codes running off the end.
  util::Rng rng(12);
  std::vector<ColumnSegment> segments;
  for (int i = 0; i < 3000; ++i) {
    ColumnSegment seg;
    seg.col = static_cast<std::uint16_t>(rng.uniform_int(40));
    seg.row0 = static_cast<std::uint16_t>(rng.uniform_int(90));
    seg.rows = static_cast<std::uint16_t>(rng.uniform_int(120));
    seg.data.resize(rng.uniform_int(40));
    const bool sparse = rng.bernoulli(0.5);
    for (auto& byte : seg.data) {
      byte = sparse ? (rng.bernoulli(0.1) ? static_cast<std::uint8_t>(rng.next()) : 0)
                    : static_cast<std::uint8_t>(rng.next());
    }
    segments.push_back(std::move(seg));
  }
  for (int quality : {1, 50, 100}) expect_decode_matches(40, 100, segments, {quality, 94}, "random bytes");
}

// Appends `count` zero bits then `value`'s low `width` bits.
void put_code(util::BitWriter& bw, int count, std::uint64_t value, int width) {
  for (int i = 0; i < count; ++i) bw.bit(0);
  for (int i = width - 1; i >= 0; --i) bw.bit(static_cast<int>((value >> i) & 1));
}

TEST(ColumnCodecOracle, DecodeMatchesOnEdgeCaseCodes) {
  // One hand-built segment per column.
  std::vector<ColumnSegment> segments;
  auto add = [&](std::uint16_t rows, util::BitWriter& bw) {
    segments.push_back(ColumnSegment{static_cast<std::uint16_t>(segments.size()), 0, rows, bw.take()});
  };
  {
    // 33 zeros: ue() gives 0 with the reader still ok, then carries on.
    util::BitWriter bw;
    put_code(bw, 33, 0, 0);
    put_code(bw, 0, 0b1, 1);
    put_code(bw, 0, 0b1, 1);
    put_code(bw, 0, 0b011, 3);  // run 2
    add(6, bw);
  }
  {
    // A 32-zero code: the leading 1 shifts out of uint32 and 0 - 1 wraps
    // to a run of 0xffffffff.
    util::BitWriter bw;
    put_code(bw, 0, 0b00110, 5);  // y = 5
    put_code(bw, 0, 0b1, 1);
    put_code(bw, 0, 0b1, 1);
    put_code(bw, 32, std::uint64_t{1} << 32, 33);
    add(40, bw);
  }
  {
    // A 32-zero run of 0x7fffffff, then an explicit row whose cb < 0 ends
    // the segment.
    util::BitWriter bw;
    put_code(bw, 0, 0b00110, 5);
    put_code(bw, 0, 0b1, 1);
    put_code(bw, 0, 0b1, 1);
    put_code(bw, 32, (std::uint64_t{1} << 32) | 0x80000000u, 33);
    put_code(bw, 0, 0b010, 3);  // dy = +1
    put_code(bw, 0, 0b1, 1);    // chroma changed
    put_code(bw, 0, 0b011, 3);  // dcb = -1
    put_code(bw, 0, 0b1, 1);
    add(9, bw);
  }
  for (int y0_bits : {1, 5}) {
    for (int zeros = 26; zeros <= 31; ++zeros) {
      // Runs coded with 26 to 31 leading zeros, starting 3 or 7 bits into
      // a byte: around the window's 28-zero reach. Some end on the last bit
      // of the data.
      util::BitWriter bw;
      put_code(bw, y0_bits / 2, 1 << (y0_bits / 2) | 1, y0_bits / 2 + 1);  // y = 0 or 4
      put_code(bw, 0, 0b1, 1);
      put_code(bw, 0, 0b1, 1);
      put_code(bw, zeros, (std::uint64_t{1} << zeros) | 3, zeros + 1);
      add(50, bw);
    }
  }
  for (std::uint16_t rows : {0, 1}) {
    // rows == 0 still emits the absolute first row.
    util::BitWriter bw;
    put_code(bw, 0, 0b010, 3);
    put_code(bw, 0, 0b1, 1);
    put_code(bw, 0, 0b1, 1);
    add(rows, bw);
  }
  expect_decode_matches(static_cast<int>(segments.size()), 64, segments, {10, 94}, "edge codes");
}

// --------------------------------------------------------- concurrency ---

TEST(ColumnCodecConcurrency, ParallelEncodesMatchSerial) {
  // make_bundle runs column_encode on several pipeline workers at once; the
  // codec keeps all of its state per call.
  const Raster page = corpus_page(1, 1080, 300);
  const ColumnCodecParams params[] = {{10, 94}, {50, 94}, {90, 20}, {10, 6}};
  std::vector<std::vector<ColumnSegment>> serial;
  for (const auto& p : params) serial.push_back(image::column_encode(page, p));

  std::vector<std::vector<ColumnSegment>> parallel(std::size(params));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < std::size(params); ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 2; ++rep) parallel[t] = image::column_encode(page, params[t]);
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < std::size(params); ++t) {
    expect_same_segments(parallel[t], serial[t], "thread " + std::to_string(t));
  }
}

}  // namespace
}  // namespace sonic
