#include <gtest/gtest.h>

#include "eval/quality.hpp"
#include "image/column_codec.hpp"
#include "image/interpolate.hpp"
#include "util/rng.hpp"
#include "web/layout.hpp"

namespace sonic::eval {
namespace {

using sonic::util::Rng;

image::Raster page_image() {
  const auto page = sonic::web::render_html(
      "<h1>Test Headline For Quality</h1>"
      "<p>body text repeated body text repeated body text repeated body text</p>"
      "<p>more lines of text to fill the page with readable content here</p>"
      "<img width=\"150\" height=\"80\"/>"
      "<p>and a final paragraph of text content for the metric to chew on</p>",
      sonic::web::LayoutParams{240, 1000, 10});
  return page.image;
}

// Simulates the paper's synthetic loss injection: column-codec delivery
// with a fraction of segments dropped, optionally interpolated.
image::Raster lossy(const image::Raster& img, double loss, bool interpolate, std::uint64_t seed) {
  image::ColumnCodecParams params;
  params.quality = 50;
  auto segments = image::column_encode(img, params);
  Rng rng(seed);
  std::vector<image::ColumnSegment> kept;
  for (auto& s : segments) {
    if (!rng.bernoulli(loss)) kept.push_back(std::move(s));
  }
  auto decoded = image::column_decode(img.width(), img.height(), kept, params);
  if (interpolate) {
    image::interpolate_missing(decoded.image, decoded.mask, image::InterpolationMode::kLeft);
  }
  return decoded.image;
}

TEST(Ssim, IdentityIsOne) {
  const auto img = page_image();
  EXPECT_NEAR(ssim(img, img), 1.0, 1e-6);
  EXPECT_NEAR(edge_coherence(img, img), 1.0, 1e-6);
}

TEST(Ssim, DegradesWithLoss) {
  const auto img = page_image();
  double prev = 1.0;
  for (double loss : {0.05, 0.2, 0.5}) {
    const double s = ssim(img, lossy(img, loss, false, 7));
    EXPECT_LT(s, prev + 1e-9) << loss;
    prev = s;
  }
  EXPECT_LT(prev, 0.75);  // 50% uninterpolated loss is bad
}

TEST(Ssim, SizeMismatchThrows) {
  image::Raster a(10, 10), b(11, 10);
  EXPECT_THROW(ssim(a, b), std::invalid_argument);
  EXPECT_THROW(edge_coherence(a, b), std::invalid_argument);
}

TEST(EdgeCoherence, TextSuffersMoreThanContentAfterInterpolation) {
  // Interpolation restores coarse structure (SSIM -> content) better than
  // fine text strokes (edge coherence -> text): "text readability is more
  // susceptible to losses" (Fig. 5).
  const auto img = page_image();
  for (double loss : {0.1, 0.2, 0.5}) {
    const auto repaired = lossy(img, loss, true, 11);
    EXPECT_LT(text_rating(img, repaired), content_rating(img, repaired)) << loss;
  }
}

TEST(Mos, MonotoneAndBounded) {
  const MosCalibration cal;
  double prev = -1;
  for (double m = 0.0; m <= 1.0; m += 0.05) {
    const double r = mos_from_metric(m, cal);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 10.0);
    EXPECT_GE(r, prev);
    prev = r;
  }
  EXPECT_NEAR(mos_from_metric(0.6, {0.6, 8.0}), 5.0, 1e-9);
}

TEST(Ratings, InterpolationImprovesBothQuestions) {
  // Fig. 5's headline: interpolation buys >= 1 point at every loss rate.
  const auto img = page_image();
  for (double loss : {0.05, 0.1, 0.2, 0.5}) {
    const auto without = lossy(img, loss, false, 13);
    const auto with = lossy(img, loss, true, 13);
    EXPECT_GT(content_rating(img, with), content_rating(img, without)) << loss;
    EXPECT_GT(text_rating(img, with), text_rating(img, without)) << loss;
  }
}

TEST(Ratings, DegradeWithLossRate) {
  const auto img = page_image();
  double prev_content = 11, prev_text = 11;
  for (double loss : {0.05, 0.2, 0.5}) {
    const auto damaged = lossy(img, loss, false, 17);
    const double c = content_rating(img, damaged);
    const double t = text_rating(img, damaged);
    EXPECT_LE(c, prev_content + 0.3) << loss;
    EXPECT_LE(t, prev_text + 0.3) << loss;
    prev_content = c;
    prev_text = t;
  }
}

TEST(Ratings, CleanPageScoresHigh) {
  // The logistic MOS map saturates below 10 by design (real raters rarely
  // hand out a perfect score either); clean pages must still score high.
  const auto img = page_image();
  EXPECT_GT(content_rating(img, img), 8.2);
  EXPECT_GT(text_rating(img, img), 8.2);
}

}  // namespace
}  // namespace sonic::eval
