// Ablation: unequal error protection — §4's proposed optimization ("a
// dynamic scheme with higher error protection for important parts of an
// image/webpage"). The top of a news page (masthead + first headline) is
// what makes a partially-received page useful; UEP repeats the frames
// covering the top region.
//
// Compares uniform vs UEP delivery at equal channel loss: coverage of the
// top region, content rating of the top region, and the byte overhead paid.
//
//   ./ablation_uep [--pages 10] [--loss 0.15] [--trials 5]
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "eval/quality.hpp"
#include "sonic/framing.hpp"
#include "util/rng.hpp"
#include "web/corpus.hpp"
#include "web/layout.hpp"

using namespace sonic;

namespace {

struct Outcome {
  double top_coverage = 0;
  double top_rating = 0;
  double bytes = 0;
};

// The top region UEP protects: its first max(1, int(height * kUepTopFraction)) rows.
int top_rows(const image::Raster& img) {
  return std::max(1, static_cast<int>(img.height() * core::kUepTopFraction));
}

image::Raster top_crop(const image::Raster& img) { return img.cropped_to_height(top_rows(img)); }

Outcome deliver(const web::RenderResult& page, const core::UepPolicy& uep, double loss,
                std::uint64_t seed) {
  const auto bundle = core::make_bundle(1, "x.pk/", page, {10, 94}, 24 * 3600, uep);
  util::Rng rng(seed);
  core::PageAssembler assembler;
  for (const auto& frame : bundle.frames) {
    if (!rng.bernoulli(loss)) assembler.push(frame);
  }
  const auto received = assembler.assemble(1, image::InterpolationMode::kLeft);
  Outcome out;
  out.bytes = static_cast<double>(bundle.total_bytes());
  if (!received) return out;
  // Top-region coverage from the pre-interpolation mask.
  const int rows = top_rows(page.image);
  std::size_t got = 0;
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < page.image.width(); ++x) {
      got += received->mask[static_cast<std::size_t>(y) * page.image.width() + x];
    }
  }
  out.top_coverage = static_cast<double>(got) / (static_cast<double>(rows) * page.image.width());
  out.top_rating = eval::content_rating(top_crop(page.image), top_crop(received->image));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int pages = bench::arg_int(argc, argv, "--pages", 10);
  const double loss = bench::arg_double(argc, argv, "--loss", 0.15);
  const int trials = bench::arg_int(argc, argv, "--trials", 5);

  web::PkCorpus corpus;
  web::LayoutParams layout{360, 1800, 12};

  std::printf("UEP ablation: %.0f%% frame loss, top 20%% of page protected 2x\n\n", loss * 100);
  std::printf("%-10s %14s %14s %12s\n", "variant", "top coverage", "top rating", "bytes");

  double bytes_by_variant[2] = {0, 0};
  for (const bool uep_on : {false, true}) {
    double cov = 0, rating = 0, bytes = 0;
    int n = 0;
    for (int p = 0; p < pages; ++p) {
      const auto page =
          web::render_html(corpus.html(corpus.pages()[static_cast<std::size_t>(p * 9)], 0), layout);
      for (int t = 0; t < trials; ++t) {
        core::UepPolicy uep;
        uep.enabled = uep_on;
        const auto out = deliver(page, uep, loss, static_cast<std::uint64_t>(p * 100 + t + 7));
        cov += out.top_coverage;
        rating += out.top_rating;
        bytes += out.bytes;
        ++n;
      }
    }
    std::printf("%-10s %13.1f%% %14.1f %9.0f KB\n", uep_on ? "uep-2x" : "uniform",
                100.0 * cov / n, rating / n, bytes / n / 1024.0);
    bytes_by_variant[uep_on ? 1 : 0] = bytes / n;
  }

  std::printf("\nreading: doubling the top-region frames converts its residual loss rate\n");
  std::printf("from p to p^2, for a %.0f%% byte overhead here (the region split also breaks\n",
              100.0 * (bytes_by_variant[1] / bytes_by_variant[0] - 1.0));
  std::printf("long RLE runs; on tall pages the overhead approaches top_fraction) — the\n");
  std::printf("cheap version of the paper's proposed importance-aware protection (§4).\n");
  return 0;
}
