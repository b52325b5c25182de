#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "image/dct_codec.hpp"
#include "oracles/layout_reference.hpp"
#include "oracles/readback.hpp"
#include "web/corpus.hpp"
#include "web/font.hpp"
#include "web/html.hpp"
#include "web/layout.hpp"

namespace sonic::web {
namespace {

// ------------------------------------------------------------------ HTML ---

TEST(Html, ParsesNestedStructure) {
  const Node root = parse_html("<html><body><div><p>hello <b>world</b></p></div></body></html>");
  ASSERT_EQ(root.children.size(), 1u);
  const Node& html = root.children[0];
  EXPECT_EQ(html.tag, "html");
  const Node& body = html.children[0];
  EXPECT_EQ(body.tag, "body");
  const Node& div = body.children[0];
  EXPECT_EQ(div.tag, "div");
  const Node& p = div.children[0];
  ASSERT_EQ(p.children.size(), 2u);
  EXPECT_EQ(p.children[0].type, Node::Type::kText);
  EXPECT_EQ(p.children[0].text, "hello ");
  EXPECT_EQ(p.children[1].tag, "b");
}

TEST(Html, ParsesAttributes) {
  const Node root = parse_html("<a href=\"example.pk/page\" color=red>link</a>");
  const Node& a = root.children[0];
  ASSERT_NE(a.attr("href"), nullptr);
  EXPECT_EQ(*a.attr("href"), "example.pk/page");
  ASSERT_NE(a.attr("color"), nullptr);
  EXPECT_EQ(*a.attr("color"), "red");
  EXPECT_EQ(a.attr("missing"), nullptr);
}

TEST(Html, VoidAndSelfClosingTags) {
  const Node root = parse_html("<p>a<br>b</p><img src=\"x\"/><hr>");
  EXPECT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children[1].tag, "img");
  EXPECT_EQ(root.children[2].tag, "hr");
  const Node& p = root.children[0];
  ASSERT_EQ(p.children.size(), 3u);
  EXPECT_EQ(p.children[1].tag, "br");
  EXPECT_TRUE(p.children[1].children.empty());
}

TEST(Html, SkipsScriptStyleAndComments) {
  const Node root = parse_html(
      "<p>before</p><script>var x = '<p>not content</p>';</script>"
      "<style>p { color: red }</style><!-- comment --><p>after</p>");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(oracles::text_content(root), "before after");
}

TEST(Html, ToleratesMalformedInput) {
  // Unclosed tags, stray brackets, mismatched closes: parse, don't crash.
  const Node a = parse_html("<div><p>unclosed");
  EXPECT_EQ(oracles::text_content(a), "unclosed");
  const Node b = parse_html("text with < stray bracket");
  EXPECT_FALSE(b.children.empty());
  const Node c = parse_html("<b>bold</i></b>");
  EXPECT_EQ(oracles::text_content(c), "bold");
  EXPECT_EQ(oracles::text_content(parse_html("")), "");
}

TEST(Html, CollapsesWhitespace) {
  const Node root = parse_html("<p>multiple     spaces\n\nand   newlines</p>");
  EXPECT_EQ(oracles::text_content(root), "multiple spaces and newlines");
}

// ------------------------------------------------------------------ Font ---

TEST(Font, GlyphsAreDistinct) {
  std::set<std::string> shapes;
  const std::string chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.,:!?-";
  for (char c : chars) {
    const std::uint8_t* rows = glyph_rows(c);
    shapes.insert(std::string(reinterpret_cast<const char*>(rows), kGlyphHeight));
  }
  EXPECT_EQ(shapes.size(), chars.size());
}

TEST(Font, LowercaseReusesUppercase) {
  for (char c = 'a'; c <= 'z'; ++c) {
    const std::uint8_t* lower = glyph_rows(c);
    const std::uint8_t* upper = glyph_rows(static_cast<char>(c - 'a' + 'A'));
    for (int r = 0; r < kGlyphHeight; ++r) EXPECT_EQ(lower[r], upper[r]);
  }
}

TEST(Font, DrawTextAdvances) {
  image::Raster img(200, 30, image::Rgb{255, 255, 255});
  const int advance = oracles::draw_text(img, "HELLO", 5, 5, 2, image::Rgb{0, 0, 0});
  EXPECT_EQ(advance, text_width("HELLO", 2));
  EXPECT_EQ(advance, 5 * (kGlyphWidth + 1) * 2);
  // Some pixels must be dark now.
  int dark = 0;
  for (const auto& p : img.pixels()) dark += p.r < 128;
  EXPECT_GT(dark, 20);
}

TEST(Font, UnknownGlyphIsBox) {
  const std::uint8_t* rows = glyph_rows('\x7f');
  EXPECT_EQ(rows[0], 0x1f);
  EXPECT_EQ(rows[6], 0x1f);
}

// ---------------------------------------------------------------- Layout ---

TEST(Layout, RendersAtRequestedWidth) {
  const auto page = render_html("<p>hello world</p>", LayoutParams{});
  EXPECT_EQ(page.image.width(), 1080);
  EXPECT_GT(page.image.height(), 10);
  EXPECT_LT(page.image.height(), 200);
}

TEST(Layout, TextWrapsAtMargin) {
  LayoutParams params;
  params.width = 200;
  std::string longtext = "<p>";
  for (int i = 0; i < 40; ++i) longtext += "word ";
  longtext += "</p>";
  const auto page = render_html(longtext, params);
  // 40 words cannot fit on one 200px line: must wrap to many lines.
  EXPECT_GT(page.image.height(), 100);
}

TEST(Layout, HeadingsAreTallerThanBody) {
  const auto h1 = render_html("<h1>Title</h1>", LayoutParams{});
  const auto p = render_html("<p>Title</p>", LayoutParams{});
  EXPECT_GT(h1.image.height(), p.image.height());
}

TEST(Layout, ClickMapCoversLinks) {
  const auto page = render_html(
      "<p>before</p><p><a href=\"target.pk/\">click here now</a></p><p>after</p>",
      LayoutParams{});
  ASSERT_EQ(page.click_map.size(), 1u);
  const ClickRegion& r = page.click_map[0];
  EXPECT_EQ(r.href, "target.pk/");
  EXPECT_GT(r.w, 10);
  EXPECT_GT(r.h, 5);
  // The region must lie within the image.
  EXPECT_GE(r.x, 0);
  EXPECT_GE(r.y, 0);
  EXPECT_LE(r.x + r.w, page.image.width());
  EXPECT_LE(r.y + r.h, page.image.height());
  // Hit-testing inside/outside.
  EXPECT_EQ(hit_test(page.click_map, r.x + r.w / 2, r.y + r.h / 2), "target.pk/");
  EXPECT_EQ(hit_test(page.click_map, 5, 5), "");
}

TEST(Layout, MultipleLinksGetSeparateRegions) {
  const auto page = render_html(
      "<p><a href=\"a.pk/\">first</a></p><p><a href=\"b.pk/\">second</a></p>", LayoutParams{});
  ASSERT_EQ(page.click_map.size(), 2u);
  EXPECT_EQ(page.click_map[0].href, "a.pk/");
  EXPECT_EQ(page.click_map[1].href, "b.pk/");
  EXPECT_LT(page.click_map[0].y + page.click_map[0].h, page.click_map[1].y + 1);
}

TEST(Layout, PixelHeightCapCropsPage) {
  LayoutParams capped;
  capped.max_height = 400;
  std::string lots = "<p>";
  for (int i = 0; i < 500; ++i) lots += "paragraph text here ";
  lots += "</p>";
  const auto page = render_html(lots, capped);
  EXPECT_LE(page.image.height(), 400);
  EXPECT_GT(page.full_height, 400);  // remembers the uncropped height

  LayoutParams uncapped;
  uncapped.max_height = 0;
  const auto full = render_html(lots, uncapped);
  EXPECT_GT(full.image.height(), 400);
}

TEST(Layout, CappedPageKeepsTheUncappedLayout) {
  // The renderer draws a capped page onto a canvas of exactly the cropped
  // height. The cap only clips drawing (a text line crossing it is left
  // out), so the page is min(full height, cap) rows and, above the last
  // line that could cross the cap, the uncapped page's pixels.
  std::string html = "<h1>Head</h1><div bgcolor=\"#ffeecc\"><p>";
  for (int i = 0; i < 200; ++i) html += "words in a tinted block ";
  html += "</p></div><img src=\"a.jpg\" width=\"600\" height=\"500\" alt=\"photo\"/><ul>";
  for (int i = 0; i < 40; ++i) html += "<li><a href=\"l.pk/\">item link</a></li>";
  html += "</ul>";
  LayoutParams uncapped;
  uncapped.max_height = 0;
  const auto full = render_html(html, uncapped);
  constexpr int kTallestLine = 64;
  for (const int cap : {1, 37, 400, 1000, full.image.height() - 1, full.image.height(), 50000}) {
    LayoutParams capped;
    capped.max_height = cap;
    const auto page = render_html(html, capped);
    EXPECT_EQ(page.full_height, full.full_height);
    ASSERT_EQ(page.image.height(), std::min(cap, full.image.height())) << "cap " << cap;
    const int same_rows = cap >= full.image.height() ? cap : std::max(0, cap - kTallestLine);
    const auto want = full.image.cropped_to_height(same_rows);
    const auto got = page.image.cropped_to_height(same_rows);
    EXPECT_EQ(got.pixels(), want.pixels()) << "cap " << cap;
  }
}

TEST(Layout, ImagePlaceholderRespectsDims) {
  const auto small = render_html("<img width=\"100\" height=\"80\"/>", LayoutParams{});
  const auto big = render_html("<img width=\"100\" height=\"300\"/>", LayoutParams{});
  EXPECT_GT(big.image.height(), small.image.height() + 150);
}

// <img> width/height are untrusted page input: out-of-range values lay out
// like the bound they exceed, [16, 40000] px, instead of overflowing the int
// layout arithmetic.
TEST(Layout, HugeImageAttributesAreClamped) {
  const LayoutParams params{200, 10000, 12, 2};
  const auto page = [&](const std::string& w, const std::string& h) {
    return render_html("<img width=\"" + w + "\" height=\"" + h + "\"/><p>after</p>", params);
  };
  const auto tall = page("100", "2147483647");
  const auto ceiling = page("100", "40000");
  EXPECT_EQ(tall.full_height, ceiling.full_height);
  EXPECT_LE(tall.full_height, 40000);
  EXPECT_EQ(tall.image.pixels(), ceiling.image.pixels());
  EXPECT_EQ(page("99999999999", "100").image.pixels(), page("40000", "100").image.pixels());
  EXPECT_EQ(page("100", "-5").image.pixels(), page("100", "16").image.pixels());
}

TEST(Layout, DeviceScalingRescalesClickMap) {
  const auto page = render_html(
      "<p><a href=\"x.pk/\">a link with several words in it</a></p>", LayoutParams{});
  ASSERT_EQ(page.click_map.size(), 1u);
  const auto scaled = scale_for_device(page, 360);  // Redmi Go width
  EXPECT_EQ(scaled.image.width(), 360);
  ASSERT_EQ(scaled.click_map.size(), 1u);
  EXPECT_NEAR(scaled.click_map[0].x, page.click_map[0].x / 3, 2);
  EXPECT_NEAR(scaled.click_map[0].w, page.click_map[0].w / 3, 2);
  EXPECT_EQ(scaled.click_map[0].href, "x.pk/");
}

TEST(Layout, DeterministicRendering) {
  const std::string html = "<h1>Fixed</h1><p>content</p><a href=\"z.pk/\">z</a>";
  const auto a = render_html(html, LayoutParams{});
  const auto b = render_html(html, LayoutParams{});
  EXPECT_EQ(a.image.pixels(), b.image.pixels());
  EXPECT_EQ(a.click_map.size(), b.click_map.size());
}

// ---------------------------------------------------------- Layout oracle ---
// layout_html records the page once and PageLayout::paint replays it; the
// reference is the two-pass layouter that drew straight onto a page canvas
// (tests/oracles/layout_reference). Pixels, click map and full height must
// match it exactly.

void expect_same_render(const RenderResult& got, const RenderResult& want, const std::string& what) {
  ASSERT_EQ(got.image.width(), want.image.width()) << what;
  ASSERT_EQ(got.image.height(), want.image.height()) << what;
  // Not EXPECT_EQ: a mismatch would print millions of pixels.
  EXPECT_TRUE(got.image.pixels() == want.image.pixels()) << what;
  EXPECT_EQ(got.full_height, want.full_height) << what;
  ASSERT_EQ(got.click_map.size(), want.click_map.size()) << what;
  for (std::size_t i = 0; i < got.click_map.size(); ++i) {
    const ClickRegion& a = got.click_map[i];
    const ClickRegion& b = want.click_map[i];
    EXPECT_TRUE(a.x == b.x && a.y == b.y && a.w == b.w && a.h == b.h && a.href == b.href) << what << " link " << i;
  }
}

TEST(LayoutOracle, CorpusPagesMatchTheReference) {
  PkCorpus corpus;
  std::vector<std::pair<std::string, std::string>> pages;
  for (const PageRef& ref : corpus.pages()) pages.emplace_back(ref.url, corpus.html(ref, 0));
  for (const char* query : {"cricket score", "rain", "election results"}) {
    pages.emplace_back(std::string("search:") + query, corpus.search_html(query, 0));
  }
  // The broadcast layout and a 96 x 400 smoke layout, where most pages
  // cross the cap and the margins squeeze images and words.
  for (const LayoutParams& params : {LayoutParams{}, LayoutParams{96, 400, 24, 2}}) {
    for (const auto& [name, html] : pages) {
      const Node root = parse_html(html);
      expect_same_render(render_html(root, params), oracles::render_html_reference(root, params),
                         name + " at " + params.fingerprint());
    }
  }
}

// Glyph lines and images laid out so that some cross 64-row band edges.
std::string band_edge_page() {
  std::string html = "<h1>Band edges</h1>";
  for (int i = 0; i < 12; ++i) {
    html += "<h" + std::to_string(1 + i % 3) + ">Line " + std::to_string(i) + " of tall glyphs</h" +
            std::to_string(1 + i % 3) + ">";
    html += "<img src=\"edge-" + std::to_string(i) + "\" width=\"" + std::to_string(120 + 37 * i) +
            "\" height=\"" + std::to_string(29 + 13 * i) + "\" alt=\"edge\"/>";
    html += "<p>short <a href=\"e.pk/" + std::to_string(i) + "\">link " + std::to_string(i) + "</a></p>";
  }
  return html;
}

TEST(LayoutOracle, HandWrittenPagesMatchTheReference) {
  std::string long_links = "<p>";
  for (int i = 0; i < 60; ++i) long_links += "words <a href=\"l.pk/" + std::to_string(i) + "\">a link that wraps</a> ";
  long_links += "</p>";
  const std::vector<std::string> pages = {
      // Nested bgcolor blocks, the inner one with headings and a link.
      "<div bgcolor=\"#ffeecc\"><h2>Outer block</h2><p>outer text before the inner block</p>"
      "<div bgcolor=\"#203040\"><h3 color=\"white\">Inner</h3><p color=\"white\">inner text that "
      "runs long enough to wrap onto a second line at narrow widths</p><a href=\"in.pk/\">inner "
      "link</a></div><p>outer text after</p></div><p>page text after both blocks</p>",
      // List bullets at body and heading scales, one linked.
      "<ul><li>first item</li><li><a href=\"x.pk/\">linked item text</a></li><li><h1>big item</h1></li>"
      "<li color=\"red\">red item</li></ul><p>after the list</p>",
      // An image taller than every cap, then text and a link below it.
      "<p>before</p><img src=\"tall\" width=\"500\" height=\"5000\" alt=\"tall photo\"/>"
      "<p>after the image <a href=\"after.pk/\">link</a></p>",
      // Text and links that cross whichever cap is set.
      "<h1>Head</h1>" + long_links + "<hr/>" + long_links,
      band_edge_page(),
  };
  for (const int width : {1080, 200}) {
    for (const int cap : {0, 37, 64, 65, 128, 400, 1000}) {
      const LayoutParams params{width, cap, 24, 2};
      for (std::size_t i = 0; i < pages.size(); ++i) {
        const Node root = parse_html(pages[i]);
        expect_same_render(render_html(root, params), oracles::render_html_reference(root, params),
                           "page " + std::to_string(i) + " at " + params.fingerprint());
      }
    }
  }
  // The band-edge page does paint across band edges: some column is
  // non-white on both sides of one.
  const RenderResult page = render_html(band_edge_page(), LayoutParams{});
  const image::Rgb white{255, 255, 255};
  bool crosses = false;
  for (int edge = PageLayout::kBandRows; edge < page.image.height() && !crosses; edge += PageLayout::kBandRows) {
    for (int x = 0; x < page.image.width() && !crosses; ++x) {
      crosses = !(page.image.at(x, edge - 1) == white) && !(page.image.at(x, edge) == white);
    }
  }
  EXPECT_TRUE(crosses);
}

// A bgcolor block inside a list item wraps at the item's indent, and its
// background now reaches its last line. The reference measured the block
// with a probe that ignored the indent, so the background stopped short.
TEST(Layout, BackgroundCoversAnIndentedBlock) {
  const std::string html =
      "<ul><li><div bgcolor=\"#102030\"><p color=\"white\">indented text long enough to wrap onto "
      "several lines in a narrow page</p></div></li></ul>";
  const LayoutParams params{200, 0, 24, 2};
  const RenderResult page = render_html(html, params);
  const image::Rgb bg{0x10, 0x20, 0x30};
  const image::Rgb white{255, 255, 255};
  // The last row with white text on it, and the background at the right
  // edge, where no text reaches.
  int last_text_row = -1;
  for (int y = 0; y < page.image.height(); ++y) {
    for (int x = 0; x < page.image.width(); ++x) {
      if (page.image.at(x, y) == white && page.image.at(page.image.width() - 1, y) == bg) last_text_row = y;
    }
  }
  ASSERT_GT(last_text_row, 0);
  int bg_bottom = -1;
  for (int y = 0; y < page.image.height(); ++y) {
    if (page.image.at(page.image.width() - 1, y) == bg) bg_bottom = y;
  }
  EXPECT_GT(bg_bottom, last_text_row + 1);
  // The reference's background ends above the block's last text row.
  const RenderResult reference = oracles::render_html_reference(html, params);
  int reference_bottom = -1;
  for (int y = 0; y < reference.image.height(); ++y) {
    if (reference.image.at(reference.image.width() - 1, y) == bg) reference_bottom = y;
  }
  EXPECT_LT(reference_bottom, bg_bottom);
}

TEST(PageLayout, PaintOfAnyRowRangeEqualsTheFullRaster) {
  PkCorpus corpus;
  std::vector<std::string> pages = {band_edge_page()};
  for (const std::size_t i : {0, 37, 99}) pages.push_back(corpus.html(corpus.pages()[i], 0));
  for (const std::string& html : pages) {
    const PageLayout layout = layout_html(parse_html(html), LayoutParams{});
    image::Raster full;
    layout.paint(0, layout.height(), full);
    EXPECT_TRUE(full.pixels() == render_html(html, LayoutParams{}).image.pixels());
    const std::size_t row_px = static_cast<std::size_t>(layout.width());
    image::Raster band;
    for (const int band_rows : {1, 7, 64, layout.height()}) {
      bool same = true;
      for (int y0 = 0; y0 < layout.height(); y0 += band_rows) {
        const int rows = std::min(band_rows, layout.height() - y0);
        layout.paint(y0, rows, band);
        ASSERT_EQ(band.width(), layout.width());
        ASSERT_EQ(band.height(), rows);
        same = same && std::equal(band.pixels().begin(), band.pixels().end(),
                                  full.pixels().begin() + static_cast<std::ptrdiff_t>(row_px * static_cast<std::size_t>(y0)));
      }
      EXPECT_TRUE(same) << "bands of " << band_rows;
    }
  }
}

TEST(PageLayout, PaintRejectsRowsOutsideThePage) {
  const PageLayout layout = layout_html(parse_html("<p>short page</p>"), LayoutParams{});
  image::Raster out;
  EXPECT_THROW(layout.paint(-1, 1, out), std::invalid_argument);
  EXPECT_THROW(layout.paint(0, layout.height() + 1, out), std::invalid_argument);
  EXPECT_THROW(layout.paint(layout.height(), 1, out), std::invalid_argument);
  EXPECT_THROW(layout.paint(0, -1, out), std::invalid_argument);
  layout.paint(layout.height(), 0, out);
  EXPECT_EQ(out.height(), 0);
}

// ---------------------------------------------------------------- Corpus ---

TEST(Corpus, Builds100Pages) {
  PkCorpus corpus;
  EXPECT_EQ(corpus.pages().size(), 100u);  // 25 landing + 75 internal
  int landings = 0;
  for (const auto& p : corpus.pages()) landings += p.landing();
  EXPECT_EQ(landings, 25);
}

TEST(Corpus, DomainsEndInPk) {
  PkCorpus corpus;
  for (int s = 0; s < corpus.num_sites(); ++s) {
    const std::string& d = corpus.domain(s);
    EXPECT_TRUE(d.size() > 3 && d.substr(d.size() - 3) == ".pk") << d;
  }
}

TEST(Corpus, FindByUrl) {
  PkCorpus corpus;
  const PageRef& first = corpus.pages()[0];
  EXPECT_EQ(corpus.find(first.url), &first);
  EXPECT_EQ(corpus.find("http://" + first.url), &first);
  EXPECT_EQ(corpus.find(corpus.domain(0)), &first);  // bare domain -> landing
  EXPECT_EQ(corpus.find("no-such-site.pk/"), nullptr);
}

TEST(Corpus, HtmlIsDeterministicPerVersion) {
  PkCorpus corpus;
  const PageRef& ref = corpus.pages()[0];
  EXPECT_EQ(corpus.html(ref, 0), corpus.html(ref, 0));
  // Same version across epochs -> identical HTML.
  for (int e = 1; e < 24; ++e) {
    if (!corpus.changed_at(ref, e)) {
      EXPECT_EQ(corpus.html(ref, e), corpus.html(ref, e - 1));
    } else {
      EXPECT_NE(corpus.html(ref, e), corpus.html(ref, e - 1));
    }
  }
}

TEST(Corpus, NewsChurnsMoreThanGovernment) {
  PkCorpus corpus;
  int news_changes = 0, gov_changes = 0, news_pages = 0, gov_pages = 0;
  for (const auto& ref : corpus.pages()) {
    if (!ref.landing()) continue;
    int changes = 0;
    for (int e = 1; e <= 72; ++e) changes += corpus.changed_at(ref, e);
    if (corpus.category(ref.site) == SiteCategory::kNews) {
      news_changes += changes;
      ++news_pages;
    } else if (corpus.category(ref.site) == SiteCategory::kGovernment) {
      gov_changes += changes;
      ++gov_pages;
    }
  }
  ASSERT_GT(news_pages, 0);
  ASSERT_GT(gov_pages, 0);
  EXPECT_GT(static_cast<double>(news_changes) / news_pages,
            5.0 * static_cast<double>(gov_changes) / gov_pages);
}

TEST(Corpus, PagesRenderAndVaryInSize) {
  // Render a few pages at reduced width; coded sizes must spread widely
  // (the Fig. 4(b) premise) and all pages must parse+render.
  PkCorpus corpus;
  LayoutParams params;
  params.width = 360;
  params.max_height = 0;  // uncapped: the size spread comes from page length
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 12; ++i) {
    const auto& ref = corpus.pages()[static_cast<std::size_t>(i * 8)];
    const auto page = render_html(corpus.html(ref, 0), params);
    ASSERT_GT(page.image.height(), 100) << ref.url;
    sizes.push_back(image::swebp_encode(page.image, 10).size());
  }
  const auto [mn, mx] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_GT(static_cast<double>(*mx), 1.5 * static_cast<double>(*mn));
}

TEST(Corpus, InternalPagesLinkBackHome) {
  PkCorpus corpus;
  const PageRef& internal = corpus.pages()[1];
  ASSERT_FALSE(internal.landing());
  const auto page = render_html(corpus.html(internal, 0), LayoutParams{});
  bool has_home_link = false;
  for (const auto& r : page.click_map) {
    if (r.href == corpus.domain(internal.site) + "/") has_home_link = true;
  }
  EXPECT_TRUE(has_home_link);
}

TEST(Corpus, Epoch0EverythingChanged) {
  PkCorpus corpus;
  for (const auto& ref : corpus.pages()) EXPECT_TRUE(corpus.changed_at(ref, 0));
}

}  // namespace
}  // namespace sonic::web
