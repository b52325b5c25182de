#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "image/dct_codec.hpp"
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
  EXPECT_EQ(text_content(root), "before after");
}

TEST(Html, ToleratesMalformedInput) {
  // Unclosed tags, stray brackets, mismatched closes: parse, don't crash.
  const Node a = parse_html("<div><p>unclosed");
  EXPECT_EQ(text_content(a), "unclosed");
  const Node b = parse_html("text with < stray bracket");
  EXPECT_FALSE(b.children.empty());
  const Node c = parse_html("<b>bold</i></b>");
  EXPECT_EQ(text_content(c), "bold");
  EXPECT_EQ(text_content(parse_html("")), "");
}

TEST(Html, CollapsesWhitespace) {
  const Node root = parse_html("<p>multiple     spaces\n\nand   newlines</p>");
  EXPECT_EQ(text_content(root), "multiple spaces and newlines");
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
  const int advance = draw_text(img, "HELLO", 5, 5, 2, image::Rgb{0, 0, 0});
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

TEST(Layout, RecycledCanvasRendersTheSamePage) {
  PkCorpus corpus;
  const LayoutParams params{360, 3000, 12, 2};
  // A dirty canvas larger than any page, then each page's raster handed
  // back in for the next one, as the broadcast pipeline's workers do.
  image::Raster canvas(500, 5000, image::Rgb{1, 2, 3});
  for (std::size_t i = 0; i < 6; ++i) {
    const std::string html = corpus.html(corpus.pages()[i], 0);
    const auto fresh = render_html(html, params);
    auto recycled = render_html(html, params, std::move(canvas));
    EXPECT_EQ(recycled.image.width(), fresh.image.width());
    EXPECT_EQ(recycled.image.height(), fresh.image.height());
    EXPECT_EQ(recycled.image.pixels(), fresh.image.pixels());
    EXPECT_EQ(recycled.full_height, fresh.full_height);
    EXPECT_EQ(recycled.click_map.size(), fresh.click_map.size());
    canvas = std::move(recycled.image);
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
