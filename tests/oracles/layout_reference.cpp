#include "oracles/layout_reference.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "web/font.hpp"

namespace sonic::oracles {

using web::ClickRegion;
using web::kGlyphWidth;
using web::LayoutParams;
using web::Node;
using web::text_height;
using web::text_width;

// Body text scale, kept here rather than read from the library so the
// oracle does not move with it; headings add 3, 2 and 1.
constexpr int kTextScale = 2;

void draw_glyph(image::Raster& img, char c, int x, int y, int scale, image::Rgb color) {
  const std::uint8_t* rows = web::glyph_rows(c);
  for (int r = 0; r < web::kGlyphHeight; ++r) {
    for (int col = 0; col < web::kGlyphWidth; ++col) {
      if (!(rows[r] & (1u << (web::kGlyphWidth - 1 - col)))) continue;
      img.fill_rect(x + col * scale, y + r * scale, scale, scale, color);
    }
  }
}

int draw_text(image::Raster& img, const std::string& text, int x, int y, int scale, image::Rgb color) {
  int cx = x;
  for (char c : text) {
    draw_glyph(img, c, cx, y, scale, color);
    cx += (web::kGlyphWidth + 1) * scale;
  }
  return cx - x;
}

namespace {

constexpr int kHardHeightCeiling = 40000;

// An <img> width/height attribute in px, clamped to [16, kHardHeightCeiling]:
// it is untrusted page input and feeds the int layout arithmetic.
int image_dimension(const std::string& s) {
  const long v = std::strtol(s.c_str(), nullptr, 10);
  return static_cast<int>(std::clamp(v, 16L, static_cast<long>(kHardHeightCeiling)));
}

image::Rgb parse_color(const std::string& s, image::Rgb fallback) {
  if (s.size() == 7 && s[0] == '#') {
    auto hex = [&](int i) {
      return static_cast<std::uint8_t>(std::strtol(s.substr(static_cast<std::size_t>(i), 2).c_str(), nullptr, 16));
    };
    return {hex(1), hex(3), hex(5)};
  }
  if (s == "black") return {0, 0, 0};
  if (s == "white") return {255, 255, 255};
  if (s == "red") return {200, 30, 30};
  if (s == "green") return {20, 140, 60};
  if (s == "blue") return {30, 60, 200};
  if (s == "gray" || s == "grey") return {128, 128, 128};
  return fallback;
}

struct Style {
  int scale = 2;
  image::Rgb color{20, 20, 20};
  bool link = false;
  std::string href;
};

class Layouter {
 public:
  // A dry run only measures; a real one draws onto `canvas`, reset to
  // `canvas_height` white rows (drawing clips to it).
  Layouter(const LayoutParams& params, bool dry_run, int canvas_height = 0, image::Raster canvas = {})
      : params_(params), cap_(height_cap(params)), dry_run_(dry_run), image_(std::move(canvas)) {
    if (!dry_run_) image_.reset(params.width, canvas_height);
  }

  static int height_cap(const LayoutParams& params) {
    return params.max_height > 0 ? std::min(params.max_height, kHardHeightCeiling) : kHardHeightCeiling;
  }

  void run(const Node& root) {
    Style body;
    body.scale = kTextScale;
    block(root, body);
    flush_line();
  }

  int used_height() const { return std::min(cursor_y_ + params_.margin / 2, cap_); }
  image::Raster take_image() { return std::move(image_); }
  std::vector<ClickRegion> take_click_map() { return std::move(click_map_); }

 private:
  struct Word {
    std::string text;
    Style style;
  };

  void block(const Node& node, Style style) {
    for (const Node& child : node.children) {
      if (child.type == Node::Type::kText) {
        inline_text(child.text, style);
        continue;
      }
      const std::string& tag = child.tag;
      if (tag == "script" || tag == "style" || tag == "head") continue;
      if (tag == "br") {
        flush_line();
        continue;
      }
      if (tag == "hr") {
        flush_line();
        vspace(8);
        if (!dry_run_) {
          image_.fill_rect(params_.margin, cursor_y_, params_.width - 2 * params_.margin, 3,
                           image::Rgb{180, 180, 180});
        }
        vspace(11);
        continue;
      }
      if (tag == "img") {
        flush_line();
        draw_image_placeholder(child);
        continue;
      }
      if (tag == "span" || tag == "b" || tag == "i" || tag == "em" || tag == "strong") {
        Style s = style;
        if (const std::string* c = child.attr("color")) s.color = parse_color(*c, s.color);
        block(child, s);
        continue;
      }
      if (tag == "a") {
        Style s = style;
        s.link = true;
        s.color = {30, 60, 200};
        if (const std::string* href = child.attr("href")) s.href = *href;
        link_start(s.href);
        block(child, s);
        link_end();
        continue;
      }
      // Block-level elements.
      flush_line();
      Style s = style;
      int space_before = 6, space_after = 6;
      if (tag == "h1") {
        s.scale = kTextScale + 3;
        space_before = 16;
        space_after = 12;
      } else if (tag == "h2") {
        s.scale = kTextScale + 2;
        space_before = 14;
        space_after = 10;
      } else if (tag == "h3") {
        s.scale = kTextScale + 1;
        space_before = 10;
        space_after = 8;
      } else if (tag == "p") {
        space_before = 20;
        space_after = 20;
      } else if (tag == "li") {
        space_before = 2;
        space_after = 2;
      }
      if (const std::string* c = child.attr("color")) s.color = parse_color(*c, s.color);

      const std::string* bg = child.attr("bgcolor");
      int bg_y0 = 0;
      if (bg && !dry_run_) {
        // Measure the block with a dry-run pass, paint the background, then
        // render for real on top of it.
        Layouter probe(params_, true);
        probe.cursor_y_ = cursor_y_;
        Style ps = s;
        probe.vspace(space_before);
        probe.block_body(child, ps, tag);
        probe.flush_line();
        const int bg_h = std::min(probe.cursor_y_, cap_) - cursor_y_ + space_after;
        bg_y0 = cursor_y_;
        image_.fill_rect(0, bg_y0, params_.width, bg_h, parse_color(*bg, {240, 240, 240}));
      }
      (void)bg_y0;
      vspace(space_before);
      block_body(child, s, tag);
      flush_line();
      vspace(space_after);
    }
  }

  void block_body(const Node& node, Style s, const std::string& tag) {
    if (tag == "li" && !dry_run_) {
      image_.fill_rect(params_.margin, cursor_y_ + 4 * s.scale / 2, 3 * s.scale / 2,
                       3 * s.scale / 2, s.color);
    }
    if (tag == "li") indent_ = params_.margin;
    block(node, s);
    if (tag == "li") indent_ = 0;
  }

  void inline_text(const std::string& text, const Style& style) {
    std::string word;
    for (char c : text) {
      if (c == ' ') {
        if (!word.empty()) place_word(word, style);
        word.clear();
      } else {
        word.push_back(c);
      }
    }
    if (!word.empty()) place_word(word, style);
  }

  void place_word(const std::string& word, const Style& style) {
    const int w = text_width(word, style.scale);
    const int space = (kGlyphWidth + 1) * style.scale;
    const int left = params_.margin + indent_;
    const int right = params_.width - params_.margin;
    if (cursor_x_ > left && cursor_x_ + w > right) new_line();
    if (cursor_x_ == 0) cursor_x_ = left;
    line_height_ = std::max(line_height_, text_height(style.scale) + 2 * style.scale);
    if (cursor_y_ + line_height_ <= cap_) {
      if (!dry_run_) {
        draw_text(image_, word, cursor_x_, cursor_y_, style.scale, style.color);
        if (style.link) {
          image_.fill_rect(cursor_x_, cursor_y_ + text_height(style.scale) + 1, w - space, 1,
                           style.color);
        }
      }
      if (style.link && in_link_) extend_link(cursor_x_, cursor_y_, w - space + space,
                                              text_height(style.scale) + 2);
    }
    cursor_x_ += w + space / 2;
  }

  void draw_image_placeholder(const Node& node) {
    int w = 600, h = 320;
    if (const std::string* ws = node.attr("width")) w = image_dimension(*ws);
    if (const std::string* hs = node.attr("height")) h = image_dimension(*hs);
    const int max_w = params_.width - 2 * params_.margin;
    if (w > max_w) {
      h = static_cast<int>(static_cast<long>(h) * max_w / w);
      w = max_w;
    }
    vspace(6);
    if (!dry_run_ && cursor_y_ < cap_) {
      const int x0 = params_.margin;
      image_.fill_rect(x0, cursor_y_, w, h, image::Rgb{210, 214, 220});
      // Photo stand-in seeded by the src string: a smooth two-color
      // gradient with a few soft bands — photograph-like compressibility
      // rather than noise.
      std::uint32_t hash = 2166136261u;
      if (const std::string* src = node.attr("src")) {
        for (char c : *src) hash = (hash ^ static_cast<std::uint32_t>(c)) * 16777619u;
      }
      const image::Rgb top{static_cast<std::uint8_t>(60 + (hash >> 8 & 0x7f)),
                           static_cast<std::uint8_t>(60 + (hash >> 16 & 0x7f)),
                           static_cast<std::uint8_t>(60 + (hash >> 24 & 0x7f))};
      const image::Rgb bottom{static_cast<std::uint8_t>(160 + (hash & 0x3f)),
                              static_cast<std::uint8_t>(140 + (hash >> 4 & 0x3f)),
                              static_cast<std::uint8_t>(120 + (hash >> 10 & 0x3f))};
      const int y_limit = std::min(h, image_.height() - cursor_y_);
      const int band0 = h / 4 + static_cast<int>(hash % 16);
      for (int yy = 0; yy < y_limit; ++yy) {
        const int t = h > 1 ? yy * 255 / (h - 1) : 0;
        image::Rgb c{static_cast<std::uint8_t>((top.r * (255 - t) + bottom.r * t) / 255),
                     static_cast<std::uint8_t>((top.g * (255 - t) + bottom.g * t) / 255),
                     static_cast<std::uint8_t>((top.b * (255 - t) + bottom.b * t) / 255)};
        // Two horizontal "subject" bands with a different tint.
        if ((yy > band0 && yy < band0 + h / 6) || (yy > h / 2 && yy < h / 2 + h / 8)) {
          c.r = static_cast<std::uint8_t>(255 - c.r / 2);
          c.g = static_cast<std::uint8_t>(c.g / 2 + 40);
        }
        for (int xx = 0; xx < w && x0 + xx < image_.width(); ++xx) {
          image_.at(x0 + xx, cursor_y_ + yy) = c;
        }
      }
      if (const std::string* alt = node.attr("alt")) {
        draw_text(image_, *alt, x0 + 8, cursor_y_ + 8, 2, image::Rgb{80, 80, 80});
      }
    }
    cursor_y_ = std::min(cursor_y_ + h, kHardHeightCeiling);
    vspace(6);
  }

  void vspace(int px) { cursor_y_ = std::min(cursor_y_ + px, kHardHeightCeiling); }

  void new_line() {
    cursor_y_ = std::min(cursor_y_ + std::max(line_height_, 1), kHardHeightCeiling);
    cursor_x_ = 0;
    line_height_ = 0;
  }

  void flush_line() {
    if (cursor_x_ > 0) new_line();
  }

  void link_start(const std::string& href) {
    in_link_ = true;
    link_href_ = href;
    link_rect_ = ClickRegion{};
  }

  void extend_link(int x, int y, int w, int h) {
    if (link_rect_.w == 0) {
      link_rect_ = ClickRegion{x, y, w, h, link_href_};
      return;
    }
    const int x1 = std::max(link_rect_.x + link_rect_.w, x + w);
    const int y1 = std::max(link_rect_.y + link_rect_.h, y + h);
    link_rect_.x = std::min(link_rect_.x, x);
    link_rect_.y = std::min(link_rect_.y, y);
    link_rect_.w = x1 - link_rect_.x;
    link_rect_.h = y1 - link_rect_.y;
  }

  void link_end() {
    if (!dry_run_ && in_link_ && link_rect_.w > 0 && !link_href_.empty()) {
      click_map_.push_back(link_rect_);
    }
    in_link_ = false;
  }

  const LayoutParams& params_;
  int cap_;
  bool dry_run_;
  image::Raster image_;
  std::vector<ClickRegion> click_map_;
  int cursor_x_ = 0;
  int cursor_y_ = 0;
  int line_height_ = 0;
  int indent_ = 0;
  bool in_link_ = false;
  std::string link_href_;
  ClickRegion link_rect_{};
};

}  // namespace

web::RenderResult render_html_reference(const web::Node& root, const web::LayoutParams& params) {
  // Measure the uncropped layout height first (reported as full_height so
  // callers can see what the PH cap discarded).
  LayoutParams uncapped = params;
  uncapped.max_height = 0;
  Layouter dry(uncapped, true);
  dry.run(root);
  const int full_height = dry.used_height();

  // The cursor advances the same way whatever the cap (the cap only clips
  // drawing), so the page is min(full height, cap) rows: the canvas is
  // exactly that size and needs no crop.
  const int height = std::max(1, std::min(full_height, Layouter::height_cap(params)));
  Layouter real(params, false, height);
  real.run(root);
  web::RenderResult out;
  out.image = real.take_image();
  out.click_map = real.take_click_map();
  out.full_height = full_height;
  // Drop click regions that fell below the crop.
  std::erase_if(out.click_map, [&](const web::ClickRegion& r) { return r.y >= height; });
  return out;
}

web::RenderResult render_html_reference(const std::string& html, const web::LayoutParams& params) {
  return render_html_reference(web::parse_html(html), params);
}

}  // namespace sonic::oracles
