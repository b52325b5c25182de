#include "web/layout.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "web/font.hpp"

namespace sonic::web {

std::string LayoutParams::fingerprint() const {
  // Appended piece by piece: GCC 12 misreads "lit" + std::string as an
  // overlapping copy (-Wrestrict).
  return std::string("w")
      .append(std::to_string(width))
      .append("h")
      .append(std::to_string(max_height))
      .append("m")
      .append(std::to_string(margin));
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


// Bit r (0 <= r <= kGlyphHeight) set where glyph row r of `c` differs
// from row r - 1, the rows outside the glyph being blank.
unsigned glyph_row_changes(char c) {
  static const std::array<std::uint8_t, 256> table = [] {
    std::array<std::uint8_t, 256> changes{};
    for (std::size_t i = 0; i < changes.size(); ++i) {
      const std::uint8_t* glyph = glyph_rows(static_cast<char>(i));
      std::uint8_t above = 0;
      for (int r = 0; r < kGlyphHeight; ++r) {
        if (glyph[r] != above) changes[i] |= static_cast<std::uint8_t>(1u << r);
        above = glyph[r];
      }
      if (above != 0) changes[i] |= static_cast<std::uint8_t>(1u << kGlyphHeight);
    }
    return changes;
  }();
  return table[static_cast<unsigned char>(c)];
}

int height_cap(const LayoutParams& params) {
  return params.max_height > 0 ? std::min(params.max_height, kHardHeightCeiling) : kHardHeightCeiling;
}

}  // namespace

// Walks the page once. The cursor advances the same way whatever the cap
// (the cap only decides which draws are recorded), so the one pass gives
// both the full height and the capped page's draw list.
class LayoutRecorder {
 public:
  explicit LayoutRecorder(const LayoutParams& params) : params_(params), cap_(height_cap(params)) {
    out_.width_ = params.width;
  }

  PageLayout run(const Node& root) {
    Style body;
    body.scale = LayoutParams::kTextScale;
    block(root, body);
    flush_line();
    out_.full_height_ = std::min(cursor_y_ + params_.margin / 2, kHardHeightCeiling);
    out_.height_ = std::max(1, std::min(out_.full_height_, cap_));
    // Drop click regions that fell below the crop.
    std::erase_if(out_.click_map, [&](const ClickRegion& r) { return r.y >= out_.height_; });
    find_distinct_rows();
    bucket_by_band();
    return std::move(out_);
  }

 private:
  using Op = PageLayout::Op;

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
        rect(params_.margin, cursor_y_, params_.width - 2 * params_.margin, 3, image::Rgb{180, 180, 180});
        vspace(11);
        continue;
      }
      if (tag == "img") {
        flush_line();
        image_placeholder(child);
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
        s.scale = LayoutParams::kTextScale + 3;
        space_before = 16;
        space_after = 12;
      } else if (tag == "h2") {
        s.scale = LayoutParams::kTextScale + 2;
        space_before = 14;
        space_after = 10;
      } else if (tag == "h3") {
        s.scale = LayoutParams::kTextScale + 1;
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

      // A background goes under the block's content, so it is recorded
      // first and gets its height once the block is laid out: down to the
      // block's last line plus the space after it (paint clips it to the
      // page).
      const std::string* bg = child.attr("bgcolor");
      const int bg_y0 = cursor_y_;
      const std::size_t bg_op = out_.ops_.size();
      if (bg) rect(0, bg_y0, params_.width, 0, parse_color(*bg, {240, 240, 240}));
      vspace(space_before);
      block_body(child, s, tag);
      flush_line();
      if (bg) out_.ops_[bg_op].h = cursor_y_ - bg_y0 + space_after;
      vspace(space_after);
    }
  }

  void block_body(const Node& node, Style s, const std::string& tag) {
    if (tag == "li") {
      rect(params_.margin, cursor_y_ + 4 * s.scale / 2, 3 * s.scale / 2, 3 * s.scale / 2, s.color);
      indent_ = params_.margin;
    }
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
      text(word, cursor_x_, cursor_y_, style.scale, style.color);
      if (style.link) {
        rect(cursor_x_, cursor_y_ + text_height(style.scale) + 1, w - space, 1, style.color);
        if (in_link_) extend_link(cursor_x_, cursor_y_, w, text_height(style.scale) + 2);
      }
    }
    cursor_x_ += w + space / 2;
  }

  void image_placeholder(const Node& node) {
    int w = 600, h = 320;
    if (const std::string* ws = node.attr("width")) w = image_dimension(*ws);
    if (const std::string* hs = node.attr("height")) h = image_dimension(*hs);
    const int max_w = params_.width - 2 * params_.margin;
    if (w > max_w) {
      h = static_cast<int>(static_cast<long>(h) * max_w / w);
      w = max_w;
    }
    vspace(6);
    if (cursor_y_ < cap_) {
      // Photo stand-in seeded by the src string: a smooth two-color
      // gradient with a few soft bands — photograph-like compressibility
      // rather than noise.
      std::uint32_t hash = 2166136261u;
      if (const std::string* src = node.attr("src")) {
        for (char c : *src) hash = (hash ^ static_cast<std::uint32_t>(c)) * 16777619u;
      }
      Op op;
      op.kind = Op::Kind::kPhoto;
      op.color = {static_cast<std::uint8_t>(60 + (hash >> 8 & 0x7f)), static_cast<std::uint8_t>(60 + (hash >> 16 & 0x7f)),
                  static_cast<std::uint8_t>(60 + (hash >> 24 & 0x7f))};
      op.bottom = {static_cast<std::uint8_t>(160 + (hash & 0x3f)), static_cast<std::uint8_t>(140 + (hash >> 4 & 0x3f)),
                   static_cast<std::uint8_t>(120 + (hash >> 10 & 0x3f))};
      op.x = params_.margin;
      op.y = cursor_y_;
      op.w = w;
      op.h = h;
      op.aux = h / 4 + static_cast<int>(hash % 16);
      out_.ops_.push_back(op);
      if (const std::string* alt = node.attr("alt")) {
        text(*alt, params_.margin + 8, cursor_y_ + 8, 2, image::Rgb{80, 80, 80});
      }
    }
    cursor_y_ = std::min(cursor_y_ + h, kHardHeightCeiling);
    vspace(6);
  }

  void rect(int x, int y, int w, int h, image::Rgb color) {
    Op op;
    op.color = color;
    op.x = x;
    op.y = y;
    op.w = w;
    op.h = h;
    out_.ops_.push_back(op);
  }

  void text(const std::string& s, int x, int y, int scale, image::Rgb color) {
    if (scale <= 0 || s.empty()) return;  // no glyph pixel to paint
    Op op;
    op.kind = Op::Kind::kText;
    op.scale = scale;
    op.color = color;
    op.x = x;
    op.y = y;
    op.w = text_width(s, scale);
    op.h = text_height(scale);
    op.aux = static_cast<int>(out_.text_.size());
    op.len = static_cast<int>(s.size());
    out_.text_ += s;
    out_.ops_.push_back(op);
  }

  // Whether the op paints any pixel of the page.
  bool visible(const Op& op) const {
    return op.h > 0 && op.y < out_.height_ && op.y + op.h > 0 && op.w > 0 && op.x < out_.width_ && op.x + op.w > 0;
  }

  // Lists row 0 and every row an op starts, ends or changes on. A row that
  // is none of these is covered by the same ops as the row above, each
  // painting it alike: a rect is uniform down its rows, a text run's glyph
  // row spans `scale` rows and changes only where some character's does,
  // and a photo is one colour per row.
  void find_distinct_rows() {
    const int height = out_.height_;
    std::vector<std::uint8_t> edge(static_cast<std::size_t>(height), 0);
    edge[0] = 1;
    const auto mark = [&](int y) {
      if (y >= 0 && y < height) edge[static_cast<std::size_t>(y)] = 1;
    };
    for (const Op& op : out_.ops_) {
      if (!visible(op)) continue;
      switch (op.kind) {
        case Op::Kind::kRect:
          mark(op.y);
          mark(op.y + op.h);
          break;
        case Op::Kind::kText: {
          unsigned changes = 0;
          for (int i = 0; i < op.len; ++i) changes |= glyph_row_changes(out_.text_[static_cast<std::size_t>(op.aux + i)]);
          for (int r = 0; r <= kGlyphHeight; ++r) {
            if (changes >> r & 1) mark(op.y + r * op.scale);
          }
          break;
        }
        case Op::Kind::kPhoto: {
          const int y1 = std::min(op.y + op.h, height);
          mark(op.y);
          mark(y1);
          image::Rgb above = PageLayout::photo_row(op, std::max(op.y, 0) - op.y);
          for (int y = std::max(op.y, 0) + 1; y < y1; ++y) {
            const image::Rgb c = PageLayout::photo_row(op, y - op.y);
            if (c != above) mark(y);
            above = c;
          }
          break;
        }
      }
    }
    // index[y]: distinct rows above row y, the distinct_index of row y.
    std::vector<int> index(static_cast<std::size_t>(height) + 1);
    for (int y = 0; y < height; ++y) {
      index[static_cast<std::size_t>(y)] = static_cast<int>(out_.distinct_.size());
      if (edge[static_cast<std::size_t>(y)]) out_.distinct_.push_back(y);
    }
    index[static_cast<std::size_t>(height)] = static_cast<int>(out_.distinct_.size());
    // Each op's distinct rows: those that lie in its rows on the page.
    for (Op& op : out_.ops_) {
      if (!visible(op)) continue;
      op.d0 = index[static_cast<std::size_t>(std::max(op.y, 0))];
      op.d1 = index[static_cast<std::size_t>(std::min(op.y + op.h, height))];
    }
  }

  // Lists each op under every band of kBandRows distinct rows it touches,
  // keeping paint order within a band.
  void bucket_by_band() {
    const int distinct = static_cast<int>(out_.distinct_.size());
    const int bands = (distinct + PageLayout::kBandRows - 1) / PageLayout::kBandRows;
    std::vector<int>& start = out_.band_start_;
    start.assign(static_cast<std::size_t>(bands) + 1, 0);
    for (const Op& op : out_.ops_) {
      if (op.d0 >= op.d1) continue;
      for (int b = op.d0 / PageLayout::kBandRows; b <= (op.d1 - 1) / PageLayout::kBandRows; ++b) {
        ++start[static_cast<std::size_t>(b) + 1];
      }
    }
    for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
    out_.band_ops_.resize(static_cast<std::size_t>(start.back()));
    std::vector<int> fill(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < out_.ops_.size(); ++i) {
      const Op& op = out_.ops_[i];
      if (op.d0 >= op.d1) continue;
      for (int b = op.d0 / PageLayout::kBandRows; b <= (op.d1 - 1) / PageLayout::kBandRows; ++b) {
        out_.band_ops_[static_cast<std::size_t>(fill[static_cast<std::size_t>(b)]++)] = static_cast<int>(i);
      }
    }
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
    if (in_link_ && link_rect_.w > 0 && !link_href_.empty()) out_.click_map.push_back(link_rect_);
    in_link_ = false;
  }

  const LayoutParams& params_;
  int cap_;
  PageLayout out_;
  int cursor_x_ = 0;
  int cursor_y_ = 0;
  int line_height_ = 0;
  int indent_ = 0;
  bool in_link_ = false;
  std::string link_href_;
  ClickRegion link_rect_{};
};

struct PageLayout::Target {
  image::Raster* out;  // holds distinct rows from `first` on
  int first;
  int clip0, clip1;  // distinct rows [clip0, clip1) may be painted

  // Fills distinct rows [i, i + n), clipped.
  void fill(int x, int i, int w, int n, image::Rgb color) const {
    const int ia = std::max(i, clip0);
    const int ib = std::min(i + n, clip1);
    if (ia < ib) out->fill_rect(x, ia - first, w, ib - ia, color);
  }

  image::Rgb* row(int i) const {
    return out->pixels().data() + static_cast<std::size_t>(out->width()) * static_cast<std::size_t>(i - first);
  }
};

int PageLayout::distinct_index(int y) const {
  return static_cast<int>(std::lower_bound(distinct_.begin(), distinct_.end(), y) - distinct_.begin());
}

// The top-to-bottom blend, tinted inside two horizontal "subject" bands.
image::Rgb PageLayout::photo_row(const Op& op, int yy) {
  const int h = op.h;
  const int band0 = op.aux;
  const int k = h > 1 ? yy * 255 / (h - 1) : 0;
  image::Rgb c{static_cast<std::uint8_t>((op.color.r * (255 - k) + op.bottom.r * k) / 255),
               static_cast<std::uint8_t>((op.color.g * (255 - k) + op.bottom.g * k) / 255),
               static_cast<std::uint8_t>((op.color.b * (255 - k) + op.bottom.b * k) / 255)};
  if ((yy > band0 && yy < band0 + h / 6) || (yy > h / 2 && yy < h / 2 + h / 8)) {
    c.r = static_cast<std::uint8_t>(255 - c.r / 2);
    c.g = static_cast<std::uint8_t>(c.g / 2 + 40);
  }
  return c;
}

void PageLayout::paint_op(const Op& op, const Target& t) const {
  switch (op.kind) {
    case Op::Kind::kRect:
      t.fill(op.x, op.d0, op.w, op.d1 - op.d0, op.color);
      return;
    case Op::Kind::kText: {
      // Glyph row r spans distinct rows [at[r], at[r + 1]); each set pixel
      // of a character's glyph row is `scale` pixels wide on each of them.
      const int s = op.scale;
      int at[kGlyphHeight + 1];
      for (int r = 0, i = op.d0; r <= kGlyphHeight; ++r) {
        while (i < op.d1 && distinct_[static_cast<std::size_t>(i)] < op.y + r * s) ++i;
        at[r] = i;
      }
      int r0 = 0, r1 = kGlyphHeight;
      while (r0 < r1 && at[r0 + 1] <= t.clip0) ++r0;
      while (r1 > r0 && at[r1 - 1] >= t.clip1) --r1;
      const int advance = (kGlyphWidth + 1) * s;
      int x = op.x;
      for (int c = 0; c < op.len && x < width_; ++c, x += advance) {
        const std::uint8_t* glyph = glyph_rows(text_[static_cast<std::size_t>(op.aux + c)]);
        for (int r = r0; r < r1; ++r) {
          if (glyph[r] == 0) continue;
          for (int i = std::max(at[r], t.clip0); i < std::min(at[r + 1], t.clip1); ++i) {
            image::Rgb* px = t.row(i);
            for (int col = 0; col < kGlyphWidth; ++col) {
              if ((glyph[r] >> (kGlyphWidth - 1 - col) & 1) == 0) continue;
              const int xa = std::max(x + col * s, 0);
              const int xb = std::min(x + (col + 1) * s, width_);
              for (int xx = xa; xx < xb; ++xx) px[xx] = op.color;
            }
          }
        }
      }
      return;
    }
    case Op::Kind::kPhoto:
      for (int i = std::max(op.d0, t.clip0); i < std::min(op.d1, t.clip1); ++i) {
        t.fill(op.x, i, op.w, 1, photo_row(op, distinct_[static_cast<std::size_t>(i)] - op.y));
      }
      return;
  }
}

void PageLayout::paint_distinct(int first, int count, image::Raster& out) const {
  if (first < 0 || count < 0 || first > static_cast<int>(distinct_.size()) - count) {
    throw std::invalid_argument("PageLayout::paint_distinct: rows outside the page");
  }
  // Each band is cleared right before its ops paint it, while its rows are
  // in cache.
  out.reshape(width_, count);
  const int end = first + count;
  for (int b = first / kBandRows; b * kBandRows < end; ++b) {
    const Target target{&out, first, std::max(first, b * kBandRows), std::min(end, (b + 1) * kBandRows)};
    target.fill(0, target.clip0, width_, target.clip1 - target.clip0, image::Rgb{255, 255, 255});
    for (int k = band_start_[static_cast<std::size_t>(b)]; k < band_start_[static_cast<std::size_t>(b) + 1]; ++k) {
      paint_op(ops_[static_cast<std::size_t>(band_ops_[static_cast<std::size_t>(k)])], target);
    }
  }
}

void PageLayout::paint(int y0, int rows, image::Raster& out) const {
  if (y0 < 0 || rows < 0 || y0 > height_ - rows) throw std::invalid_argument("PageLayout::paint: rows outside the page");
  if (rows == 0) {
    out.reshape(width_, 0);
    return;
  }
  // Distinct rows j0 (the one row y0 repeats, or y0 itself) to j1 - 1 land
  // in rows [y0, y1). Painted to the top of `out`, each is copied down from
  // the last: distinct row j sits at row j - j0 and its copies start at or
  // below it, above the copies of distinct row j + 1.
  const int y1 = y0 + rows;
  const int j0 = distinct_index(y0 + 1) - 1;
  const int j1 = distinct_index(y1);
  out.reshape(width_, rows);  // so growing back after paint_distinct keeps the storage
  paint_distinct(j0, j1 - j0, out);
  out.reshape(width_, rows);
  const std::size_t row_px = static_cast<std::size_t>(width_);
  image::Rgb* px = out.pixels().data();
  for (int j = j1 - 1; j >= j0; --j) {
    const image::Rgb* src = px + row_px * static_cast<std::size_t>(j - j0);
    const int next = j + 1 < static_cast<int>(distinct_.size()) ? distinct_[static_cast<std::size_t>(j) + 1] : height_;
    for (int y = std::max(distinct_[static_cast<std::size_t>(j)], y0); y < std::min(next, y1); ++y) {
      if (y - y0 != j - j0) std::copy_n(src, row_px, px + row_px * static_cast<std::size_t>(y - y0));
    }
  }
}

PageLayout layout_html(const Node& root, const LayoutParams& params) { return LayoutRecorder(params).run(root); }

RenderResult render_html(const Node& root, const LayoutParams& params) {
  PageLayout layout = layout_html(root, params);
  RenderResult out;
  layout.paint(0, layout.height(), out.image);
  out.click_map = std::move(layout.click_map);
  out.full_height = layout.full_height();
  return out;
}

RenderResult render_html(const std::string& html, const LayoutParams& params) {
  return render_html(parse_html(html), params);
}

RenderResult scale_for_device(const RenderResult& page, int device_width) {
  RenderResult out;
  const double factor = static_cast<double>(device_width) / page.image.width();
  out.image = page.image.scaled_by(factor);
  out.full_height = static_cast<int>(page.full_height * factor);
  out.click_map = page.click_map;
  for (ClickRegion& r : out.click_map) {
    r.x = static_cast<int>(r.x * factor);
    r.y = static_cast<int>(r.y * factor);
    r.w = std::max(1, static_cast<int>(r.w * factor));
    r.h = std::max(1, static_cast<int>(r.h * factor));
  }
  return out;
}

std::string hit_test(const std::vector<ClickRegion>& map, int x, int y) {
  for (const ClickRegion& r : map) {
    if (r.contains(x, y)) return r.href;
  }
  return {};
}

}  // namespace sonic::web
