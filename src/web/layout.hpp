// Block layout engine: lays parsed HTML out into the 1080-px-wide raster
// images SONIC broadcasts (§3.2), and extracts the click map — the <x,y>
// regions where hyperlinks live — that gives the static screenshot its
// interactivity (the DRIVESHAFT-style mechanism the paper adopts).
//
// Layout and painting are separate. layout_html walks the page once and
// records what to draw — rects, text runs, image placeholders — in paint
// order, with the click map and the page height. From the draw list it also
// knows which rows can differ from the row above: the rows where an op
// starts, ends or changes. Every other row repeats the row above.
// PageLayout::paint_distinct paints only those distinct rows, one after
// another, replaying the ops that touch them; PageLayout::paint expands
// them into any range of page rows. A caller can so paint the page band by
// band without ever holding the whole raster (the broadcast pipeline
// paints distinct rows only), or all at once (render_html).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "image/raster.hpp"
#include "web/html.hpp"

namespace sonic::web {

struct ClickRegion {
  int x = 0, y = 0, w = 0, h = 0;
  std::string href;

  bool contains(int px, int py) const {
    return px >= x && px < x + w && py >= y && py < y + h;
  }
};

struct RenderResult {
  image::Raster image;
  std::vector<ClickRegion> click_map;
  int full_height = 0;  // layout height before the PH crop
};

struct LayoutParams {
  // Body text: 5x7 glyphs at 2x; headings h1..h3 add 3, 2 and 1.
  static constexpr int kTextScale = 2;

  int width = 1080;       // §3.2: images are created 1080 px wide
  int max_height = 10000; // §3.2: PH cap; 0 = unlimited ("PH: none")
  int margin = 24;

  // Compact fingerprint of every knob that changes the rendered raster —
  // part of the broadcast pipeline's render-cache key.
  std::string fingerprint() const;

  bool operator==(const LayoutParams&) const = default;
};

// One page, laid out: its geometry, its click map and the draw list paint()
// replays.
class PageLayout {
 public:
  // Distinct rows painted per draw-list bucket.
  static constexpr int kBandRows = 64;

  int width() const { return width_; }
  // Rows of the page as broadcast: min(full height, PH cap), at least 1.
  int height() const { return height_; }
  // Layout height before the PH crop.
  int full_height() const { return full_height_; }
  // Link regions, in document order, none starting below height().
  std::vector<ClickRegion> click_map;

  // The rows that can differ from the row above, ascending: row 0, and
  // each row where an op starts, ends or changes. These are a rect's y and
  // y + h; each glyph-row boundary y + r * scale of a text run where some
  // character's glyph row differs from the one above it (blank above the
  // first and below the last); and each row where a photo's colour
  // changes. Every other row is a copy of the row above.
  const std::vector<int>& distinct_rows() const { return distinct_; }

  // Paints distinct rows [first, first + count) — page rows
  // distinct_rows()[first] on — onto `out`, re-dimensioned to width() x
  // count, one row each: white, then every op that touches them, clipped to
  // them, in paint order. Throws std::invalid_argument unless 0 <= first
  // and first + count <= distinct_rows().size().
  void paint_distinct(int first, int count, image::Raster& out) const;

  // Paints page rows [y0, y0 + rows) onto `out`, re-dimensioned to
  // width() x rows: the distinct rows they hold, each copied down over the
  // rows that repeat it. Rows are the same whatever range they are painted
  // in. Throws std::invalid_argument unless 0 <= y0 and
  // y0 + rows <= height().
  void paint(int y0, int rows, image::Raster& out) const;

 private:
  friend class LayoutRecorder;

  struct Op {
    enum class Kind : std::uint8_t { kRect, kText, kPhoto };
    Kind kind = Kind::kRect;
    image::Rgb color;   // rect and text colour; photo: top colour
    image::Rgb bottom;  // photo: bottom colour
    int scale = 1;      // text: glyph scale
    int x = 0, y = 0, w = 0, h = 0;  // rows [y, y + h) are the op's; text: h = glyph height
    int aux = 0;  // text: offset into text_; photo: first row of its first tinted band
    int len = 0;  // text: characters
    int d0 = 0, d1 = 0;  // distinct rows [d0, d1) lie in its rows on the page
  };

  struct Target;  // pixels of the distinct rows being painted, and their clip
  void paint_op(const Op& op, const Target& target) const;
  // A photo's colour on its row yy.
  static image::Rgb photo_row(const Op& op, int yy);
  // Index into distinct_ of the first distinct row at or below page row y.
  int distinct_index(int y) const;

  int width_ = 0;
  int height_ = 0;
  int full_height_ = 0;
  std::vector<Op> ops_;
  std::string text_;  // every text run's characters, back to back
  std::vector<int> distinct_;  // see distinct_rows()
  // Op indices per band of kBandRows distinct rows, in paint order: band
  // b's are band_ops_[band_start_[b] .. band_start_[b + 1]).
  std::vector<int> band_start_;
  std::vector<int> band_ops_;
};

// Lays the page out once at params.width, recording the draw ops the PH cap
// keeps (a text line that would cross the cap is left out; everything else
// is clipped to the page at paint time).
PageLayout layout_html(const Node& root, const LayoutParams& params = {});

// layout_html, then one paint of the whole page.
RenderResult render_html(const Node& root, const LayoutParams& params = {});
RenderResult render_html(const std::string& html, const LayoutParams& params = {});

// Client-side §3.2 resize: scales the image by device_width / image width
// and rescales the click map coordinates with the same factor.
RenderResult scale_for_device(const RenderResult& page, int device_width);

// Returns the href of the topmost click region containing (x, y), or empty.
std::string hit_test(const std::vector<ClickRegion>& map, int x, int y);

}  // namespace sonic::web
