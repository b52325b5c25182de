// Block layout engine: lays parsed HTML out into the 1080-px-wide raster
// images SONIC broadcasts (§3.2), and extracts the click map — the <x,y>
// regions where hyperlinks live — that gives the static screenshot its
// interactivity (the DRIVESHAFT-style mechanism the paper adopts).
//
// Layout and painting are separate. layout_html walks the page once and
// records what to draw — rects, text runs, image placeholders — in paint
// order, with the click map and the page height. PageLayout::paint then
// replays the ops that touch any range of rows, clipped to it, so a caller
// can paint the page band by band without ever holding the whole raster
// (the broadcast pipeline does), or all at once (render_html).
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
  int width = 1080;       // §3.2: images are created 1080 px wide
  int max_height = 10000; // §3.2: PH cap; 0 = unlimited ("PH: none")
  int margin = 24;
  int text_scale = 2;     // body text: 5x7 glyphs at 2x

  // Compact fingerprint of every knob that changes the rendered raster —
  // part of the broadcast pipeline's render-cache key.
  std::string fingerprint() const;

  bool operator==(const LayoutParams&) const = default;
};

// One page, laid out: its geometry, its click map and the draw list paint()
// replays.
class PageLayout {
 public:
  // Rows painted per draw-list bucket.
  static constexpr int kBandRows = 64;

  int width() const { return width_; }
  // Rows of the page as broadcast: min(full height, PH cap), at least 1.
  int height() const { return height_; }
  // Layout height before the PH crop.
  int full_height() const { return full_height_; }
  // Link regions, in document order, none starting below height().
  std::vector<ClickRegion> click_map;

  // Paints page rows [y0, y0 + rows) onto `out`, re-dimensioned to
  // width() x rows: white, then every op that touches those rows, clipped
  // to them, in paint order. Rows are the same whatever range they are
  // painted in. Throws std::invalid_argument unless 0 <= y0 and
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
  };

  struct Target;  // pixels of the rows being painted, and their clip
  void paint_op(const Op& op, const Target& target) const;

  int width_ = 0;
  int height_ = 0;
  int full_height_ = 0;
  std::vector<Op> ops_;
  std::string text_;  // every text run's characters, back to back
  // Op indices per kBandRows-row band, in paint order: band b's are
  // band_ops_[band_start_[b] .. band_start_[b + 1]).
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
