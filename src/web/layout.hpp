// Block layout engine: renders parsed HTML into the 1080-px-wide raster
// images SONIC broadcasts (§3.2), and extracts the click map — the <x,y>
// regions where hyperlinks live — that gives the static screenshot its
// interactivity (the DRIVESHAFT-style mechanism the paper adopts).
#pragma once

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

// The page is drawn onto `canvas`'s pixel storage (re-dimensioned and
// cleared first), so a caller rendering page after page can hand the last
// page's raster back in instead of allocating a new one per page.
RenderResult render_html(const Node& root, const LayoutParams& params = {}, image::Raster canvas = {});
RenderResult render_html(const std::string& html, const LayoutParams& params = {},
                         image::Raster canvas = {});

// Client-side §3.2 resize: scales the image by device_width / image width
// and rescales the click map coordinates with the same factor.
RenderResult scale_for_device(const RenderResult& page, int device_width);

// Returns the href of the topmost click region containing (x, y), or empty.
std::string hit_test(const std::vector<ClickRegion>& map, int x, int y);

}  // namespace sonic::web
