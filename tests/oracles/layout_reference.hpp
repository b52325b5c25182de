// Reference layout engine, kept as the test oracle for web::layout_html,
// PageLayout::paint and web::render_html: the two-pass layouter that draws
// straight onto a page-sized canvas. An uncapped dry pass measures the full
// height, a second pass draws with every primitive clipped to the canvas,
// and each bgcolor block is measured by a nested dry probe before its
// background is painted. It lives in the sonic_oracles library, which only
// tests and benches link.
#pragma once

#include <string>

#include "image/raster.hpp"
#include "web/html.hpp"
#include "web/layout.hpp"

namespace sonic::oracles {

web::RenderResult render_html_reference(const web::Node& root, const web::LayoutParams& params);
web::RenderResult render_html_reference(const std::string& html, const web::LayoutParams& params);

// Draws a string of web::glyph_rows glyphs at (x, y) scaled by `scale`, one
// fill_rect per glyph pixel; returns the advance width in pixels.
int draw_text(image::Raster& img, const std::string& text, int x, int y, int scale, image::Rgb color);

}  // namespace sonic::oracles
