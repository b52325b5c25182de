// 5x7 bitmap font the layout engine paints text with. Glyph shapes
// are defined as ASCII art in font.cpp; lowercase letters reuse the
// uppercase shapes (small-caps rendering), which is sufficient for
// readability experiments at webpage scale.
#pragma once

#include <cstdint>
#include <string>

namespace sonic::web {

constexpr int kGlyphWidth = 5;
constexpr int kGlyphHeight = 7;

// Returns the 7 rows (bits 4..0 = left..right pixels) for an ASCII char.
// Unsupported characters render as a hollow box.
const std::uint8_t* glyph_rows(char c);

// Advance width of a string at `scale`: one blank glyph-column per
// character.
int text_width(const std::string& text, int scale);
inline int text_height(int scale) { return kGlyphHeight * scale; }

}  // namespace sonic::web
