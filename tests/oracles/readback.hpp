// Read-back helpers that only tests call: a binary PPM file back into a
// Raster (the shipped code only writes them) and the text under a parsed
// HTML node. They live in the sonic_oracles library, which only tests and
// benches link.
#pragma once

#include <string>

#include "image/raster.hpp"
#include "web/html.hpp"

namespace sonic::oracles {

// Reads a binary PPM (P6, maxval 255) as written by image::write_ppm;
// throws std::runtime_error on a missing, malformed or truncated file.
image::Raster read_ppm(const std::string& path);

// The text nodes beneath `node`, in document order, joined by single
// spaces.
std::string text_content(const web::Node& node);

}  // namespace sonic::oracles
