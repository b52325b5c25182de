#include "oracles/readback.hpp"

#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace sonic::oracles {
namespace {

void collect_text(const web::Node& node, std::string& out) {
  if (node.type == web::Node::Type::kText) {
    if (!out.empty() && !node.text.empty()) out.push_back(' ');
    out += node.text;
    return;
  }
  for (const web::Node& child : node.children) collect_text(child, out);
}

}  // namespace

image::Raster read_ppm(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open " + path);
  int w = 0, h = 0, maxval = 0;
  if (std::fscanf(f, "P6 %d %d %d", &w, &h, &maxval) != 3 || maxval != 255 || w <= 0 || h <= 0) {
    std::fclose(f);
    throw std::runtime_error("bad ppm header in " + path);
  }
  std::fgetc(f);  // single whitespace after header
  image::Raster img(w, h);
  for (image::Rgb& p : img.pixels()) {
    const int r = std::fgetc(f), g = std::fgetc(f), b = std::fgetc(f);
    if (b == EOF) {
      std::fclose(f);
      throw std::runtime_error("truncated ppm " + path);
    }
    p = image::Rgb{static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(g), static_cast<std::uint8_t>(b)};
  }
  std::fclose(f);
  return img;
}

std::string text_content(const web::Node& node) {
  std::string out;
  collect_text(node, out);
  return out;
}

}  // namespace sonic::oracles
