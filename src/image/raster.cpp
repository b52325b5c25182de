#include "image/raster.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace sonic::image {
namespace {

// Sets `rows` rows of `width` pixels to `color`, the first row starting at
// `first` and each next one `stride` pixels on.
void fill_rows(Rgb* first, std::size_t stride, int width, int rows, Rgb color) {
  if (width <= 0 || rows <= 0) return;
  const std::size_t bytes = static_cast<std::size_t>(width) * sizeof(Rgb);
  if (color.r == color.g && color.g == color.b) {
    for (int y = 0; y < rows; ++y) std::memset(static_cast<void*>(first + static_cast<std::size_t>(y) * stride), color.r, bytes);
    return;
  }
  std::fill_n(first, width, color);
  for (int y = 1; y < rows; ++y) std::memcpy(static_cast<void*>(first + static_cast<std::size_t>(y) * stride), first, bytes);
}

}  // namespace

Raster::Raster(int width, int height, Rgb fill) { reset(width, height, fill); }

void Raster::reset(int width, int height, Rgb fill) {
  reshape(width, height);
  fill_rows(pixels_.data(), static_cast<std::size_t>(width), width, height, fill);
}

void Raster::reshape(int width, int height) {
  if (width < 0 || height < 0) throw std::invalid_argument("negative raster dims");
  width_ = width;
  height_ = height;
  pixels_.resize(static_cast<std::size_t>(width) * static_cast<std::size_t>(height));
}

void Raster::fill_rect(int x, int y, int w, int h, Rgb color) {
  const int x0 = std::max(0, x);
  const int y0 = std::max(0, y);
  const int x1 = std::min(width_, x + w);
  const int y1 = std::min(height_, y + h);
  if (x0 < x1 && y0 < y1) fill_rows(&at(x0, y0), static_cast<std::size_t>(width_), x1 - x0, y1 - y0, color);
}

Raster Raster::cropped_to_height(int max_height) const {
  if (height_ <= max_height) return *this;
  Raster out(width_, max_height);
  std::copy(pixels_.begin(),
            pixels_.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(width_) * static_cast<std::size_t>(max_height)),
            out.pixels_.begin());
  return out;
}

Raster Raster::scaled_by(double factor) const {
  return resized(std::max(1, static_cast<int>(std::lround(width_ * factor))),
                 std::max(1, static_cast<int>(std::lround(height_ * factor))));
}

Raster Raster::resized(int new_width, int new_height) const {
  Raster out(new_width, new_height);
  for (int y = 0; y < new_height; ++y) {
    const int sy = std::min(height_ - 1, static_cast<int>(static_cast<long>(y) * height_ / new_height));
    for (int x = 0; x < new_width; ++x) {
      const int sx = std::min(width_ - 1, static_cast<int>(static_cast<long>(x) * width_ / new_width));
      out.at(x, y) = at(sx, sy);
    }
  }
  return out;
}

void write_ppm(const Raster& img, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot open " + path);
  std::fprintf(f, "P6\n%d %d\n255\n", img.width(), img.height());
  for (const Rgb& p : img.pixels()) {
    std::fputc(p.r, f);
    std::fputc(p.g, f);
    std::fputc(p.b, f);
  }
  std::fclose(f);
}

double psnr(const Raster& a, const Raster& b) {
  if (a.width() != b.width() || a.height() != b.height()) throw std::invalid_argument("size mismatch");
  double mse = 0.0;
  const auto& pa = a.pixels();
  const auto& pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const double dr = static_cast<double>(pa[i].r) - pb[i].r;
    const double dg = static_cast<double>(pa[i].g) - pb[i].g;
    const double db = static_cast<double>(pa[i].b) - pb[i].b;
    mse += dr * dr + dg * dg + db * db;
  }
  mse /= static_cast<double>(pa.size() * 3);
  if (mse <= 0.0) return 99.0;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace sonic::image
