// RGB8 raster image with the resize rules of §3.2: webpage screenshots are
// rendered 1080 px wide with a height cap, then resized on the client by the
// scaling factor (device width / 1080).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sonic::image {

struct Rgb {
  std::uint8_t r = 0, g = 0, b = 0;
  bool operator==(const Rgb&) const = default;
};

class Raster {
 public:
  Raster() = default;
  Raster(int width, int height, Rgb fill = {255, 255, 255});

  // Re-dimensions to width x height, every pixel `fill`, keeping the pixel
  // storage when it is large enough: a renderer drawing page after page can
  // recycle one canvas instead of allocating (and faulting in) a new one.
  void reset(int width, int height, Rgb fill = {255, 255, 255});

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  Rgb& at(int x, int y) { return pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) + static_cast<std::size_t>(x)]; }
  const Rgb& at(int x, int y) const { return pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) + static_cast<std::size_t>(x)]; }

  // Clamped accessor: out-of-range coordinates snap to the border.
  const Rgb& at_clamped(int x, int y) const;

  void fill_rect(int x, int y, int w, int h, Rgb color);

  // Crop to at most `max_height` rows (§3.2's pixel-height cap PH).
  Raster cropped_to_height(int max_height) const;

  // Nearest-neighbor resize by the §3.2 scaling factor (applied to both
  // dimensions).
  Raster scaled_by(double factor) const;
  Raster resized(int new_width, int new_height) const;

  const std::vector<Rgb>& pixels() const { return pixels_; }
  std::vector<Rgb>& pixels() { return pixels_; }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<Rgb> pixels_;
};

// Binary PPM (P6) I/O — used by the examples to dump Figure-1-style images.
void write_ppm(const Raster& img, const std::string& path);
Raster read_ppm(const std::string& path);

// Peak signal-to-noise ratio between two equal-sized rasters, dB.
double psnr(const Raster& a, const Raster& b);

}  // namespace sonic::image
