// RGB8 raster image with the resize rules of §3.2: webpage screenshots are
// rendered 1080 px wide with a height cap, then resized on the client by the
// scaling factor (device width / 1080).
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace sonic::image {

struct Rgb {
  std::uint8_t r = 0, g = 0, b = 0;
  bool operator==(const Rgb&) const = default;
};

// Pixel storage whose growth leaves the new pixels unwritten (Rgb is an
// implicit-lifetime aggregate), so a raster about to be filled is written
// once instead of zeroed first.
template <class T>
struct PixelAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = PixelAllocator<U>;
  };
  PixelAllocator() = default;
  template <class U>
  PixelAllocator(const PixelAllocator<U>&) noexcept {}
  template <class U>
  void construct(U*) noexcept {}
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};
using Pixels = std::vector<Rgb, PixelAllocator<Rgb>>;

class Raster {
 public:
  Raster() = default;
  Raster(int width, int height, Rgb fill = {255, 255, 255});

  // Re-dimensions to width x height, every pixel `fill`, keeping the pixel
  // storage when it is large enough.
  void reset(int width, int height, Rgb fill = {255, 255, 255});
  // Re-dimensions to width x height with every pixel unspecified, for a
  // caller that writes them all.
  void reshape(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  Rgb& at(int x, int y) { return pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) + static_cast<std::size_t>(x)]; }
  const Rgb& at(int x, int y) const { return pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) + static_cast<std::size_t>(x)]; }

  // Fills the rect, clipped to the raster, as whole rows: one memset per
  // row when the colour is grey (r = g = b), otherwise the first row pixel
  // by pixel and a memcpy of it per row below.
  void fill_rect(int x, int y, int w, int h, Rgb color);

  // Crop to at most `max_height` rows (§3.2's pixel-height cap PH).
  Raster cropped_to_height(int max_height) const;

  // Nearest-neighbor resize by the §3.2 scaling factor (applied to both
  // dimensions).
  Raster scaled_by(double factor) const;
  Raster resized(int new_width, int new_height) const;

  const Pixels& pixels() const { return pixels_; }
  Pixels& pixels() { return pixels_; }

 private:
  int width_ = 0;
  int height_ = 0;
  Pixels pixels_;
};

// Binary PPM (P6) I/O — used by the examples to dump Figure-1-style images.
void write_ppm(const Raster& img, const std::string& path);
Raster read_ppm(const std::string& path);

// Peak signal-to-noise ratio between two equal-sized rasters, dB.
double psnr(const Raster& a, const Raster& b);

}  // namespace sonic::image
