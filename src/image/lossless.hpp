// Lossless predictive codec (PNG-class). DRIVESHAFT requires lossless PNG
// for its screenshot merging (§3.2); SONIC deliberately chooses lossy WebP
// instead — this codec exists so the size comparison behind that choice can
// be reproduced (bench/fig4b_size_cdf --lossless).
#pragma once

#include "image/raster.hpp"
#include "util/bytes.hpp"

namespace sonic::image {

util::Bytes lossless_encode(const Raster& img);

}  // namespace sonic::image
