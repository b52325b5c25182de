// "swebp" — SONIC's WebP-class lossy still-image codec.
//
// The paper captures webpage screenshots as WebP with quality 10 (§3.2);
// libwebp is not reimplementable in scope, so this codec reproduces the
// operative behaviour instead: block-DCT transform coding with a
// libjpeg-style quality knob (0..100, paper uses 10/50/90), YCbCr 4:2:0,
// zigzag run-length + Exp-Golomb entropy coding. Size-vs-quality follows
// the same curve shape as WebP on text-heavy webpage content, which is what
// Figure 4(b) measures.
#pragma once

#include "image/raster.hpp"
#include "util/bytes.hpp"

namespace sonic::image {

// Encodes at `quality` in [1, 100] (higher = better/larger). Only the
// encoded size is ever used; the decoder is a test oracle.
util::Bytes swebp_encode(const Raster& img, int quality);

}  // namespace sonic::image
