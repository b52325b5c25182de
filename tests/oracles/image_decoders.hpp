// Decoders for the two whole-image codecs, which the shipped code only
// encodes: swebp (image/dct_codec.hpp, the Fig. 4(b) page-size model) and
// the lossless predictive codec (image/lossless.hpp). They are the
// round-trip oracles of the encoders' tests. They keep their own copies of
// the quantizer tables, the quality-to-quantizer map, the zigzag order, the
// DCT basis, paeth and the Exp-Golomb reader on purpose: they are a second
// statement of the formats that pins them, so an encoder change that moves
// the format (and with it the Fig. 4(b) sizes the figure gate compares)
// fails them instead of cancelling out. They live in the
// sonic_oracles library, which only tests and benches link.
#pragma once

#include <optional>
#include <span>

#include "image/raster.hpp"

namespace sonic::oracles {

// Returns nullopt on malformed input.
std::optional<image::Raster> swebp_decode(std::span<const std::uint8_t> data);

// Parsed header info without full decode.
struct SwebpInfo {
  int width = 0;
  int height = 0;
  int quality = 0;
};
std::optional<SwebpInfo> swebp_peek(std::span<const std::uint8_t> data);

// Returns nullopt on malformed input.
std::optional<image::Raster> lossless_decode(std::span<const std::uint8_t> data);

}  // namespace sonic::oracles
