// Reference (per-pixel) column codec, kept as the test oracle and the
// before-case of bench/micro_dsp_fec for image::column_encode and
// image::column_decode. It lives in the sonic_oracles library, which only
// tests and benches link.
#pragma once

#include <span>
#include <vector>

#include "image/column_codec.hpp"

namespace sonic::oracles {

// The straightforward encoder: walks the row-major raster one column at a
// time, converts and quantizes every pixel, and checks the frame budget row
// by row against util::BitWriter's bit count, writing each code's leading
// zeros one bit at a time.
std::vector<image::ColumnSegment> column_encode_reference(const image::Raster& img,
                                                          const image::ColumnCodecParams& params);

// The straightforward decoder: decodes the segments in order one bit at a
// time through util::BitReader::bit() and writes every emitted pixel straight into the
// row-major raster, so a later segment overwrites an earlier one. A segment
// ends at the first decoded component outside [0, 2047], like a truncated
// one.
image::ColumnDecodeResult column_decode_reference(int width, int height,
                                                  std::span<const image::ColumnSegment> segments,
                                                  const image::ColumnCodecParams& params);

}  // namespace sonic::oracles
