// Loss-resilient per-column image transport codec.
//
// §3.3: "we first divide the image vertically into multiple partitions, each
// with a width of 1 pixel. Each partition is then divided into fixed-sized
// frames of 100 bytes each." Each SONIC frame must therefore be
// independently decodable, so that a lost frame blanks only a bounded run of
// rows in one column — the vertical dash artifacts of Figure 1.
//
// Each segment codes a (column, row0, rows) run: quantized YCbCr with
// vertical prediction and Exp-Golomb residuals, greedily sized to fit the
// frame payload budget. Chroma is vertically subsampled 2:1. The quality
// knob follows the same libjpeg-style scale as swebp.
//
// Memory layout: rows are row-major, but segments run down columns. The
// encoder takes the page one row at a time, top to bottom; a caller that
// knows a row repeats the row above passes only a count for it. It skips
// each 64-px chunk of a row that equals the chunk above, quantizes only
// pixels that differ from the one above (each RGB value converted once
// through a per-page cache), and keeps per column only its current word
// and the resumable state of its open segment (bit writer, pending run),
// handing a column the run that just ended when its word changes. Its memory is
// O(width x payload budget) plus the segments it returns and a buffer for
// sorting them by column, whatever the height. The decoder orders the
// segments by column, keeping arrival order within a column, decodes strips
// of 64 columns into column buffers of received RGB words, and writes each
// strip back row by row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "image/raster.hpp"
#include "util/bytes.hpp"

namespace sonic::image {

struct ColumnSegment {
  std::uint16_t col = 0;
  std::uint16_t row0 = 0;
  std::uint16_t rows = 0;
  util::Bytes data;  // coded residual stream (excludes the fields above)
};

struct ColumnCodecParams {
  int quality = 10;         // §3.2: WebP quality 10 operating point
  int payload_budget = 94;  // coded bytes per segment; with the 6-byte
                            // segment header this fills a 100-byte frame

  // Compact fingerprint of the knobs that change the coded bytes — part of
  // the broadcast pipeline's encode-cache key.
  std::string fingerprint() const;

  bool operator==(const ColumnCodecParams&) const = default;
};

// Encodes a page fed one row at a time, top to bottom, into per-column
// segments, each fitting the budget. Its memory does not grow with the
// height beyond the segments, so a caller that paints the page in bands
// never holds the whole raster.
class RowFedEncoder {
 public:
  // A page of width x height pixels. Throws std::invalid_argument for pages
  // wider or taller than 65535 px, which the u16 `col`/`row0` fields cannot
  // address.
  RowFedEncoder(int width, int height, const ColumnCodecParams& params);
  ~RowFedEncoder();

  // The next row's `width` pixels, and the row above it (null for the
  // first row). Throws std::logic_error past the last row.
  void push_row(const Rgb* row, const Rgb* above);

  // `count` more rows equal to the last row pushed: no column's word
  // changes, so they are only counted. Throws std::logic_error before the
  // first row, for a negative count, or past the last row.
  void repeat_row(int count);

  // After all `height` rows: the segments column by column, each column's
  // top to bottom. Throws std::logic_error if rows are missing.
  std::vector<ColumnSegment> finish();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

// A RowFedEncoder fed the raster's rows.
std::vector<ColumnSegment> column_encode(const Raster& img, const ColumnCodecParams& params);

// Received-pixel mask: one byte per pixel, 1 = covered by a received segment.
struct ColumnDecodeResult {
  Raster image;                    // missing pixels are black (paper: "dark")
  std::vector<std::uint8_t> mask;  // width*height
  double coverage() const;         // fraction of pixels received
};

// Reassembles from whichever segments survived; width/height come from the
// transport metadata. Segments are applied in order, so a later segment
// overwrites the rows it shares with an earlier one; segments outside the
// image are ignored, and a segment ends early at truncated data or at a
// decoded component outside [0, 2047].
ColumnDecodeResult column_decode(int width, int height,
                                 std::span<const ColumnSegment> segments,
                                 const ColumnCodecParams& params);

// A segment's wire form, as the SONIC framing layer carries it: col, row0
// and rows as little-endian u16s, then the data.
constexpr std::size_t kSegmentHeaderSize = 6;
// Writes the wire form to `out`, which must hold kSegmentHeaderSize +
// seg.data.size() bytes; returns that size.
std::size_t segment_write(const ColumnSegment& seg, std::uint8_t* out);
std::optional<ColumnSegment> segment_parse(std::span<const std::uint8_t> bytes);

}  // namespace sonic::image
