// Frozen copy of the library's row-fed column encoder (image::RowFedEncoder)
// as it stood before repeated rows were passed as a count and a run and
// its explicit row were written as one code: the before side of the
// row_fed_encode_1080 micro row, so a speed-up of the library does not
// shrink that row's before time. Same segments, byte for byte: every row,
// repeated or not, goes through push_row and its chunk comparison.
#pragma once

#include <memory>
#include <vector>

#include "image/column_codec.hpp"

namespace sonic::oracles::frozen {

class RowFedEncoder {
 public:
  RowFedEncoder(int width, int height, const image::ColumnCodecParams& params);
  ~RowFedEncoder();

  void push_row(const image::Rgb* row, const image::Rgb* above);
  std::vector<image::ColumnSegment> finish();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sonic::oracles::frozen
