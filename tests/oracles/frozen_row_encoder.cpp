#include "oracles/frozen_row_encoder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace sonic::oracles::frozen {

using image::ColumnCodecParams;
using image::ColumnSegment;
using image::Rgb;

namespace {

// Rows in one segment, limited by its u16 `rows` field.
constexpr int kMaxSegmentRows = 0xffff;

struct QuantSteps {
  int y;
  int c;
};

QuantSteps steps_for_quality(int quality) {
  quality = std::clamp(quality, 1, 100);
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  return {std::clamp(12 * scale / 100, 1, 128), std::clamp(24 * scale / 100, 1, 160)};
}

struct Ycc {
  int y, cb, cr;
};

Ycc to_ycc(Rgb c) {
  const float r = c.r, g = c.g, b = c.b;
  return {static_cast<int>(std::lround(0.299f * r + 0.587f * g + 0.114f * b)),
          static_cast<int>(std::lround(-0.168736f * r - 0.331264f * g + 0.5f * b + 128.0f)),
          static_cast<int>(std::lround(0.5f * r - 0.418688f * g - 0.081312f * b + 128.0f))};
}

// A quantized pixel packed as y | cb << 11 | cr << 22. Encoder components
// are at most 256, so equal words mean equal rows.
std::uint32_t pack(int y, int cb, int cr) {
  return static_cast<std::uint32_t>(y) | static_cast<std::uint32_t>(cb) << 11 |
         static_cast<std::uint32_t>(cr) << 22;
}
int word_y(std::uint32_t w) { return static_cast<int>(w & 0x7ff); }
int word_cb(std::uint32_t w) { return static_cast<int>(w >> 11 & 0x7ff); }
int word_cr(std::uint32_t w) { return static_cast<int>(w >> 22); }

// Bits an Exp-Golomb ue(v) occupies: 2·floor(log2(v + 1)) + 1.
int ue_bits(std::uint32_t v) {
  return 2 * (63 - std::countl_zero(std::uint64_t{v} + 1)) + 1;
}

std::uint32_t se_code(int v) {
  return v <= 0 ? static_cast<std::uint32_t>(-2 * v) : static_cast<std::uint32_t>(2 * v - 1);
}

// Largest run r with ue_bits(r) <= `bits_left`: ue_bits(r) <= b holds for
// r + 1 < 2^((b - 1) / 2 + 1).
std::uint64_t max_run_within(std::size_t bits_left) {
  if (bits_left == 0) return 0;
  const std::size_t e = (bits_left - 1) / 2 + 1;
  return e >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << e) - 2;
}

// MSB-first writer with a 64-bit accumulator. Each put stores the bytes it
// completes with one unconditional 8-byte big-endian store, so the number
// of bytes a code finishes costs no branch; the buffer, kept from segment
// to segment, has 8 bytes of slack for that store.
class SegmentBitWriter {
 public:
  // Makes room for `bytes` bytes of segment plus the store's slack; put
  // grows the buffer past that when it must.
  void reserve(std::size_t bytes) { buf_.resize(bytes + 16); }

  // Appends the low `count` bits of `value`; count <= 56.
  void put(std::uint64_t value, int count) {
    if (bytes_ + 16 > buf_.size()) buf_.resize(2 * buf_.size() + 16);
    acc_ = acc_ << count | value;
    fill_ += count;
    std::uint64_t top = acc_ << (63 - fill_) << 1;
    if constexpr (std::endian::native == std::endian::little) top = __builtin_bswap64(top);
    std::memcpy(buf_.data() + bytes_, &top, 8);
    bytes_ += static_cast<std::size_t>(fill_ >> 3);
    fill_ &= 7;
  }
  void put_ue(std::uint32_t v) {
    const std::uint64_t vp1 = std::uint64_t{v} + 1;
    put(vp1, 2 * (63 - std::countl_zero(vp1)) + 1);
  }

  std::size_t bit_count() const { return bytes_ * 8 + static_cast<std::size_t>(fill_); }
  // Pads the last byte with zeros and returns a copy of the bytes written,
  // leaving the writer empty.
  util::Bytes take() {
    if (fill_ > 0) buf_[bytes_++] = static_cast<std::uint8_t>(acc_ << (8 - fill_));
    fill_ = 0;
    util::Bytes out(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(bytes_));
    bytes_ = 0;
    return out;
  }

 private:
  util::Bytes buf_;
  std::size_t bytes_ = 0;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

// Per-call direct-mapped cache of RGB -> packed quantized word. Web pages
// have few colours, so nearly every lookup hits.
class QuantMemo {
 public:
  explicit QuantMemo(QuantSteps steps) : steps_(steps), keys_(kSize, kEmpty), words_(kSize) {}

  std::uint32_t get(std::uint32_t rgb) {
    const std::uint32_t slot = (rgb * 0x9e3779b1u) >> (32 - kBits);
    if (keys_[slot] != rgb) {
      const Ycc raw = to_ycc(Rgb{static_cast<std::uint8_t>(rgb), static_cast<std::uint8_t>(rgb >> 8),
                                 static_cast<std::uint8_t>(rgb >> 16)});
      keys_[slot] = rgb;
      words_[slot] = pack((raw.y + steps_.y / 2) / steps_.y, (raw.cb + steps_.c / 2) / steps_.c,
                          (raw.cr + steps_.c / 2) / steps_.c);
    }
    return words_[slot];
  }

 private:
  static constexpr int kBits = 12;
  static constexpr std::size_t kSize = std::size_t{1} << kBits;
  static constexpr std::uint32_t kEmpty = 0xffffffffu;  // no 24-bit RGB value
  QuantSteps steps_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> words_;
};

std::uint32_t rgb_key(Rgb c) {
  return static_cast<std::uint32_t>(c.r) | static_cast<std::uint32_t>(c.g) << 8 |
         static_cast<std::uint32_t>(c.b) << 16;
}

// Explicit-row coding: se(dY), then a chroma-changed flag, then the chroma
// deltas when set. Webpage columns are overwhelmingly runs of identical
// quantized rows, so the stream alternates ue(run-of-identical-rows) with
// one explicit row:
//
//   [ue(y0)][ue(cb0)][ue(cr0)] { [ue(run)] [explicit row] }*
//
// An explicit row's codes, computed without branching on the data: `head`
// is se(dY) and the flag, `chroma` se(dCb) se(dCr) or zero bits. ue(v)'s
// code is v + 1 in ue_bits(v) bits.
struct ExplicitRow {
  std::uint64_t head;
  int head_bits;
  std::uint64_t chroma;
  int chroma_bits;
  int bits() const { return head_bits + chroma_bits; }
};

ExplicitRow explicit_row(std::uint32_t q, std::uint32_t prev) {
  const std::uint32_t dy = se_code(word_y(q) - word_y(prev));
  const std::uint32_t dcb = se_code(word_cb(q) - word_cb(prev));
  const std::uint32_t dcr = se_code(word_cr(q) - word_cr(prev));
  const bool changed = (q ^ prev) >> 11;
  const std::uint64_t keep = changed ? ~std::uint64_t{0} : 0;
  const int cr_bits = ue_bits(dcr);
  return {(std::uint64_t{dy} + 1) << 1 | (changed ? 1u : 0u), ue_bits(dy) + 1,
          ((std::uint64_t{dcb} + 1) << cr_bits | (std::uint64_t{dcr} + 1)) & keep,
          (ue_bits(dcb) + cr_bits) & static_cast<int>(keep)};
}

void put_explicit_row(SegmentBitWriter& bw, const ExplicitRow& row) {
  bw.put(row.head, row.head_bits);
  bw.put(row.chroma, row.chroma_bits);
}

// Pixels per chunk of a row that the encoder compares with the row above.
constexpr int kChunkWidth = 64;

// The encoder state of one column, resumable between the rows where its
// quantized word changes.
struct ColumnState {
  SegmentBitWriter bits;       // the open segment's coded bytes
  int fed = 0;                 // rows coded so far
  int row0 = 0;                // first row of the open segment, or of the next
  int rows = 0;                // rows in the open segment; 0 = none open
  int limit = 0;               // rows the open segment may take
  std::uint32_t prev = 0;      // word of the open segment's last row
  std::uint32_t pending = 0;   // rows of `prev` not yet coded as a run
  bool done = false;           // an empty segment ended the column
};

}  // namespace

// A row chunk equal to the chunk above is skipped; elsewhere each pixel
// that differs from the one above is quantized, and a column whose word
// changes is handed the run of its previous word. The run goes through the
// row-by-row rule "extend while flushing the run would fit" in closed form,
// so every cut and byte equals a column-at-a-time encoder's.
class RowFedEncoder::Impl {
 public:
  Impl(int width, int height, const ColumnCodecParams& params)
      : width_(width),
        height_(height),
        budget_bits_(static_cast<std::size_t>(params.payload_budget) * 8),
        memo_(steps_for_quality(params.quality)),
        last_(static_cast<std::size_t>(width)),
        cols_(static_cast<std::size_t>(width)) {
    // Components are at most 256 and runs at most 0xffff rows, so a segment
    // spends at most 51 bits on its first row and 33 + 58 on each later one
    // (ue(run), explicit row). Each writer holds one segment's bytes, capped
    // at 1 KiB up front for huge budgets.
    const std::size_t max_bits = std::min(budget_bits_, std::size_t{96} * static_cast<std::size_t>(height) + 64);
    for (auto& c : cols_) c.bits.reserve(std::min<std::size_t>(max_bits / 8 + 1, 1024));
  }

  void push_row(const Rgb* row, const Rgb* above) {
    if (next_row_ == height_) throw std::logic_error("RowFedEncoder::push_row: past the last row");
    const int y = next_row_++;
    if (above == nullptr) {
      for (int x = 0; x < width_; ++x) last_[static_cast<std::size_t>(x)] = memo_.get(rgb_key(row[x]));
      return;
    }
    for (int x0 = 0; x0 < width_; x0 += kChunkWidth) {
      const int end = std::min(x0 + kChunkWidth, width_);
      if (std::memcmp(row + x0, above + x0, static_cast<std::size_t>(end - x0) * sizeof(Rgb)) == 0) continue;
      std::uint32_t left_rgb = 0xffffffffu;
      std::uint32_t word = 0;
      for (int x = x0; x < end; ++x) {
        const std::uint32_t rgb = rgb_key(row[x]);
        if (rgb == rgb_key(above[x])) continue;  // same pixel, same word
        if (rgb != left_rgb) {
          left_rgb = rgb;
          word = memo_.get(rgb);
        }
        std::uint32_t& last = last_[static_cast<std::size_t>(x)];
        if (word != last) {
          feed(x, last, y);
          last = word;
        }
      }
    }
  }

  // Codes every column's last run and returns the segments column by
  // column, each column's top to bottom.
  std::vector<ColumnSegment> finish() {
    if (next_row_ != height_) throw std::logic_error("RowFedEncoder::finish: rows missing");
    for (int x = 0; x < width_; ++x) feed(x, last_[static_cast<std::size_t>(x)], height_);
    // Segments were closed row by row, columns interleaved; each column's
    // closed top to bottom, which a stable sort keeps.
    std::stable_sort(segments_.begin(), segments_.end(),
                     [](const ColumnSegment& a, const ColumnSegment& b) { return a.col < b.col; });
    return std::move(segments_);
  }

 private:
  // Codes rows [fed, end) of column x, all of word w.
  void feed(int x, std::uint32_t w, int end) {
    ColumnState& s = cols_[static_cast<std::size_t>(x)];
    int n = end - s.fed;
    s.fed = end;
    // Fast path for the commonest event, worth about 8 % of the encoder's
    // time on corpus pages (EXPERIMENTS.md, "Row-fed column encoder"): the
    // open segment takes w's first row as an explicit row and the rest as a
    // run, both fitting. It must end below the row limit, as a segment that
    // reaches the limit closes, which only the loop does.
    if (s.rows > 0 && w != s.prev && n > 0 && s.rows + n < s.limit) {
      const ExplicitRow row = explicit_row(w, s.prev);
      const std::size_t bits = s.bits.bit_count() + static_cast<std::size_t>(ue_bits(s.pending) + row.bits());
      if (bits <= budget_bits_ && static_cast<std::uint64_t>(n - 1) <= max_run_within(budget_bits_ - bits)) {
        s.bits.put_ue(s.pending);
        put_explicit_row(s.bits, row);
        s.prev = w;
        s.pending = static_cast<std::uint32_t>(n - 1);
        s.rows += n;
        return;
      }
    }
    while (n > 0 && !s.done) {
      if (s.rows == 0) {
        // The row opens a segment.
        s.limit = std::min(height_ - s.row0, kMaxSegmentRows);
        const std::size_t first_bits =
            static_cast<std::size_t>(ue_bits(word_y(w)) + ue_bits(word_cb(w)) + ue_bits(word_cr(w)));
        if (first_bits > budget_bits_) {
          // Pathological budget: an empty segment ends the column.
          s.done = true;
          close(x);
          return;
        }
        s.bits.put_ue(static_cast<std::uint32_t>(word_y(w)));
        s.bits.put_ue(static_cast<std::uint32_t>(word_cb(w)));
        s.bits.put_ue(static_cast<std::uint32_t>(word_cr(w)));
        s.prev = w;
        s.rows = 1;
        --n;
      } else if (w == s.prev) {
        // The run grows up to the longest one whose ue() still fits.
        const int grow = std::min(n, s.limit - s.rows);
        const std::uint64_t fits = max_run_within(budget_bits_ - s.bits.bit_count());
        if (s.pending + static_cast<std::uint64_t>(grow) > fits) {
          const int add = static_cast<int>(fits - s.pending);
          s.pending = static_cast<std::uint32_t>(fits);
          s.rows += add;
          n -= add;
          close(x);
          continue;
        }
        s.pending += static_cast<std::uint32_t>(grow);
        s.rows += grow;
        n -= grow;
      } else {
        const ExplicitRow row = explicit_row(w, s.prev);
        const std::size_t cost = static_cast<std::size_t>(ue_bits(s.pending) + row.bits());
        if (s.bits.bit_count() + cost > budget_bits_) {
          close(x);
          continue;
        }
        s.bits.put_ue(s.pending);
        s.pending = 0;
        put_explicit_row(s.bits, row);
        s.prev = w;
        ++s.rows;
        --n;
      }
      if (s.rows == s.limit) close(x);
    }
  }

  // Ends column x's open segment (an empty one when none is open).
  void close(int x) {
    ColumnState& s = cols_[static_cast<std::size_t>(x)];
    if (s.pending > 0) s.bits.put_ue(s.pending);
    s.pending = 0;
    segments_.push_back(ColumnSegment{static_cast<std::uint16_t>(x), static_cast<std::uint16_t>(s.row0),
                                      static_cast<std::uint16_t>(s.rows), s.bits.take()});
    s.row0 += s.rows;
    s.rows = 0;
  }

  int width_;
  int height_;
  std::size_t budget_bits_;
  QuantMemo memo_;
  int next_row_ = 0;
  std::vector<std::uint32_t> last_;  // each column's word in the last row pushed
  std::vector<ColumnState> cols_;
  std::vector<ColumnSegment> segments_;  // in the order they closed
};

RowFedEncoder::RowFedEncoder(int width, int height, const ColumnCodecParams& params) {
  if (width < 0 || height < 0 || width > 0xffff || height > 0xffff) {
    throw std::invalid_argument("RowFedEncoder: page outside the 16-bit column/row fields");
  }
  impl_ = std::make_unique<Impl>(width, height, params);
}

RowFedEncoder::~RowFedEncoder() = default;

void RowFedEncoder::push_row(const Rgb* row, const Rgb* above) { impl_->push_row(row, above); }

std::vector<ColumnSegment> RowFedEncoder::finish() { return impl_->finish(); }

}  // namespace sonic::oracles::frozen
