#include "image/column_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "image/exp_golomb.hpp"

namespace sonic::image {

std::string ColumnCodecParams::fingerprint() const {
  // Appended piece by piece: GCC 12 misreads "lit" + std::string as an
  // overlapping copy (-Wrestrict).
  return std::string("q").append(std::to_string(quality)).append("b").append(std::to_string(payload_budget));
}

namespace {

// Columns per strip: the decoder writes out this many columns per pass over
// the rows.
constexpr int kStripWidth = 64;
// Rows in one segment, limited by its u16 `rows` field.
constexpr int kMaxSegmentRows = 0xffff;
// Largest quantized component a stream may carry; the decoder ends a segment
// at the first component outside [0, kMaxComponent].
constexpr std::int64_t kMaxComponent = 2047;

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

Rgb to_rgb(Ycc c) {
  const float Y = static_cast<float>(c.y);
  const float Cb = static_cast<float>(c.cb) - 128.0f;
  const float Cr = static_cast<float>(c.cr) - 128.0f;
  auto clamp8 = [](float v) { return static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f)); };
  return {clamp8(Y + 1.402f * Cr), clamp8(Y - 0.344136f * Cb - 0.714136f * Cr), clamp8(Y + 1.772f * Cb)};
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

void put_explicit_row(util::BitWriter& bw, const ExplicitRow& row) {
  bw.bits(row.head, row.head_bits);
  bw.bits(row.chroma, row.chroma_bits);
}

// ue(run) then the explicit row: one write when the three codes fit its 56
// bits together, as they do for nearly every event on web pages.
void put_run_and_row(util::BitWriter& bw, std::uint32_t run, const ExplicitRow& row) {
  const std::uint64_t run_code = std::uint64_t{run} + 1;
  const int run_bits = ue_bits(run);
  if (run_bits + row.bits() <= 56) {
    bw.bits((run_code << row.head_bits | row.head) << row.chroma_bits | row.chroma, run_bits + row.bits());
    return;
  }
  put_ue(bw, run);
  put_explicit_row(bw, row);
}

// Pixels per chunk of a row that the encoder compares with the row above.
constexpr int kChunkWidth = 64;

// The encoder state of one column, resumable between the rows where its
// quantized word changes.
struct ColumnState {
  util::BitWriter bits;        // the open segment's coded bytes
  int fed = 0;                 // rows coded so far
  int row0 = 0;                // first row of the open segment, or of the next
  int rows = 0;                // rows in the open segment; 0 = none open
  int limit = 0;               // rows the open segment may take
  std::uint32_t prev = 0;      // word of the open segment's last row
  std::uint32_t pending = 0;   // rows of `prev` not yet coded as a run
  bool done = false;           // an empty segment ended the column
};

}  // namespace

// A repeated row is only counted, and a row chunk equal to the chunk above
// is skipped; elsewhere each pixel that differs from the one above is
// quantized, and a column whose word changes is handed the run of its
// previous word. The run goes through the
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

  void repeat_row(int count) {
    if (next_row_ == 0 || count < 0 || count > height_ - next_row_) {
      throw std::logic_error("RowFedEncoder::repeat_row: no row to repeat, or past the last row");
    }
    next_row_ += count;
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
        put_run_and_row(s.bits, s.pending, row);
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
        put_ue(s.bits, static_cast<std::uint32_t>(word_y(w)));
        put_ue(s.bits, static_cast<std::uint32_t>(word_cb(w)));
        put_ue(s.bits, static_cast<std::uint32_t>(word_cr(w)));
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
        put_run_and_row(s.bits, s.pending, row);
        s.pending = 0;
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
    if (s.pending > 0) put_ue(s.bits, s.pending);
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

void RowFedEncoder::repeat_row(int count) { impl_->repeat_row(count); }

std::vector<ColumnSegment> RowFedEncoder::finish() { return impl_->finish(); }

namespace {

// Rows ahead of the current one whose strip bytes the decoder prefetches.
constexpr std::size_t kPrefetchRows = 8;

// Prefetches every cache line of [p, p + bytes) for a write.
void prefetch_for_write(const void* p, std::size_t bytes) {
  const char* b = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += 64) __builtin_prefetch(b + off, 1);
  __builtin_prefetch(b + bytes - 1, 1);
}

// Decoded pixel as stored in the strip buffer: r | g << 8 | b << 16, with
// bit 24 marking it received. Zero means no segment covered the pixel.
constexpr std::uint32_t kReceived = 1u << 24;

std::uint32_t decoded_word(std::int64_t y, std::int64_t cb, std::int64_t cr, QuantSteps steps) {
  const Rgb c = to_rgb(Ycc{static_cast<int>(y) * steps.y, static_cast<int>(cb) * steps.c,
                           static_cast<int>(cr) * steps.c});
  return kReceived | c.r | static_cast<std::uint32_t>(c.g) << 8 | static_cast<std::uint32_t>(c.b) << 16;
}

bool in_range(std::int64_t v) { return v >= 0 && v <= kMaxComponent; }

// Decodes one segment into its column buffer `col` of `height` words.
void decode_segment(const ColumnSegment& seg, QuantSteps steps, int height, std::uint32_t* col) {
  util::BitReader br(seg.data);
  std::int64_t y = get_ue(br);
  std::int64_t cb = get_ue(br);
  std::int64_t cr = get_ue(br);
  if (!br.ok() || !in_range(y) || !in_range(cb) || !in_range(cr)) return;

  // Rows r >= visible fall below the image: decoded, never stored.
  const int rows = seg.rows;
  const int visible = height - seg.row0;
  std::uint32_t* out = col + seg.row0;
  std::uint32_t word = decoded_word(y, cb, cr, steps);
  out[0] = word;  // the first row is emitted even when seg.rows == 0
  int r = 1;
  while (r < rows) {
    const std::uint32_t run = get_ue(br);
    if (!br.ok()) break;
    const int end = static_cast<int>(std::min<std::uint64_t>(std::uint64_t{run} + r, rows));
    if (r < visible) std::fill(out + r, out + std::min(end, visible), word);
    r = end;
    if (r >= rows) break;
    const std::int64_t ny = y + get_se(br);
    std::int64_t ncb = cb;
    std::int64_t ncr = cr;
    if (br.bit()) {
      ncb = cb + get_se(br);
      ncr = cr + get_se(br);
    }
    if (!br.ok() || !in_range(ny) || !in_range(ncb) || !in_range(ncr)) break;
    y = ny;
    cb = ncb;
    cr = ncr;
    word = decoded_word(y, cb, cr, steps);
    if (r < visible) out[r] = word;
    ++r;
  }
}

}  // namespace

double ColumnDecodeResult::coverage() const {
  if (mask.empty()) return 0.0;
  std::size_t n = 0;
  for (std::uint8_t m : mask) n += m;
  return static_cast<double>(n) / static_cast<double>(mask.size());
}

std::vector<ColumnSegment> column_encode(const Raster& img, const ColumnCodecParams& params) {
  RowFedEncoder encoder(img.width(), img.height(), params);
  const Rgb* row = img.pixels().data();
  const std::size_t width = static_cast<std::size_t>(img.width());
  for (int y = 0; y < img.height(); ++y, row += width) encoder.push_row(row, y > 0 ? row - width : nullptr);
  return encoder.finish();
}

ColumnDecodeResult column_decode(int width, int height,
                                 std::span<const ColumnSegment> segments,
                                 const ColumnCodecParams& params) {
  const QuantSteps steps = steps_for_quality(params.quality);
  ColumnDecodeResult out;
  out.image = Raster(width, height, Rgb{0, 0, 0});
  out.mask.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), 0);

  // Segments in column order, each column's in arrival order so a later
  // overlapping segment still wins: sort col << 32 | index keys.
  std::vector<std::uint64_t> order;
  order.reserve(segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].col < width && segments[i].row0 < height) order.push_back(std::uint64_t{segments[i].col} << 32 | i);
  }
  std::sort(order.begin(), order.end());
  auto segment_at = [&](std::size_t k) -> const ColumnSegment& { return segments[order[k] & 0xffffffffu]; };

  const std::size_t h = static_cast<std::size_t>(height);
  std::vector<std::uint32_t> cols;
  Rgb* pixels = out.image.pixels().data();
  for (std::size_t k = 0; k < order.size();) {
    const int x0 = segment_at(k).col / kStripWidth * kStripWidth;
    const int strip = std::min(kStripWidth, width - x0);
    cols.assign(static_cast<std::size_t>(strip) * h, 0);
    for (; k < order.size() && segment_at(k).col < x0 + strip; ++k) {
      const ColumnSegment& seg = segment_at(k);
      decode_segment(seg, steps, height, cols.data() + static_cast<std::size_t>(seg.col - x0) * h);
    }
    for (std::size_t y = 0; y < h; ++y) {
      const std::size_t base = y * static_cast<std::size_t>(width) + static_cast<std::size_t>(x0);
      if (y + kPrefetchRows < h) {
        const std::size_t ahead = base + kPrefetchRows * static_cast<std::size_t>(width);
        prefetch_for_write(pixels + ahead, static_cast<std::size_t>(strip) * sizeof(Rgb));
        prefetch_for_write(out.mask.data() + ahead, static_cast<std::size_t>(strip));
      }
      // An uncovered word is 0: black and unmasked, as initialised.
      for (int i = 0; i < strip; ++i) {
        const std::uint32_t w = cols[static_cast<std::size_t>(i) * h + y];
        pixels[base + static_cast<std::size_t>(i)] =
            Rgb{static_cast<std::uint8_t>(w), static_cast<std::uint8_t>(w >> 8), static_cast<std::uint8_t>(w >> 16)};
        out.mask[base + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(w >> 24);
      }
    }
  }
  return out;
}

std::size_t segment_write(const ColumnSegment& seg, std::uint8_t* out) {
  const std::uint16_t fields[3] = {seg.col, seg.row0, seg.rows};
  for (std::uint16_t v : fields) {
    *out++ = static_cast<std::uint8_t>(v);
    *out++ = static_cast<std::uint8_t>(v >> 8);
  }
  std::copy(seg.data.begin(), seg.data.end(), out);
  return kSegmentHeaderSize + seg.data.size();
}

std::optional<ColumnSegment> segment_parse(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  ColumnSegment seg;
  seg.col = r.u16();
  seg.row0 = r.u16();
  seg.rows = r.u16();
  if (!r.ok()) return std::nullopt;
  seg.data = r.raw(r.remaining());
  return seg;
}

}  // namespace sonic::image
