#include "image/column_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace sonic::image {

std::string ColumnCodecParams::fingerprint() const {
  return "q" + std::to_string(quality) + "b" + std::to_string(payload_budget);
}

namespace {

// Columns per strip: the encoder quantizes, and the decoder writes out, this
// many columns per pass over the rows.
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

// Bits an Exp-Golomb ue(v) occupies: 2·floor(log2(v + 1)) + 1.
int ue_bits(std::uint32_t v) {
  return 2 * (63 - std::countl_zero(std::uint64_t{v} + 1)) + 1;
}

std::uint32_t se_code(int v) {
  return v <= 0 ? static_cast<std::uint32_t>(-2 * v) : static_cast<std::uint32_t>(2 * v - 1);
}

int se_bits(int v) { return ue_bits(se_code(v)); }

// Largest run r with ue_bits(r) <= `bits_left`: ue_bits(r) <= b holds for
// r + 1 < 2^((b - 1) / 2 + 1).
std::uint64_t max_run_within(std::size_t bits_left) {
  if (bits_left == 0) return 0;
  const std::size_t e = (bits_left - 1) / 2 + 1;
  return e >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << e) - 2;
}

// MSB-first writer with a 64-bit accumulator into a caller-sized buffer.
class WordBitWriter {
 public:
  explicit WordBitWriter(std::uint8_t* out) : out_(out) {}

  // Appends the low `count` bits of `value`; count <= 56.
  void put(std::uint64_t value, int count) {
    acc_ = acc_ << count | value;
    fill_ += count;
    while (fill_ >= 8) {
      fill_ -= 8;
      out_[bytes_++] = static_cast<std::uint8_t>(acc_ >> fill_);
    }
  }
  void put_ue(std::uint32_t v) {
    const std::uint64_t vp1 = std::uint64_t{v} + 1;
    put(vp1, 2 * (63 - std::countl_zero(vp1)) + 1);
  }
  void put_se(int v) { put_ue(se_code(v)); }

  std::size_t bit_count() const { return bytes_ * 8 + static_cast<std::size_t>(fill_); }
  // Pads the last byte with zeros; returns the bytes written.
  std::size_t finish() {
    if (fill_ > 0) out_[bytes_++] = static_cast<std::uint8_t>(acc_ << (8 - fill_));
    fill_ = 0;
    return bytes_;
  }

 private:
  std::uint8_t* out_;
  std::uint64_t acc_ = 0;
  std::size_t bytes_ = 0;
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

// Rows ahead of the current one whose strip bytes are prefetched.
constexpr std::size_t kPrefetchRows = 8;

// Prefetches every cache line of [p, p + bytes); rw = 1 prefetches for a
// write.
template <int rw>
void prefetch_span(const void* p, std::size_t bytes) {
  const char* b = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += 64) __builtin_prefetch(b + off, rw);
  __builtin_prefetch(b + bytes - 1, rw);
}

// Quantizes columns [x0, x0 + strip) in row order into `cols`, one buffer
// of `height` words per column.
void quantize_strip(const Raster& img, int x0, int strip, QuantMemo& memo, std::uint32_t* cols) {
  const std::size_t height = static_cast<std::size_t>(img.height());
  const std::size_t width = static_cast<std::size_t>(img.width());
  const Rgb* row = img.pixels().data() + x0;
  const std::size_t strip_bytes = static_cast<std::size_t>(strip) * sizeof(Rgb);
  for (std::size_t y = 0; y < height; ++y, row += width) {
    // Rows are a page-sized stride apart, beyond the hardware prefetchers'
    // reach: fetch the strip's bytes a few rows ahead.
    if (y + kPrefetchRows < height) prefetch_span<0>(row + kPrefetchRows * width, strip_bytes);
    std::uint32_t left_rgb = 0xffffffffu;
    std::uint32_t word = 0;
    for (int i = 0; i < strip; ++i) {
      const std::uint32_t rgb = static_cast<std::uint32_t>(row[i].r) |
                                static_cast<std::uint32_t>(row[i].g) << 8 |
                                static_cast<std::uint32_t>(row[i].b) << 16;
      if (rgb != left_rgb) {
        left_rgb = rgb;
        word = memo.get(rgb);
      }
      cols[static_cast<std::size_t>(i) * height + y] = word;
    }
  }
}

// Explicit-row cost/coding: se(dY), then a chroma-changed flag, then the
// chroma deltas when set. Webpage columns are overwhelmingly runs of
// identical quantized rows, so the stream alternates ue(run-of-identical-
// rows) with one explicit row:
//
//   [ue(y0)][ue(cb0)][ue(cr0)] { [ue(run)] [explicit row] }*
int explicit_row_bits(std::uint32_t q, std::uint32_t prev) {
  int bits = se_bits(word_y(q) - word_y(prev)) + 1;
  if ((q ^ prev) >> 11) bits += se_bits(word_cb(q) - word_cb(prev)) + se_bits(word_cr(q) - word_cr(prev));
  return bits;
}

void put_explicit_row(WordBitWriter& bw, std::uint32_t q, std::uint32_t prev) {
  bw.put_se(word_y(q) - word_y(prev));
  const bool chroma_changed = (q ^ prev) >> 11;
  bw.put(chroma_changed ? 1 : 0, 1);
  if (chroma_changed) {
    bw.put_se(word_cb(q) - word_cb(prev));
    bw.put_se(word_cr(q) - word_cr(prev));
  }
}

// Cuts one column of quantized words into budget-sized segments. A run of
// identical rows is found with one scan and accepted up to the longest run
// whose ue() still fits — the row-by-row rule "extend while flushing the
// run would fit", in closed form.
void encode_column(const std::uint32_t* col, int height, int x, std::size_t budget_bits,
                   std::uint8_t* scratch, std::vector<ColumnSegment>& segments) {
  int row = 0;
  while (row < height) {
    const int limit = std::min(height - row, kMaxSegmentRows);
    const std::uint32_t* c = col + row;
    WordBitWriter bw(scratch);
    int rows = 0;
    std::uint32_t prev = c[0];
    const std::size_t first_bits = static_cast<std::size_t>(ue_bits(word_y(prev)) + ue_bits(word_cb(prev)) +
                                                            ue_bits(word_cr(prev)));
    if (first_bits <= budget_bits) {
      bw.put_ue(static_cast<std::uint32_t>(word_y(prev)));
      bw.put_ue(static_cast<std::uint32_t>(word_cb(prev)));
      bw.put_ue(static_cast<std::uint32_t>(word_cr(prev)));
      rows = 1;
      std::uint32_t pending_run = 0;
      while (rows < limit) {
        int end = rows;
        // Four words per step while the run lasts, then one at a time.
        const std::uint64_t prev2 = std::uint64_t{prev} * 0x100000001u;
        for (; end + 4 <= limit; end += 4) {
          std::uint64_t a, b;
          std::memcpy(&a, c + end, 8);
          std::memcpy(&b, c + end + 2, 8);
          if ((a ^ prev2) | (b ^ prev2)) break;
        }
        while (end < limit && c[end] == prev) ++end;
        if (end > rows) {
          const std::uint64_t fits = max_run_within(budget_bits - bw.bit_count());
          if (static_cast<std::uint64_t>(end - rows) > fits) {
            pending_run = static_cast<std::uint32_t>(fits);
            rows += static_cast<int>(fits);
            break;
          }
          pending_run = static_cast<std::uint32_t>(end - rows);
          rows = end;
          if (rows == limit) break;
        }
        const std::uint32_t q = c[rows];
        const std::size_t cost = static_cast<std::size_t>(ue_bits(pending_run) + explicit_row_bits(q, prev));
        if (bw.bit_count() + cost > budget_bits) break;
        bw.put_ue(pending_run);
        pending_run = 0;
        put_explicit_row(bw, q, prev);
        prev = q;
        ++rows;
      }
      if (pending_run > 0) bw.put_ue(pending_run);
    }
    ColumnSegment seg;
    seg.col = static_cast<std::uint16_t>(x);
    seg.row0 = static_cast<std::uint16_t>(row);
    seg.rows = static_cast<std::uint16_t>(rows);
    seg.data.assign(scratch, scratch + bw.finish());
    segments.push_back(std::move(seg));
    row += rows;
    if (rows == 0) break;  // pathological budget; avoid infinite loop
  }
}

// MSB-first reader with a 64-bit window for Exp-Golomb codes. Codes of up
// to 28 leading zeros that end inside the data take the countl_zero path;
// everything else — longer codes, codes running past the end — goes bit by
// bit with util::BitReader's semantics: past the end reads return 0 and
// clear ok(), and more than 32 leading zeros return 0 with ok() kept.
class WindowBitReader {
 public:
  explicit WindowBitReader(std::span<const std::uint8_t> data)
      : data_(data.data()), size_(data.size()), bits_(data.size() * 8) {}

  bool ok() const { return ok_; }

  int bit() {
    if (pos_ >= bits_) {
      ok_ = false;
      return 0;
    }
    const int b = (data_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1;
    ++pos_;
    return b;
  }

  std::uint32_t ue() {
    const std::uint64_t w = window();
    const int zeros = std::countl_zero(w);
    if (zeros <= 28) {
      const int len = 2 * zeros + 1;
      if (pos_ + static_cast<std::size_t>(len) <= bits_) {
        pos_ += static_cast<std::size_t>(len);
        return static_cast<std::uint32_t>(w >> (64 - len)) - 1;
      }
    }
    return ue_bitwise();
  }

  int se() {
    const std::uint32_t u = ue();
    return (u & 1) ? static_cast<int>((u + 1) / 2) : -static_cast<int>(u / 2);
  }

 private:
  // The 64 bits from pos_, zero-padded past the end.
  std::uint64_t window() const {
    const std::size_t byte = pos_ >> 3;
    std::uint64_t w = 0;
    if (byte + 8 <= size_) {
      std::memcpy(&w, data_ + byte, 8);
      if constexpr (std::endian::native == std::endian::little) w = __builtin_bswap64(w);
    } else {
      for (std::size_t i = 0; byte + i < size_; ++i) w |= std::uint64_t{data_[byte + i]} << (56 - 8 * i);
    }
    return w << (pos_ & 7);
  }

  std::uint32_t ue_bitwise() {
    int zeros = 0;
    while (ok_ && bit() == 0) {
      if (++zeros > 32) return 0;
    }
    std::uint32_t v = 1;
    for (int i = 0; i < zeros; ++i) v = (v << 1) | static_cast<std::uint32_t>(bit());
    return v - 1;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t bits_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

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
  WindowBitReader br(seg.data);
  std::int64_t y = br.ue();
  std::int64_t cb = br.ue();
  std::int64_t cr = br.ue();
  if (!br.ok() || !in_range(y) || !in_range(cb) || !in_range(cr)) return;

  // Rows r >= visible fall below the image: decoded, never stored.
  const int rows = seg.rows;
  const int visible = height - seg.row0;
  std::uint32_t* out = col + seg.row0;
  std::uint32_t word = decoded_word(y, cb, cr, steps);
  out[0] = word;  // the first row is emitted even when seg.rows == 0
  int r = 1;
  while (r < rows) {
    const std::uint32_t run = br.ue();
    if (!br.ok()) break;
    const int end = static_cast<int>(std::min<std::uint64_t>(std::uint64_t{run} + r, rows));
    if (r < visible) std::fill(out + r, out + std::min(end, visible), word);
    r = end;
    if (r >= rows) break;
    const std::int64_t ny = y + br.se();
    std::int64_t ncb = cb;
    std::int64_t ncr = cr;
    if (br.bit()) {
      ncb = cb + br.se();
      ncr = cr + br.se();
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
  if (img.width() > 0xffff || img.height() > 0xffff) {
    throw std::invalid_argument("column_encode: raster exceeds the 16-bit column/row fields");
  }
  const QuantSteps steps = steps_for_quality(params.quality);
  const std::size_t budget_bits = static_cast<std::size_t>(params.payload_budget) * 8;
  const int height = img.height();
  std::vector<ColumnSegment> segments;

  // Components are at most 256, so a segment spends at most 51 bits on its
  // first row and 31 + 56 on each later one (ue(run), explicit row): the
  // writer's buffer never needs more than 96 bits per row.
  const std::size_t max_bits = std::min(budget_bits, std::size_t{96} * static_cast<std::size_t>(height) + 64);
  std::vector<std::uint8_t> scratch(max_bits / 8 + 16);
  std::vector<std::uint32_t> cols(static_cast<std::size_t>(kStripWidth) * static_cast<std::size_t>(height));
  QuantMemo memo(steps);
  for (int x0 = 0; x0 < img.width(); x0 += kStripWidth) {
    const int strip = std::min(kStripWidth, img.width() - x0);
    quantize_strip(img, x0, strip, memo, cols.data());
    for (int i = 0; i < strip; ++i) {
      encode_column(cols.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(height), height, x0 + i,
                    budget_bits, scratch.data(), segments);
    }
  }
  return segments;
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
        prefetch_span<1>(pixels + ahead, static_cast<std::size_t>(strip) * sizeof(Rgb));
        prefetch_span<1>(out.mask.data() + ahead, static_cast<std::size_t>(strip));
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

std::size_t column_encoded_size(std::span<const ColumnSegment> segments) {
  std::size_t total = 0;
  for (const auto& s : segments) total += s.data.size() + 6;
  return total;
}

util::Bytes segment_serialize(const ColumnSegment& seg) {
  util::ByteWriter w;
  w.u16(seg.col);
  w.u16(seg.row0);
  w.u16(seg.rows);
  w.raw(seg.data);
  return w.take();
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
