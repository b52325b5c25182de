#include "sonic/framing.hpp"

#include <algorithm>
#include <stdexcept>

namespace sonic::core {
namespace {

// Metadata frames carry [chunk_idx u8][num_chunks u8][blob piece], so a
// repeated copy of chunk k is recognizable regardless of its seq number.
constexpr std::size_t kMetaChunkSize = kFramePayloadSize - 2;

// The fountain block layout: [(type << 7) | payload_len][payload, zero-padded].
util::Bytes pack_fountain_block(std::uint8_t type, std::span<const std::uint8_t> payload) {
  util::Bytes block(kFountainBlockSize, 0);
  block[0] = static_cast<std::uint8_t>((type << 7) | payload.size());
  std::copy(payload.begin(), payload.end(), block.begin() + 1);
  return block;
}

// The fountain block of one serialized source frame (type 0/1, exactly
// kFrameSize bytes).
util::Bytes fountain_block(std::span<const std::uint8_t> frame) {
  if (frame.size() != kFrameSize) throw std::invalid_argument("fountain_block: bad frame size");
  const std::uint8_t type = frame[8];
  const std::uint8_t len = frame[9];
  if (type > kFrameTypeSegment || len > kFramePayloadSize) {
    throw std::invalid_argument("fountain_block: not a source frame");
  }
  return pack_fountain_block(type, frame.subspan(kFrameHeaderSize, len));
}

// A zeroed kFrameSize frame with its 10-byte header written: the fields
// little-endian, then the payload length.
util::Bytes frame_with_header(const FrameHeader& header, std::size_t payload_len) {
  util::Bytes frame(kFrameSize, 0);
  std::uint8_t* p = frame.data();
  for (int i = 0; i < 4; ++i) *p++ = static_cast<std::uint8_t>(header.page_id >> (8 * i));
  for (std::uint16_t v : {header.seq, header.total}) {
    *p++ = static_cast<std::uint8_t>(v);
    *p++ = static_cast<std::uint8_t>(v >> 8);
  }
  *p++ = header.type;
  *p = static_cast<std::uint8_t>(payload_len);
  return frame;
}

// The rows the first encoder takes: those above the UEP boundary when UEP
// splits the page there, else all of them. The top region is encoded
// separately so no segment straddles the protection boundary. Segment
// col/row0 are u16; checked first because the split adds the boundary row
// to row0, which can wrap even when both halves fit.
int first_encoder_rows(int width, int height, const UepPolicy& uep) {
  if (width > 0xffff || height > 0xffff) {
    throw std::invalid_argument("page raster exceeds the 16-bit column/row fields");
  }
  if (!uep.enabled) return height;
  const int boundary = std::max(1, static_cast<int>(height * kUepTopFraction));
  return std::min(boundary, height);
}

// The codec with the payload budget cut so a segment's wire form (segment
// header + data) fits the frame payload.
image::ColumnCodecParams segment_codec(image::ColumnCodecParams codec) {
  codec.payload_budget =
      std::min(codec.payload_budget, static_cast<int>(kFramePayloadSize - image::kSegmentHeaderSize));
  return codec;
}

// Encodes and frames one page fed row by row, top to bottom: the one path
// from pixels to frames, whether the rows come from a raster or from
// painted bands. With UEP the rows above the protection boundary and those
// below it go to two encoders, so no segment straddles the boundary.
class BundleBuilder {
 public:
  BundleBuilder(std::uint32_t page_id, const std::string& url, int width, int height,
                std::vector<web::ClickRegion> click_map, const image::ColumnCodecParams& codec,
                std::uint32_t expiry_s, const UepPolicy& uep);

  // The next row's pixels, the row above it (null for the first row), and
  // how many rows after it repeat it.
  void push_row(const image::Rgb* row, const image::Rgb* above, int repeats = 0);

  // After all `height` rows: the page's frames.
  PageBundle finish();

 private:
  PageBundle bundle_;
  UepPolicy uep_;
  int top_rows_;  // rows the first encoder takes: all, or those above the UEP boundary
  int next_row_ = 0;
  image::RowFedEncoder top_;
  std::optional<image::RowFedEncoder> bottom_;
};

BundleBuilder::BundleBuilder(std::uint32_t page_id, const std::string& url, int width, int height,
                             std::vector<web::ClickRegion> click_map, const image::ColumnCodecParams& codec,
                             std::uint32_t expiry_s, const UepPolicy& uep)
    : uep_(uep),
      top_rows_(first_encoder_rows(width, height, uep)),
      top_(width, top_rows_, segment_codec(codec)) {
  if (top_rows_ < height) bottom_.emplace(width, height - top_rows_, segment_codec(codec));
  bundle_.page_id = page_id;
  bundle_.metadata.url = url;
  bundle_.metadata.width = width;
  bundle_.metadata.height = height;
  bundle_.metadata.quality = codec.quality;
  bundle_.metadata.expiry_s = expiry_s;
  bundle_.metadata.click_map = std::move(click_map);
}

void BundleBuilder::push_row(const image::Rgb* row, const image::Rgb* above, int repeats) {
  int rows = 1 + repeats;  // rows equal to `row` from next_row_ on
  if (!bottom_ || next_row_ < top_rows_) {
    const int top = bottom_ ? std::min(rows, top_rows_ - next_row_) : rows;
    top_.push_row(row, above);
    top_.repeat_row(top - 1);
    next_row_ += top;
    rows -= top;
    if (rows == 0) return;
  }
  // The bottom region is a page of its own: its first row has none above,
  // even when it repeats the top region's last row.
  bottom_->push_row(row, next_row_ == top_rows_ ? nullptr : above);
  bottom_->repeat_row(rows - 1);
  next_row_ += rows;
}

PageBundle BundleBuilder::finish() {
  std::vector<image::ColumnSegment> segments = top_.finish();
  if (bottom_) {
    // Bottom region: shift row origins past the boundary.
    for (auto& seg : bottom_->finish()) {
      seg.row0 = static_cast<std::uint16_t>(seg.row0 + top_rows_);
      segments.push_back(std::move(seg));
    }
  }
  // With UEP the first encoder's rows are repeated: the top region, or the
  // whole page when the boundary falls at or below its end.
  const int protected_rows = uep_.enabled ? top_rows_ : 0;
  auto copies = [&](const image::ColumnSegment& seg) { return seg.row0 < protected_rows ? kUepCopies : 1; };
  std::size_t segment_frames = 0;
  for (const auto& seg : segments) segment_frames += static_cast<std::size_t>(copies(seg));

  const util::Bytes meta_blob = serialize_metadata(bundle_.metadata);
  const std::size_t num_chunks = std::max<std::size_t>(1, (meta_blob.size() + kMetaChunkSize - 1) / kMetaChunkSize);
  const std::size_t total = 2 * num_chunks + segment_frames;
  if (total > 0xffff) {
    // Pages this large (> ~5.9 MB of frames) exceed the 16-bit sequence
    // space; callers should split them. Refuse rather than wrap seq.
    throw std::invalid_argument("page too large for one bundle");
  }

  std::vector<util::Bytes>& frames = bundle_.frames;
  frames.reserve(total);
  FrameHeader header{bundle_.page_id, 0, static_cast<std::uint16_t>(total), kFrameTypeMetadata};
  auto push_meta_copy = [&]() {
    header.type = kFrameTypeMetadata;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t off = c * kMetaChunkSize;
      const std::size_t len = std::min(kMetaChunkSize, meta_blob.size() - off);
      util::Bytes& frame = frames.emplace_back(frame_with_header(header, 2 + len));
      frame[kFrameHeaderSize] = static_cast<std::uint8_t>(c);
      frame[kFrameHeaderSize + 1] = static_cast<std::uint8_t>(num_chunks);
      std::copy_n(meta_blob.begin() + static_cast<std::ptrdiff_t>(off), len, frame.begin() + kFrameHeaderSize + 2);
      ++header.seq;
    }
  };

  push_meta_copy();  // first copy up front (fast page display)
  header.type = kFrameTypeSegment;
  for (const auto& seg : segments) {
    const std::size_t len = image::kSegmentHeaderSize + seg.data.size();
    if (len > kFramePayloadSize) throw std::logic_error("segment exceeds the frame payload");
    for (int copy = 0; copy < copies(seg); ++copy) {
      util::Bytes& frame = frames.emplace_back(frame_with_header(header, len));
      image::segment_write(seg, frame.data() + kFrameHeaderSize);
      ++header.seq;
    }
  }
  push_meta_copy();  // repetition redundancy at the tail

  return std::move(bundle_);
}

}  // namespace

std::optional<std::pair<FrameHeader, util::Bytes>> parse_frame(std::span<const std::uint8_t> frame) {
  if (frame.size() != kFrameSize) return std::nullopt;
  util::ByteReader r(frame);
  FrameHeader h;
  h.page_id = r.u32();
  h.seq = r.u16();
  h.total = r.u16();
  h.type = r.u8();
  if (!r.ok()) return std::nullopt;
  if (h.type == kFrameTypeRepair) {
    // v2: seq is the repair_seq (unbounded by total), total is the page's
    // source-frame count, and the rest of the frame is the symbol.
    if (h.total == 0) return std::nullopt;
    return std::make_pair(h, r.raw(kFountainBlockSize));
  }
  const std::uint8_t len = r.u8();
  if (!r.ok() || len > kFramePayloadSize || h.seq >= h.total || h.type > kFrameTypeSegment) {
    return std::nullopt;
  }
  return std::make_pair(h, r.raw(len));
}

std::vector<util::Bytes> bundle_fountain_blocks(const PageBundle& bundle) {
  std::vector<util::Bytes> blocks;
  blocks.reserve(bundle.frames.size());
  for (const util::Bytes& frame : bundle.frames) blocks.push_back(fountain_block(frame));
  return blocks;
}

util::Bytes serialize_repair_frame(std::uint32_t page_id, std::uint16_t repair_seq,
                                   std::uint16_t k, std::span<const std::uint8_t> symbol) {
  if (symbol.size() != kFountainBlockSize) {
    throw std::invalid_argument("serialize_repair_frame: bad symbol size");
  }
  // The symbol takes the payload_len byte too.
  util::Bytes frame = frame_with_header(FrameHeader{page_id, repair_seq, k, kFrameTypeRepair}, 0);
  std::copy(symbol.begin(), symbol.end(), frame.begin() + kFrameHeaderSize - 1);
  return frame;
}

util::Bytes serialize_metadata(const PageMetadata& m) {
  util::ByteWriter w;
  w.str(m.url);
  w.u16(static_cast<std::uint16_t>(m.width));
  w.u32(static_cast<std::uint32_t>(m.height));
  w.u8(static_cast<std::uint8_t>(m.quality));
  w.u32(m.expiry_s);
  w.u16(static_cast<std::uint16_t>(m.click_map.size()));
  for (const web::ClickRegion& r : m.click_map) {
    w.u16(static_cast<std::uint16_t>(r.x));
    w.u32(static_cast<std::uint32_t>(r.y));
    w.u16(static_cast<std::uint16_t>(r.w));
    w.u16(static_cast<std::uint16_t>(r.h));
    w.str(r.href);
  }
  return w.take();
}

std::optional<PageMetadata> parse_metadata(std::span<const std::uint8_t> blob) {
  util::ByteReader r(blob);
  PageMetadata m;
  m.url = r.str();
  m.width = r.u16();
  m.height = static_cast<int>(r.u32());
  m.quality = r.u8();
  m.expiry_s = r.u32();
  if (!r.ok() || m.width <= 0 || m.height <= 0) return std::nullopt;
  const std::uint16_t n = r.u16();
  for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
    web::ClickRegion region;
    region.x = r.u16();
    region.y = static_cast<int>(r.u32());
    region.w = r.u16();
    region.h = r.u16();
    region.href = r.str();
    // A truncated blob (lost trailing metadata chunk) yields a shorter
    // click map but keeps the page usable.
    if (!r.ok()) break;
    m.click_map.push_back(std::move(region));
  }
  return m;
}

PageBundle make_bundle(std::uint32_t page_id, const std::string& url,
                       const web::RenderResult& page, const image::ColumnCodecParams& codec,
                       std::uint32_t expiry_s, const UepPolicy& uep) {
  const image::Raster& img = page.image;
  BundleBuilder builder(page_id, url, img.width(), img.height(), page.click_map, codec, expiry_s, uep);
  const std::size_t width = static_cast<std::size_t>(img.width());
  const image::Rgb* row = img.pixels().data();
  for (int y = 0; y < img.height(); ++y, row += width) builder.push_row(row, y > 0 ? row - width : nullptr);
  return builder.finish();
}

PageBundle make_bundle(std::uint32_t page_id, const std::string& url,
                       const web::PageLayout& page, const image::ColumnCodecParams& codec,
                       std::uint32_t expiry_s, const UepPolicy& uep) {
  const int width = page.width();
  const int height = page.height();
  BundleBuilder builder(page_id, url, width, height, page.click_map, codec, expiry_s, uep);
  // Only the distinct rows are painted and pushed, each with the count of
  // rows below it that repeat it. The row above a distinct row is the
  // previous distinct row; a band's last is the next band's first's.
  const std::vector<int>& distinct = page.distinct_rows();
  const int count = static_cast<int>(distinct.size());
  image::Raster band;
  std::vector<image::Rgb> above(static_cast<std::size_t>(width));
  for (int i0 = 0; i0 < count; i0 += web::PageLayout::kBandRows) {
    const int rows = std::min(web::PageLayout::kBandRows, count - i0);
    page.paint_distinct(i0, rows, band);
    const image::Rgb* row = band.pixels().data();
    for (int r = 0; r < rows; ++r, row += width) {
      const std::size_t i = static_cast<std::size_t>(i0 + r);
      const int next = i + 1 < distinct.size() ? distinct[i + 1] : height;
      builder.push_row(row, r > 0 ? row - width : i0 > 0 ? above.data() : nullptr, next - distinct[i] - 1);
    }
    std::copy_n(row - width, width, above.begin());
  }
  return builder.finish();
}

PageAssembler::PageAssembler(image::ColumnCodecParams codec) : codec_(codec) {}

std::optional<FrameHeader> PageAssembler::push(std::span<const std::uint8_t> frame) {
  const auto parsed = parse_frame(frame);
  if (!parsed) return std::nullopt;
  const auto& [header, payload] = *parsed;
  // One rule for k, whichever frame type arrives first: the page's total.
  const auto [it, fresh] = pages_.try_emplace(header.page_id);
  Partial& partial = it->second;
  if (fresh) {
    partial.total = header.total;
    partial.blocks.resize(header.total);
  } else if (header.total != partial.total) {
    return std::nullopt;
  }
  if (header.type == kFrameTypeRepair) {
    if (!partial.decoder) {
      // Seed with the source frames that arrived before the first repair.
      partial.decoder.emplace(header.page_id, partial.total, kFountainBlockSize);
      for (std::size_t seq = 0; seq < partial.blocks.size(); ++seq) {
        if (!partial.blocks[seq].empty()) partial.decoder->add_source(seq, partial.blocks[seq]);
      }
    }
    partial.decoder->add_repair(header.seq, payload);
    return header;
  }
  util::Bytes& block = partial.blocks[header.seq];
  if (block.empty()) {
    // A source frame is also a degree-1 fountain symbol.
    block = pack_fountain_block(header.type, payload);
    if (partial.decoder) partial.decoder->add_source(header.seq, block);
  }
  return header;
}

bool PageAssembler::complete(std::uint32_t page_id) const {
  const auto it = pages_.find(page_id);
  if (it == pages_.end()) return false;
  return std::none_of(it->second.blocks.begin(), it->second.blocks.end(),
                      [](const util::Bytes& b) { return b.empty(); });
}

std::vector<std::uint32_t> PageAssembler::known_pages() const {
  std::vector<std::uint32_t> out;
  for (const auto& [id, partial] : pages_) {
    (void)partial;
    out.push_back(id);
  }
  return out;
}

void PageAssembler::drop(std::uint32_t page_id) { pages_.erase(page_id); }

std::optional<ReceivedPage> PageAssembler::assemble(std::uint32_t page_id,
                                                    image::InterpolationMode mode) {
  const auto it = pages_.find(page_id);
  if (it == pages_.end()) return std::nullopt;
  Partial& partial = it->second;

  const bool converged = partial.decoder && partial.decoder->complete();
  if (converged) {
    // Converged: restore every lost source frame byte for byte, so the page
    // has full coverage and interpolation is a no-op. The padding beyond
    // payload_len must be zero in a well-formed block; a decoded block that
    // disagrees was corrupted upstream and stays lost.
    for (std::size_t seq = 0; seq < partial.blocks.size(); ++seq) {
      if (!partial.blocks[seq].empty()) continue;
      const util::Bytes& block = partial.decoder->block(seq);
      const std::size_t len = block[0] & 0x7f;
      if (len <= kFramePayloadSize &&
          std::all_of(block.begin() + 1 + len, block.end(), [](std::uint8_t b) { return b == 0; })) {
        partial.blocks[seq] = block;
      }
    }
  }

  // Collect metadata chunks (either copy) and segments.
  std::map<int, util::Bytes> meta_chunks;
  int num_chunks = -1;
  std::vector<image::ColumnSegment> segments;
  std::size_t received = 0;
  for (const util::Bytes& block : partial.blocks) {
    if (block.empty()) continue;
    ++received;
    const auto payload = std::span(block).subspan(1, block[0] & 0x7f);
    if ((block[0] >> 7) == kFrameTypeMetadata) {
      util::ByteReader r(payload);
      const int chunk = r.u8();
      const int chunks_total = r.u8();
      if (!r.ok()) continue;
      num_chunks = std::max(num_chunks, chunks_total);
      meta_chunks.emplace(chunk, r.raw(r.remaining()));
    } else {
      const auto seg = image::segment_parse(payload);
      if (seg) segments.push_back(std::move(*seg));
    }
  }
  if (meta_chunks.empty() || num_chunks <= 0) return std::nullopt;

  // Use the available prefix of chunks (parse_metadata tolerates a
  // truncated tail: the click map just loses entries).
  util::Bytes blob;
  for (int c = 0; c < num_chunks; ++c) {
    const auto chunk = meta_chunks.find(c);
    if (chunk == meta_chunks.end()) break;
    blob.insert(blob.end(), chunk->second.begin(), chunk->second.end());
  }
  auto metadata = parse_metadata(blob);
  if (!metadata) return std::nullopt;

  image::ColumnCodecParams codec = codec_;
  codec.quality = metadata->quality;
  auto decoded = image::column_decode(metadata->width, metadata->height, segments, codec);

  ReceivedPage page;
  page.metadata = std::move(*metadata);
  page.coverage = decoded.coverage();
  page.frames_received = received;
  page.frames_expected = partial.total;
  if (converged) {
    page.fountain_decoded = true;
    page.fountain_repairs = partial.decoder->repairs_received();
    page.fountain_symbols = partial.decoder->symbols_received();
  }
  page.mask = decoded.mask;  // pre-interpolation mask, for diagnostics
  auto mask = std::move(decoded.mask);
  image::interpolate_missing(decoded.image, mask, mode);
  page.image = std::move(decoded.image);
  return page;
}

}  // namespace sonic::core
