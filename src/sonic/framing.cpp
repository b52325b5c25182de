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

}  // namespace

util::Bytes serialize_frame(const FrameHeader& header, std::span<const std::uint8_t> payload) {
  util::ByteWriter w;
  w.u32(header.page_id);
  w.u16(header.seq);
  w.u16(header.total);
  w.u8(header.type);
  w.u8(static_cast<std::uint8_t>(payload.size()));
  w.raw(payload);
  util::Bytes out = w.take();
  out.resize(kFrameSize, 0);
  return out;
}

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
  util::ByteWriter w;
  w.u32(page_id);
  w.u16(repair_seq);
  w.u16(k);
  w.u8(kFrameTypeRepair);
  w.raw(symbol);
  return w.take();
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
                       const web::RenderResult& page, const image::ColumnCodecParams& codec_in,
                       std::uint32_t expiry_s, const UepPolicy& uep) {
  // Segment col/row0 are u16; checked up front because the UEP path below
  // adds the boundary row to row0, which can wrap even when both halves fit.
  if (page.image.width() > 0xffff || page.image.height() > 0xffff) {
    throw std::invalid_argument("page raster exceeds the 16-bit column/row fields");
  }
  PageBundle bundle;
  bundle.page_id = page_id;
  bundle.metadata.url = url;
  bundle.metadata.width = page.image.width();
  bundle.metadata.height = page.image.height();
  bundle.metadata.quality = codec_in.quality;
  bundle.metadata.expiry_s = expiry_s;
  bundle.metadata.click_map = page.click_map;

  image::ColumnCodecParams codec = codec_in;
  // Segment wire form = 6-byte segment header + data; it must fit the frame
  // payload.
  codec.payload_budget = std::min(codec.payload_budget, static_cast<int>(kFramePayloadSize) - 6);

  const util::Bytes meta_blob = serialize_metadata(bundle.metadata);
  const std::size_t num_chunks = std::max<std::size_t>(1, (meta_blob.size() + kMetaChunkSize - 1) / kMetaChunkSize);

  // UEP: the top region is encoded separately so no segment straddles the
  // protection boundary, then its frames are repeated.
  const int uep_row_limit =
      uep.enabled ? std::max(1, static_cast<int>(page.image.height() * uep.top_fraction)) : 0;
  std::vector<image::ColumnSegment> segments;
  if (uep.enabled && uep_row_limit < page.image.height()) {
    segments = image::column_encode(page.image.cropped_to_height(uep_row_limit), codec);
    // Bottom region: shift row origins past the boundary.
    image::Raster bottom(page.image.width(), page.image.height() - uep_row_limit);
    for (int y = 0; y < bottom.height(); ++y) {
      for (int x = 0; x < bottom.width(); ++x) bottom.at(x, y) = page.image.at(x, y + uep_row_limit);
    }
    for (auto seg : image::column_encode(bottom, codec)) {
      seg.row0 = static_cast<std::uint16_t>(seg.row0 + uep_row_limit);
      segments.push_back(std::move(seg));
    }
  } else {
    segments = image::column_encode(page.image, codec);
  }
  auto uep_copies = [&](const image::ColumnSegment& seg) {
    return uep.enabled && seg.row0 < uep_row_limit ? std::max(1, uep.copies) : 1;
  };
  std::size_t segment_frames = 0;
  for (const auto& seg : segments) segment_frames += static_cast<std::size_t>(uep_copies(seg));

  const std::size_t total = 2 * num_chunks + segment_frames;
  if (total > 0xffff) {
    // Pages this large (> ~5.9 MB of frames) exceed the 16-bit sequence
    // space; callers should split them. Refuse rather than wrap seq.
    throw std::invalid_argument("page too large for one bundle");
  }

  std::uint16_t seq = 0;
  auto push_meta_copy = [&]() {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      util::ByteWriter payload;
      payload.u8(static_cast<std::uint8_t>(c));
      payload.u8(static_cast<std::uint8_t>(num_chunks));
      const std::size_t off = c * kMetaChunkSize;
      const std::size_t len = std::min(kMetaChunkSize, meta_blob.size() - off);
      payload.raw(std::span(meta_blob).subspan(off, len));
      bundle.frames.push_back(serialize_frame(
          {page_id, seq++, static_cast<std::uint16_t>(total), 0}, payload.bytes()));
    }
  };

  push_meta_copy();  // first copy up front (fast page display)
  for (const auto& seg : segments) {
    const util::Bytes payload = image::segment_serialize(seg);
    for (int copy = 0; copy < uep_copies(seg); ++copy) {
      bundle.frames.push_back(
          serialize_frame({page_id, seq++, static_cast<std::uint16_t>(total), 1}, payload));
    }
  }
  push_meta_copy();  // repetition redundancy at the tail

  return bundle;
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
