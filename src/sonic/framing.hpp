// SONIC page transport framing (§3.3).
//
// A rendered page becomes a sequence of fixed-size 100-byte frames:
//
//   [page_id u32][seq u16][total u16][type u8][payload ...]
//
// * type 0 (metadata): url, dimensions, codec quality, expiry, click map —
//   serialized once and chunked across as many frames as needed. Metadata
//   frames are transmitted twice: losing the page geometry would make every
//   segment frame useless, so they get cheap repetition redundancy.
// * type 1 (segment): one per-column segment from the resilient column
//   codec. Losing one blanks a bounded run of rows in one column.
// * type 2 (repair, wire format v2 — the broadcast carousel): a fountain
//   repair symbol over the page's source frames. The seq field carries the
//   repair_seq, total carries the page's source-frame count k, and bytes
//   9..99 hold the kFountainBlockSize-byte symbol (repair frames have no
//   payload_len byte — the length is implied by the frame size). A source
//   frame's fountain block packs its type bit and payload length into one
//   byte, [(type << 7) | payload_len], followed by the 90-byte payload
//   region, so a converged decoder reproduces source frames byte for byte.
//   PageAssembler holds a page's source frames in that block layout and
//   runs the page's fountain decoder itself once a repair frame arrives;
//   a pure-source broadcast never creates a decoder.
//
// Integrity per frame is provided by the modem's PacketCodec
// (crc32 + v29 + rs8); a frame either arrives intact or not at all.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fec/fountain.hpp"
#include "image/column_codec.hpp"
#include "image/interpolate.hpp"
#include "web/layout.hpp"

namespace sonic::core {

constexpr std::size_t kFrameSize = 100;  // §3.3: "fixed-sized frames of 100 bytes"
constexpr std::size_t kFrameHeaderSize = 10;  // page_id + seq + total + type + payload_len
constexpr std::size_t kFramePayloadSize = kFrameSize - kFrameHeaderSize;

constexpr std::uint8_t kFrameTypeMetadata = 0;
constexpr std::uint8_t kFrameTypeSegment = 1;
constexpr std::uint8_t kFrameTypeRepair = 2;  // wire format v2

// One fountain symbol spans a source frame's [(type << 7) | payload_len]
// byte plus its payload region: everything after the fields a repair frame
// already carries (page_id, seq, total).
constexpr std::size_t kFountainBlockSize = kFramePayloadSize + 1;
// The repair_seq lives in the u16 seq field; carousel repair streams wrap.
constexpr std::uint32_t kRepairSeqSpace = 1u << 16;

struct FrameHeader {
  std::uint32_t page_id = 0;
  std::uint16_t seq = 0;    // type 2: repair_seq
  std::uint16_t total = 0;  // type 2: the page's source-frame count k
  std::uint8_t type = 0;    // 0 = metadata, 1 = segment, 2 = repair
};

struct PageMetadata {
  std::string url;
  int width = 0;
  int height = 0;
  int quality = 10;
  std::uint32_t expiry_s = 24 * 3600;  // server-set cache lifetime (§3.1)
  std::vector<web::ClickRegion> click_map;
};

// A page prepared for broadcast.
struct PageBundle {
  std::uint32_t page_id = 0;
  PageMetadata metadata;
  std::vector<util::Bytes> frames;  // every frame exactly kFrameSize bytes
  std::size_t total_bytes() const { return frames.size() * kFrameSize; }
};

// Unequal error protection (the §4 "dynamic scheme with higher error
// protection for important parts of an image/webpage" the paper leaves as
// an optimization): segments in the top kUepTopFraction of the page —
// title, masthead, first headline — are transmitted kUepCopies times.
// The top region ends at row max(1, int(height * kUepTopFraction)).
// Repetition at the frame level composes with the per-frame FEC and needs
// no receiver changes (the assembler dedups).
constexpr double kUepTopFraction = 0.2;
constexpr int kUepCopies = 2;

struct UepPolicy {
  bool enabled = false;
};

// Builds the frame sequence for a rendered page. Throws
// std::invalid_argument for rasters wider or taller than 65535 px and for
// pages needing more than 0xffff frames.
PageBundle make_bundle(std::uint32_t page_id, const std::string& url,
                       const web::RenderResult& page, const image::ColumnCodecParams& codec,
                       std::uint32_t expiry_s = 24 * 3600, const UepPolicy& uep = {});

// The same bundle, byte for byte, built from a laid-out page without its
// raster: only the page's distinct rows are painted, in bands of
// PageLayout::kBandRows, each pushed straight into the column encoder with
// the count of rows that repeat it, so only one band (207 KB at 1080 px) is
// held at a time.
PageBundle make_bundle(std::uint32_t page_id, const std::string& url,
                       const web::PageLayout& page, const image::ColumnCodecParams& codec,
                       std::uint32_t expiry_s = 24 * 3600, const UepPolicy& uep = {});

// A page reconstructed from whichever frames arrived.
struct ReceivedPage {
  PageMetadata metadata;
  image::Raster image;
  std::vector<std::uint8_t> mask;  // per-pixel received flags (before interpolation)
  double coverage = 0.0;           // fraction of pixels received
  std::size_t frames_received = 0;
  std::size_t frames_expected = 0;
  // Set when the page's fountain decoder converged, with the repair
  // symbols and all symbols (source + repair) it accepted.
  bool fountain_decoded = false;
  std::size_t fountain_repairs = 0;
  std::size_t fountain_symbols = 0;

  double frame_loss_rate() const {
    if (frames_expected == 0) return 0.0;
    return 1.0 - static_cast<double>(frames_received) / static_cast<double>(frames_expected);
  }
};

// Reassembles pages from frames as they arrive (possibly out of order,
// possibly with losses and duplicates). The one per-page store of a
// receiver: source frames are held as fountain blocks, and the page's
// fountain decoder is created by its first repair frame and seeded from the
// blocks already held, so repair frames stand in for any lost source frame.
class PageAssembler {
 public:
  explicit PageAssembler(image::ColumnCodecParams codec = {});

  // Feeds one received frame of any type (already FEC/CRC-validated by the
  // modem). Returns its header, or nullopt when the frame is malformed or
  // its total contradicts the k its page already established; such a frame
  // changes nothing.
  std::optional<FrameHeader> push(std::span<const std::uint8_t> frame);

  // True once every source frame of `page_id` was seen.
  bool complete(std::uint32_t page_id) const;

  // Reconstructs a page from whatever has arrived so far. A page whose
  // fountain decoder converges first gets its lost source frames back byte
  // for byte; `mode` applies the §3.3 nearest-neighbor recovery to any
  // pixels still missing. Returns nullopt if no metadata frame is held
  // (geometry unknown).
  std::optional<ReceivedPage> assemble(std::uint32_t page_id, image::InterpolationMode mode);

  std::vector<std::uint32_t> known_pages() const;
  void drop(std::uint32_t page_id);

 private:
  struct Partial {
    std::uint16_t total = 0;
    std::vector<util::Bytes> blocks;              // by seq; empty = not received
    std::optional<fec::FountainDecoder> decoder;  // from the first repair frame on
  };
  image::ColumnCodecParams codec_;
  std::map<std::uint32_t, Partial> pages_;
};

// Frame header parsing. For type 2 frames parse_frame returns the
// kFountainBlockSize-byte symbol as the payload.
std::optional<std::pair<FrameHeader, util::Bytes>> parse_frame(std::span<const std::uint8_t> frame);

// Fountain wire helpers (v2).
//
// All of a bundle's kFountainBlockSize-byte fountain blocks, in seq order —
// the encoder's input.
std::vector<util::Bytes> bundle_fountain_blocks(const PageBundle& bundle);
// A type 2 repair frame carrying `symbol` (kFountainBlockSize bytes) for a
// k-source-frame page.
util::Bytes serialize_repair_frame(std::uint32_t page_id, std::uint16_t repair_seq,
                                   std::uint16_t k, std::span<const std::uint8_t> symbol);

// Metadata blob (de)serialization.
util::Bytes serialize_metadata(const PageMetadata& metadata);
std::optional<PageMetadata> parse_metadata(std::span<const std::uint8_t> blob);

}  // namespace sonic::core
