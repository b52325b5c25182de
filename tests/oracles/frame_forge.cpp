#include "oracles/frame_forge.hpp"

#include <algorithm>

namespace sonic::oracles {

util::Bytes serialize_frame(const core::FrameHeader& header, std::span<const std::uint8_t> payload) {
  util::ByteWriter w;
  w.u32(header.page_id);
  w.u16(header.seq);
  w.u16(header.total);
  w.u8(header.type);
  w.u8(static_cast<std::uint8_t>(payload.size()));
  w.raw(payload.first(std::min(payload.size(), core::kFramePayloadSize)));
  util::Bytes frame = w.take();
  frame.resize(core::kFrameSize, 0);
  return frame;
}

}  // namespace sonic::oracles
