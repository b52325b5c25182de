// A frame writer for tests that forge frames: any header, with any payload
// length, including the malformed ones the assembler must refuse. The
// shipped code builds frames only through make_bundle and
// serialize_repair_frame. It writes the header layout itself, apart from
// framing.cpp's writer, so forged frames pin the wire format parse_frame
// reads. It lives in the sonic_oracles library, which only tests and
// benches link.
#pragma once

#include <span>

#include "sonic/framing.hpp"

namespace sonic::oracles {

// [page_id u32][seq u16][total u16][type u8][payload_len u8][payload], all
// little-endian, zero-padded to core::kFrameSize. payload_len is
// payload.size() cut to its low byte; at most kFramePayloadSize bytes of
// the payload are copied.
util::Bytes serialize_frame(const core::FrameHeader& header, std::span<const std::uint8_t> payload);

}  // namespace sonic::oracles
