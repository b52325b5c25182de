// Reference (pre-batching) LT repair generation, kept as the test oracle
// and the before-case of bench/micro_dsp_fec: the neighbour draw through
// Rng::uniform_int with a used-flag vector and a sort, and the per-symbol
// encoder that XORs each neighbour's block in turn. It lives in the
// sonic_oracles library, which only tests and benches link.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace sonic::oracles {

// Sorted, distinct neighbour set of LT repair symbol `repair_seq` of a
// k-block page.
std::vector<std::uint32_t> fountain_neighbors_reference(std::uint32_t page_id,
                                                        std::uint32_t repair_seq, std::size_t k);

// The same set from the shipped fec::NeighborDraw: its mask read back as a
// list (the encoder and decoder read the mask directly).
std::vector<std::uint32_t> fountain_neighbors(std::uint32_t page_id, std::uint32_t repair_seq,
                                              std::size_t k);

// Per-symbol LT encoder over `blocks` (k > FountainParams::mds_max_k, all
// the same size).
class LtEncoderReference {
 public:
  LtEncoderReference(std::uint32_t page_id, std::vector<util::Bytes> blocks);
  util::Bytes repair_symbol(std::uint32_t repair_seq) const;

 private:
  std::uint32_t page_id_;
  std::vector<util::Bytes> blocks_;
};

}  // namespace sonic::oracles
