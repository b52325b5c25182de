// Rateless repair coding over a page's fixed-size frames — the fountain
// layer of the broadcast carousel.
//
// A page's k source frames are broadcast as-is (the code is systematic);
// the encoder can then mint an effectively endless stream of *repair
// symbols*, each derived deterministically from (page_id, repair_seq), so
// encoder and decoder agree on every symbol's composition with zero
// signaling — a repair frame only carries its repair_seq. A receiver
// converges to the full page from ANY mix of source and repair symbols
// totalling slightly more than k, regardless of which frames it lost or
// when it tuned in: exactly the property a cyclic catalog broadcast needs,
// because downlink-only users cannot ask for retransmissions.
//
// Two regimes, switched on k (FountainParams::mds_max_k):
//
//  * k <= mds_max_k — MDS mode. Repair symbol r is the Reed-Solomon
//    extension of the page: the unique degree-<k polynomial through the
//    source blocks (point i holds block i) evaluated at point k + r mod
//    (255 - k), over the same GF(2^8) as the modem's rs8 outer code. ANY k
//    distinct symbols reconstruct the page — zero reception overhead, and
//    the guarantee is deterministic, which matters most on small pages
//    where "k plus a couple" is all the 8 % overhead budget allows.
//    Repair seqs wrap modulo the 255 - k available evaluation points;
//    wrapped duplicates are deduplicated at the receiver.
//
//  * k > mds_max_k — LT mode, a systematic Luby-Transform-style code.
//    Repair symbol r XORs a pseudo-random *dense* neighbor set (degree
//    ~ k/2) of source blocks seeded by (page_id, r): each excess dense
//    equation halves the residual system's null space, so decode failure
//    decays as 2^-excess for ANY loss pattern. Decoding is
//    belief-propagation peeling (release degree-1 equations, substitute,
//    cascade) with a bounded Gaussian-elimination fallback over the
//    residual system. Symbol r also force-includes source index r mod k —
//    a cyclic coverage walk, so any k consecutive repair symbols touch
//    every source block. There are no sparse low-degree symbols: at the
//    carousel's 8 % overhead target, streams mixing them in fail far more
//    often than the all-dense one (measured in DESIGN.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace sonic::fec {

// The code's fixed shape — part of the wire format, so not configurable.
struct FountainParams {
  // Largest k decoded in MDS (Reed-Solomon extension) mode. Leaves
  // 255 - k >= 85 GF(2^8) evaluation points for repair.
  static constexpr std::size_t mds_max_k = 170;
  // GE fallback refuses residual systems with more unknowns than this
  // (caps the O(u^3) worst case on untrusted input; peeling still finishes
  // given more input).
  static constexpr std::size_t max_ge_unknowns = 2048;
};

// XOR-accumulate src into dst over dst.size() bytes (src must be at least
// as long) — the inner loop of BP/GE elimination. Word-wide: 8 bytes per
// uint64 step with a scalar tail, correct for any alignment and length.
void xor_into(util::Bytes& dst, std::span<const std::uint8_t> src);

// Exact v % d for a fixed divisor d >= 1 through a precomputed reciprocal
// (Barrett reduction). With m = floor((2^64 - 1) / d), the high word of
// v * m is the quotient or one less for every 64-bit v, so one conditional
// subtraction finishes the remainder.
class ExactRemainder {
 public:
  explicit ExactRemainder(std::uint64_t d) : d_(d), m_(~0ull / d) {}
  std::uint64_t operator()(std::uint64_t v) const {
    __extension__ using u128 = unsigned __int128;
    const auto q = static_cast<std::uint64_t>((static_cast<u128>(v) * m_) >> 64);
    const std::uint64_t r = v - q * d_;
    return r >= d_ ? r - d_ : r;
  }

 private:
  std::uint64_t d_;
  std::uint64_t m_;
};

// The LT neighbour draw for k-block pages. Symbol r's set is the forced
// member r mod k plus distinct Rng::uniform_int(k) draws on
// Rng(salt ^ page_id).fork(r) until the degree (k/2 + uniform_int(2),
// clamped to [1, k]) is reached. The draw here is that exact stream with
// uniform_int's rejection limit hoisted and its v % k taken through
// ExactRemainder; members are marked in a byte mask, which reads back in
// index order without a sort.
class NeighborDraw {
 public:
  explicit NeighborDraw(std::size_t k);

  // Sets mask[i] = 1 for each neighbour i of repair symbol `repair_seq`;
  // mask holds k bytes, all zero on entry. Returns the degree.
  std::size_t draw(std::uint32_t page_id, std::uint32_t repair_seq, std::uint8_t* mask) const;

 private:
  std::size_t k_;
  std::uint64_t limit_;  // uniform_int(k) rejects draws at or above this
  ExactRemainder mod_k_;
};

// Server side: packs the k source blocks (all the same size) once and
// mints repair symbols on demand. Stateless across calls — symbol r is the
// same bytes no matter when or in which batch it is generated, so carousel
// cycles can resume a page's repair stream where the previous cycle
// stopped.
class FountainEncoder {
 public:
  FountainEncoder(std::uint32_t page_id, std::vector<util::Bytes> blocks);

  std::size_t k() const { return k_; }
  std::size_t block_size() const { return block_size_; }
  std::uint32_t page_id() const { return page_id_; }
  bool mds_mode() const { return k_ <= FountainParams::mds_max_k; }

  // block_size() bytes of repair symbol `repair_seq`.
  util::Bytes repair_symbol(std::uint32_t repair_seq) const;
  // The symbols of every seq in `repair_seqs`, in order; each equals
  // repair_symbol(seq). LT batches of kFourRussiansMinBatch or more share
  // Gray-code XOR tables (Method of Four Russians) across the batch.
  std::vector<util::Bytes> repair_symbols(std::span<const std::uint32_t> repair_seqs) const;

  // Measured crossover: below this many LT symbols, XORing each symbol's
  // blocks directly beats building a 255-XOR table per 8-block chunk.
  static constexpr std::size_t kFourRussiansMinBatch = 85;
  // Symbols per Four-Russians batch: as many as keep the batch's membership
  // bytes and accumulators within an L2-sized budget.
  std::size_t four_russians_batch() const { return batch_; }

 private:
  const std::uint8_t* block_ptr(std::size_t i) const { return packed_.data() + i * stride_; }
  void mds_symbol(std::uint32_t repair_seq, std::uint8_t* out) const;
  void direct_symbols(std::span<const std::uint32_t> seqs, util::Bytes* out) const;
  void four_russians_symbols(std::span<const std::uint32_t> seqs, util::Bytes* out) const;

  std::uint32_t page_id_;
  std::size_t k_;
  std::size_t block_size_ = 0;
  std::size_t stride_ = 0;              // block_size_ rounded up to 16 bytes
  std::size_t batch_ = 0;
  std::vector<std::uint8_t> packed_;    // blocks stride_ apart, zero-padded to a multiple of 8
  NeighborDraw draw_;
  std::vector<std::uint8_t> lagrange_denom_;  // MDS mode: D_i = prod_{j!=i} (i ^ j)
};

// Receiver side: accepts any mix of source blocks (by source index) and
// repair symbols (by repair_seq), decodes incrementally, and reports
// progress. All inputs must be block_size bytes; wrong-sized, out-of-range
// or duplicate symbols are rejected (return false).
class FountainDecoder {
 public:
  FountainDecoder(std::uint32_t page_id, std::size_t k, std::size_t block_size);

  // True when the symbol was new, well-formed, and accepted.
  bool add_source(std::size_t index, std::span<const std::uint8_t> block);
  bool add_repair(std::uint32_t repair_seq, std::span<const std::uint8_t> symbol);

  // All k source blocks recovered? decoded() is the pure query; complete()
  // also attempts the GE fallback over pending LT equations first (MDS
  // mode decodes eagerly and never needs it).
  bool decoded() const { return decoded_count_ == k_; }
  bool complete();

  std::size_t k() const { return k_; }
  std::size_t block_size() const { return block_size_; }
  // Distinct accepted symbols so far (sources + repairs).
  std::size_t symbols_received() const { return sources_received_ + repairs_received_; }
  std::size_t sources_received() const { return sources_received_; }
  std::size_t repairs_received() const { return repairs_received_; }

  bool has_block(std::size_t index) const;
  // Valid once has_block(index); block_size() bytes.
  const util::Bytes& block(std::size_t index) const { return blocks_[index]; }

 private:
  struct Equation {
    std::vector<std::uint32_t> unknowns;  // sorted source indices not yet known
    util::Bytes value;                    // symbol XOR all known neighbors
    bool spent = false;
  };

  bool mds_mode() const { return k_ <= FountainParams::mds_max_k; }
  void learn(std::size_t index, util::Bytes value);
  bool gaussian_fallback();
  void mds_interpolate();

  std::uint32_t page_id_;
  std::size_t k_;
  std::size_t block_size_;

  std::vector<util::Bytes> blocks_;  // decoded source blocks; empty = unknown
  std::vector<std::uint8_t> known_;
  std::size_t decoded_count_ = 0;
  std::size_t sources_received_ = 0;
  std::size_t repairs_received_ = 0;

  // LT mode state.
  std::vector<Equation> equations_;
  std::vector<std::vector<std::uint32_t>> by_unknown_;  // source -> equation ids
  std::vector<std::uint8_t> seen_repair_;               // dedup by repair_seq
  NeighborDraw draw_;
  std::vector<std::uint8_t> member_mask_;  // draw_'s k-byte scratch, zero between calls

  // MDS mode state: received values by evaluation point (0..k-1 sources,
  // k..254 repair), in arrival order.
  std::vector<std::uint8_t> point_known_;
  std::vector<util::Bytes> point_value_;
  std::vector<std::uint8_t> point_order_;
};

}  // namespace sonic::fec
