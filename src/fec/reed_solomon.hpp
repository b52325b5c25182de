// Reed-Solomon coding over GF(2^8) — the paper's "outer FEC scheme (rs8)"
// (§3.3). Block length 255 with a configurable number of parity symbols
// (default 32, i.e. RS(255,223)); shortened blocks are supported so SONIC's
// 100-byte frames fit in a single codeword. The decoder corrects e errors
// and f erasures whenever 2e + f <= nroots. Both directions are
// table-driven: the encoder's LFSR XORs one precomputed row per data byte,
// and the syndromes step one times_alpha table per root.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace sonic::fec {

// GF(2^8) arithmetic with primitive polynomial 0x11d (as used by rs8/CCSDS).
class GF256 {
 public:
  static const GF256& instance();

  std::uint8_t mul(std::uint8_t a, std::uint8_t b) const;
  std::uint8_t div(std::uint8_t a, std::uint8_t b) const;  // b != 0
  std::uint8_t inv(std::uint8_t a) const;                  // a != 0
  std::uint8_t exp(int e) const { return exp_[((e % 255) + 255) % 255]; }
  // exp_table()[e] == exp(e) for 0 <= e < 512, with no reduction.
  const std::uint8_t* exp_table() const { return exp_; }
  int log(std::uint8_t a) const { return log_[a]; }  // undefined for 0

  // Multiplication by alpha^i as a table: times_alpha(i)[x] == mul(x, exp(i)),
  // for i < kTimesAlphaRows (the largest nroots).
  static constexpr int kTimesAlphaRows = 64;
  const std::uint8_t* times_alpha(int i) const { return times_alpha_[i]; }

 private:
  GF256();
  std::uint8_t exp_[512];
  int log_[256];
  std::uint8_t times_alpha_[kTimesAlphaRows][256];
};

class ReedSolomon {
 public:
  // nroots parity symbols (2 to kMaxRoots); payload per full block is
  // 255 - nroots.
  static constexpr int kMaxRoots = GF256::kTimesAlphaRows;
  explicit ReedSolomon(int nroots = 32);

  int nroots() const { return nroots_; }
  int max_data() const { return 255 - nroots_; }

  // Appends nroots parity bytes to `data` (size() <= max_data(), else
  // std::invalid_argument).
  util::Bytes encode(std::span<const std::uint8_t> data) const;
  // The nroots parity bytes of `data` into `out` (out.size() == nroots()),
  // allocating nothing: the LFSR with its remainder in up to eight 64-bit
  // words on the stack, each data byte one shift of the remainder and one
  // XOR of the feedback's row of a 256-row table built in the constructor
  // (the feedback times the generator's coefficients), with no branch and
  // no GF256::mul. Byte-identical to the byte-array LFSR
  // (oracles::rs_encode_reference in the test-only library).
  void parity(std::span<const std::uint8_t> data, std::span<std::uint8_t> out) const;

  // Corrects `block` (data || parity, total <= 255) in place.
  // `erasures` holds byte indexes into `block` known to be unreliable.
  // Returns the number of corrected symbols, or std::nullopt if the
  // codeword is uncorrectable.
  // A block whose syndromes are all zero is returned as is. No path
  // allocates: the locator polynomials live in stack arrays of
  // kMaxRoots + 1 bytes, the Chien search steps the logs of the locator's
  // terms (in registers for up to four) and stops at its last root, and
  // the final check moves the syndromes by each correction instead of
  // recomputing them from the block.
  std::optional<int> decode(std::span<std::uint8_t> block,
                            std::span<const int> erasures = {}) const;

  // The syndromes S_i = r(alpha^i), i < nroots, of `block` (data || parity,
  // byte j the coefficient of x^(n-1-j)) into synd[0, nroots); returns
  // whether any is nonzero. One Horner chain per root through its
  // times_alpha table, the chains advanced together four bytes at a time.
  bool syndromes(std::span<const std::uint8_t> block, std::span<std::uint8_t, kMaxRoots> synd) const;

 private:
  int nroots_;
  std::vector<std::uint64_t> rows_;  // parity's 256 feedback rows, (nroots + 7) / 8 words each
};

}  // namespace sonic::fec
