// Gray-coded square QAM constellations (BPSK through 1024-QAM) with
// soft-decision demapping. Quiet exposes the same family for its audible
// profiles; the paper's transmission profile is an OFDM variant of
// "audible-7k-channel" (§3.3), and 1024-QAM mirrors Quiet's cable profiles.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace sonic::modem {

using cplx = std::complex<float>;

enum class Constellation : int {
  kBpsk = 2,
  kQpsk = 4,
  kQam16 = 16,
  kQam64 = 64,
  kQam256 = 256,
  kQam1024 = 1024,
};

// Bits carried by one symbol of the given constellation.
int bits_per_symbol(Constellation c);

const char* constellation_name(Constellation c);

class QamMapper {
 public:
  explicit QamMapper(Constellation c);

  Constellation constellation() const { return constellation_; }
  int bits_per_symbol() const { return bits_; }

  // Maps `bits_` bits (MSB-first within the value) to a unit-average-energy
  // constellation point.
  cplx map(std::uint32_t bits) const;

  // Soft demap of a block of received points (one OFDM symbol's data
  // carriers): fills `soft_out` (size points.size() * bits_per_symbol())
  // with P(bit == 1) estimates, point after point, given AWGN of variance
  // `noise_var` per complex dimension. Max-log approximation: per axis the
  // squared distance to each level once, then per bit the nearest level
  // with that bit 0 and the nearest with it 1.
  void demap_soft(std::span<const cplx> points, float noise_var, std::span<float> soft_out) const;

 private:
  Constellation constellation_;
  int bits_;
  int axis_bits_;                  // bits per I/Q axis (square QAM)
  std::vector<float> levels_;      // per-axis amplitude levels, Gray order index
  std::vector<cplx> points_;       // indexed by bit label

  // Levels per axis of the largest constellation (kQam1024).
  static constexpr int kMaxAxisLevels = 32;
};

}  // namespace sonic::modem
