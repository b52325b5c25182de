// Transmission profiles — the counterpart of Quiet's JSON profile files.
// The paper builds a new profile "inspired by audible-7k-channel" using OFDM
// with 92 subcarriers, CRC32, inner conv v29 and outer RS, reaching 10 kbps
// (§3.3). profiles::get("sonic-10k") reproduces that operating point; the
// others provide the comparison rungs used by the benchmarks.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fec/convolutional.hpp"
#include "modem/qam.hpp"

namespace sonic::modem {

struct OfdmProfile {
  std::string name = "custom";
  double sample_rate = 44100.0;
  int fft_size = 1024;
  int cp_len = 64;
  int num_subcarriers = 92;     // total, pilots included
  double carrier_hz = 9200.0;   // paper §4: mono-channel carrier at 9.2 kHz
  int pilot_spacing = 8;        // every Nth subcarrier is a pilot tone
  Constellation constellation = Constellation::kQam64;
  fec::ConvSpec conv{fec::ConvCode::kV29, fec::PunctureRate::kRate3_4};
  int rs_nroots = 32;           // 0 disables the outer code
  float amplitude = 0.25f;      // output RMS target (1.0 = full scale)

  int num_pilots() const;
  int data_carriers() const { return num_subcarriers - num_pilots(); }
  double symbol_duration_s() const { return static_cast<double>(fft_size + cp_len) / sample_rate; }
  // Carrier bin of the first subcarrier.
  int first_bin() const;

  // Uncoded PHY bit rate (data carriers only).
  double raw_bit_rate() const;
  // Net payload rate when bursts carry `frames_per_burst` frames of
  // `payload_bytes` each (every frame individually CRC32+RS+conv coded per
  // §3.3): the payload bits over the air time of
  // OfdmModem::burst_samples, so preambles, header and the inter-burst gap
  // count.
  double net_bit_rate(std::size_t payload_bytes = 100, int frames_per_burst = 16) const;

  double subcarrier_spacing_hz() const { return sample_rate / fft_size; }
};

// Name-addressed profile table — the API for selecting a rate/robustness
// operating point at runtime (acoustic-modem surveys show these rungs must
// be swappable in the field). Names are matched loosely: lookup ignores
// case and punctuation, so "sonic-10k", "sonic10k" and "SONIC 10K" all
// resolve the same rung. The table holds four fixed rungs: robust-2k,
// audible-7k, sonic-10k and cable-64k. All functions are thread-safe.
namespace profiles {

// The rung named `name`, or nullopt.
std::optional<OfdmProfile> get(const std::string& name);

// Display names, slowest rung first.
std::vector<std::string> names();

// Every rung, in names() order.
std::vector<OfdmProfile> all();

}  // namespace profiles

}  // namespace sonic::modem
