#include "modem/profile.hpp"

#include <cctype>
#include <cmath>

#include "modem/ofdm.hpp"

namespace sonic::modem {

int OfdmProfile::num_pilots() const {
  if (pilot_spacing <= 0) return 0;
  return (num_subcarriers + pilot_spacing - 1) / pilot_spacing;
}

int OfdmProfile::first_bin() const {
  const int center = static_cast<int>(std::lround(carrier_hz / sample_rate * fft_size));
  return center - num_subcarriers / 2;
}

double OfdmProfile::raw_bit_rate() const {
  return static_cast<double>(data_carriers()) * bits_per_symbol(constellation) / symbol_duration_s();
}

double OfdmProfile::net_bit_rate(std::size_t payload_bytes, int frames_per_burst) const {
  const std::size_t samples =
      OfdmModem(*this).burst_samples(payload_bytes, static_cast<std::size_t>(frames_per_burst));
  return static_cast<double>(payload_bytes * 8) * frames_per_burst * sample_rate /
         static_cast<double>(samples);
}

namespace {

OfdmProfile make_sonic10k() {
  OfdmProfile p;
  p.name = "sonic-10k";
  p.constellation = Constellation::kQam64;
  p.conv = {fec::ConvCode::kV29, fec::PunctureRate::kRate3_4};
  p.rs_nroots = 16;
  return p;
}

OfdmProfile make_audible7k() {
  OfdmProfile p;
  p.name = "audible-7k";
  p.constellation = Constellation::kQam16;
  p.conv = {fec::ConvCode::kV29, fec::PunctureRate::kRate3_4};
  p.rs_nroots = 16;
  return p;
}

OfdmProfile make_robust2k() {
  OfdmProfile p;
  p.name = "robust-2k";
  p.constellation = Constellation::kQpsk;
  p.conv = {fec::ConvCode::kV29, fec::PunctureRate::kRate1_2};
  p.rs_nroots = 32;
  return p;
}

OfdmProfile make_cable64k() {
  OfdmProfile p;
  p.name = "cable-64k";
  p.fft_size = 1024;
  p.cp_len = 16;                 // cable: no multipath, minimal guard
  p.num_subcarriers = 256;
  p.carrier_hz = 8000.0;         // spans ~2.5-13.5 kHz
  p.constellation = Constellation::kQam1024;
  p.conv = {fec::ConvCode::kV29, fec::PunctureRate::kRate3_4};
  p.rs_nroots = 16;
  return p;
}

}  // namespace

namespace profiles {
namespace {

// Loose matching: lowercase, alphanumerics only, so "sonic-10k" ==
// "sonic10k" == "SONIC 10K".
std::string canon(const std::string& name) {
  std::string key;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return key;
}

// The four rungs, slowest first. Built once and never modified, so lookups
// need no lock.
const std::vector<OfdmProfile>& table() {
  static const std::vector<OfdmProfile> rungs = {make_robust2k(), make_audible7k(),
                                                 make_sonic10k(), make_cable64k()};
  return rungs;
}

}  // namespace

std::optional<OfdmProfile> get(const std::string& name) {
  const std::string key = canon(name);
  for (const OfdmProfile& p : table()) {
    if (canon(p.name) == key) return p;
  }
  return std::nullopt;
}

std::vector<std::string> names() {
  std::vector<std::string> out;
  for (const OfdmProfile& p : table()) out.push_back(p.name);
  return out;
}

std::vector<OfdmProfile> all() { return table(); }

}  // namespace profiles

}  // namespace sonic::modem
