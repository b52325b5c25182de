#include "modem/ofdm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "dsp/carrier_math.hpp"
#include "dsp/complex_divide.hpp"
#include "dsp/fft.hpp"
#include "modem/stream_receiver.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace sonic::modem {
namespace {

constexpr std::uint16_t kMagic = 0x534e;  // "SN"
constexpr std::size_t kHeaderBits = (8 * 8 + 6) * 2;  // 8 bytes + v27 flush, rate 1/2
constexpr std::uint64_t kPrbsSeed = 0x50494c4f54ull;  // "PILOT"

// PRBS QPSK points shared by transmitter and receiver.
std::vector<cplx> prbs_qpsk(std::size_t n, std::uint64_t stream) {
  sonic::util::Rng rng(kPrbsSeed ^ stream * 0x9e3779b97f4a7c15ull);
  std::vector<cplx> out(n);
  const float a = 1.0f / std::sqrt(2.0f);
  for (auto& v : out) {
    v = cplx(rng.bernoulli(0.5) ? a : -a, rng.bernoulli(0.5) ? a : -a);
  }
  return out;
}

// receive_all's chunk size: one second at 44.1 kHz. The receiver then
// buffers about one chunk, not the recording, and receive_one stops after
// the chunk that completes its burst.
constexpr std::size_t kRecordingChunkSamples = 44100;

// Feeds `samples` through a StreamReceiver until at least `want` bursts are
// out, flushing at the end of the recording.
std::vector<RxBurst> receive_bursts(const OfdmModem& modem, std::span<const float> samples,
                                    std::size_t want) {
  StreamReceiver rx(modem);
  std::vector<RxBurst> bursts;
  auto take = [&](std::vector<RxBurst>&& got) {
    for (auto& b : got) bursts.push_back(std::move(b));
  };
  for (std::size_t pos = 0; pos < samples.size() && bursts.size() < want;
       pos += kRecordingChunkSamples) {
    take(rx.push(samples.subspan(pos, std::min(kRecordingChunkSamples, samples.size() - pos))));
  }
  if (bursts.size() < want) take(rx.flush());
  return bursts;
}

}  // namespace

std::size_t RxBurst::frames_ok() const {
  std::size_t n = 0;
  for (const auto& f : frames) n += f.has_value();
  return n;
}

double RxBurst::frame_loss_rate() const {
  if (frames.empty()) return 0.0;
  return 1.0 - static_cast<double>(frames_ok()) / static_cast<double>(frames.size());
}

OfdmModem::OfdmModem(OfdmProfile profile)
    : profile_(std::move(profile)),
      qam_(profile_.constellation),
      payload_codec_(PacketSpec{profile_.conv, profile_.rs_nroots}),
      header_codec_({fec::ConvCode::kV27, fec::PunctureRate::kRate1_2}) {
  const int n = profile_.num_subcarriers;
  if (profile_.first_bin() < 1 || profile_.first_bin() + n >= profile_.fft_size / 2)
    throw std::invalid_argument("subcarriers do not fit below Nyquist");
  fft_plan_ = dsp::FftPlan::get(static_cast<std::size_t>(profile_.fft_size));
  half_plan_ = dsp::FftPlan::get(static_cast<std::size_t>(profile_.fft_size / 2));
  spec_.resize(static_cast<std::size_t>(profile_.fft_size));
  packed_.resize(static_cast<std::size_t>(profile_.fft_size / 2));
  carriers_.resize(static_cast<std::size_t>(n));

  // Preamble A: PRBS QPSK on even absolute FFT bins only -> time-domain
  // signal periodic with fft_size/2 (Schmidl&Cox detectable). sqrt(2)
  // boost keeps its symbol energy equal to regular symbols.
  const auto prbs_a = prbs_qpsk(static_cast<std::size_t>(n), 1);
  preamble_a_.assign(static_cast<std::size_t>(n), cplx(0, 0));
  for (int i = 0; i < n; ++i) {
    const int abs_bin = profile_.first_bin() + i;
    if (abs_bin % 2 == 0) preamble_a_[static_cast<std::size_t>(i)] = prbs_a[static_cast<std::size_t>(i)] * std::sqrt(2.0f);
  }
  preamble_b_ = prbs_qpsk(static_cast<std::size_t>(n), 2);

  const auto pilot_vals = prbs_qpsk(static_cast<std::size_t>(n), 3);
  pilots_.assign(static_cast<std::size_t>(n), cplx(0, 0));
  for (int i = 0; i < n; ++i) {
    if (is_pilot(i)) {
      // BPSK pilots (real axis) at pilot positions.
      pilots_[static_cast<std::size_t>(i)] = cplx(pilot_vals[static_cast<std::size_t>(i)].real() > 0 ? 1.0f : -1.0f, 0.0f);
      pilot_at_.push_back(static_cast<std::size_t>(i));
      pilot_values_.push_back(pilots_[static_cast<std::size_t>(i)]);
    }
  }
  pilot_eq_.resize(pilot_at_.size());
  pilot_q_.resize(pilot_at_.size());
  pilot_mag_.resize(pilot_at_.size());

  // Time-domain gain: with K unit-energy carriers (hermitian-doubled), the
  // post-IFFT RMS is sqrt(2K)/N; scale to the profile's amplitude target.
  tx_gain_ = profile_.amplitude * static_cast<float>(profile_.fft_size) /
             std::sqrt(2.0f * static_cast<float>(n));

  split_twiddle_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double angle = -sonic::util::kTwoPi * (profile_.first_bin() + i) / profile_.fft_size;
    // -i W / 2 = (sin, -cos) / 2 for W = (cos, sin).
    split_twiddle_[static_cast<std::size_t>(i)] =
        cplx(static_cast<float>(0.5 * std::sin(angle) / tx_gain_),
             static_cast<float>(-0.5 * std::cos(angle) / tx_gain_));
  }

  synth_symbol(preamble_b_, template_b_);
}

bool OfdmModem::is_pilot(int rel_idx) const {
  return profile_.pilot_spacing > 0 && rel_idx % profile_.pilot_spacing == 0;
}

std::size_t OfdmModem::header_symbols() const {
  return (kHeaderBits + static_cast<std::size_t>(profile_.data_carriers()) - 1) /
         static_cast<std::size_t>(profile_.data_carriers());
}

std::size_t OfdmModem::payload_symbols(std::size_t frame_len, std::size_t frame_count) const {
  const std::size_t bits = payload_codec_.encoded_bits(frame_len) * frame_count;
  const std::size_t per_symbol =
      static_cast<std::size_t>(profile_.data_carriers()) * static_cast<std::size_t>(qam_.bits_per_symbol());
  return (bits + per_symbol - 1) / per_symbol;
}

std::size_t OfdmModem::burst_samples(std::size_t frame_len, std::size_t frame_count) const {
  const std::size_t symbols = 2 + header_symbols() + payload_symbols(frame_len, frame_count) + 1;
  return symbols * static_cast<std::size_t>(symbol_len());
}

void OfdmModem::synth_symbol(std::span<const cplx> carriers, std::vector<float>& out) const {
  const int N = profile_.fft_size;
  std::fill(spec_.begin(), spec_.end(), dsp::cplx(0, 0));
  for (int i = 0; i < profile_.num_subcarriers; ++i) {
    const int b = profile_.first_bin() + i;
    const cplx v = carriers[static_cast<std::size_t>(i)];
    spec_[static_cast<std::size_t>(b)] = v;
    spec_[static_cast<std::size_t>(N - b)] = std::conj(v);
  }
  fft_plan_->inverse(spec_);
  out.resize(static_cast<std::size_t>(N + profile_.cp_len));
  for (int i = 0; i < N; ++i) {
    out[static_cast<std::size_t>(profile_.cp_len + i)] = spec_[static_cast<std::size_t>(i)].real() * tx_gain_;
  }
  for (int i = 0; i < profile_.cp_len; ++i) {
    out[static_cast<std::size_t>(i)] = out[static_cast<std::size_t>(N + i)];
  }
}

std::span<const cplx> OfdmModem::analyze_symbol(std::span<const float> samples, std::size_t pos) const {
  const std::size_t half = packed_.size();
  // Whole windows stay in range in steady state; the per-sample bound only
  // matters for the final (truncated) window, so hoist it out of the loop.
  // Samples past the end read as zeros, so an odd count in range leaves a
  // zero imaginary part in its last pair.
  const std::size_t avail = pos < samples.size() ? samples.size() - pos : 0;
  const std::size_t in_range = std::min(avail, 2 * half);
  const float* src = samples.data() + pos;
  for (std::size_t i = 0; i < in_range / 2; ++i) packed_[i] = dsp::cplx(src[2 * i], src[2 * i + 1]);
  std::size_t filled = in_range / 2;
  if (in_range % 2 == 1) packed_[filled++] = dsp::cplx(src[in_range - 1], 0.0f);
  std::fill(packed_.begin() + static_cast<long>(filled), packed_.end(), dsp::cplx(0, 0));
  half_plan_->forward(packed_);

  // Z[k] holds E[k] + i O[k], the spectra of the even and odd samples, and
  // Z*[N/2 - k] holds E[k] - i O[k]; X[k] = E[k] + W_N^k O[k].
  dsp::split_bins(packed_, static_cast<std::size_t>(profile_.first_bin()), 0.5f / tx_gain_, split_twiddle_, carriers_);
  return carriers_;
}

void OfdmModem::synth_head(std::size_t frame_len, std::size_t frame_count,
                           std::vector<float>& out) const {
  util::ByteWriter hw;
  hw.u16(kMagic);
  hw.u16(static_cast<std::uint16_t>(frame_len));
  hw.u16(static_cast<std::uint16_t>(frame_count));
  hw.u16(crc16_ccitt(hw.bytes()));
  const util::Bytes header_coded = header_codec_.encode(hw.bytes());

  std::vector<float> sym;
  auto emit = [&](std::span<const cplx> carriers) {
    synth_symbol(carriers, sym);
    out.insert(out.end(), sym.begin(), sym.end());
  };
  emit(preamble_a_);
  emit(preamble_b_);

  // Header symbols: BPSK on data carriers, pilots in place.
  const auto prbs = scrambler_sequence();
  std::size_t sent = 0;
  std::vector<cplx> carriers = pilots_;
  for (std::size_t s = 0; s < header_symbols(); ++s) {
    for (int i = 0; i < profile_.num_subcarriers; ++i) {
      if (is_pilot(i)) continue;
      // Whitened like the payload: the fixed header pattern must not form
      // a high-crest OFDM symbol.
      const int bit = (sent < kHeaderBits ? (header_coded[sent / 8] >> (7 - sent % 8)) & 1 : 0) ^ prbs[sent % prbs.size()];
      ++sent;
      carriers[static_cast<std::size_t>(i)] = cplx(bit ? 1.0f : -1.0f, 0.0f);
    }
    emit(carriers);
  }
}

std::vector<float> OfdmModem::modulate(const std::vector<util::Bytes>& frames) const {
  if (frames.empty()) throw std::invalid_argument("empty burst");
  const std::size_t frame_len = frames.front().size();
  for (const auto& f : frames) {
    if (f.size() != frame_len) throw std::invalid_argument("frames must be equal-sized");
  }
  // Receivers reject headers claiming more (decode_header), so never send it.
  if (frame_len == 0 || frame_len > kMaxFrameBytes || frames.size() > 0xffff)
    throw std::invalid_argument("frame size/count out of range");
  if (burst_samples(frame_len, frames.size()) > kMaxBurstSamples)
    throw std::invalid_argument("burst longer than OfdmModem::kMaxBurstSamples");

  // Payload bit stream: the frames' PacketCodec output (MSB first) back to
  // back, frame f from bit f * frame_bits, then zeros to fill the last
  // symbol; two bytes past the last symbol's bits let each QAM label be
  // read as one three-byte window.
  const int qbits = qam_.bits_per_symbol();
  const std::size_t nsym = payload_symbols(frame_len, frames.size());
  const std::size_t frame_bits = payload_codec_.encoded_bits(frame_len);
  util::Bytes stream((nsym * static_cast<std::size_t>(profile_.data_carriers() * qbits) + 7) / 8 + 2);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const util::Bytes coded = payload_codec_.encode(frames[f]);
    const std::size_t shift = f * frame_bits % 8;
    std::uint8_t* dst = stream.data() + f * frame_bits / 8;
    for (std::size_t j = 0; j < coded.size(); ++j) {
      dst[j] = static_cast<std::uint8_t>(dst[j] | coded[j] >> shift);
      dst[j + 1] = static_cast<std::uint8_t>(dst[j + 1] | coded[j] << (8 - shift));
    }
  }
  std::size_t pos = 0;
  auto next_label = [&]() -> std::uint32_t {
    const std::uint8_t* p = stream.data() + pos / 8;
    const std::uint32_t window = static_cast<std::uint32_t>(p[0] << 16 | p[1] << 8 | p[2]);
    const std::uint32_t label = window >> (24 - pos % 8 - static_cast<std::size_t>(qbits)) & ((1u << qbits) - 1);
    pos += static_cast<std::size_t>(qbits);
    return label;
  };

  std::vector<float> out;
  out.reserve(burst_samples(frame_len, frames.size()));
  std::vector<float> sym;
  auto emit = [&](std::span<const cplx> carriers) {
    synth_symbol(carriers, sym);
    out.insert(out.end(), sym.begin(), sym.end());
  };

  synth_head(frame_len, frames.size(), out);

  // Payload symbols: one carriers buffer, pilots in place, data carriers
  // rewritten per symbol.
  {
    std::vector<cplx> carriers = pilots_;
    for (std::size_t s = 0; s < nsym; ++s) {
      for (int i = 0; i < profile_.num_subcarriers; ++i) {
        if (is_pilot(i)) continue;
        carriers[static_cast<std::size_t>(i)] = qam_.map(next_label());
      }
      emit(carriers);
    }
  }

  // Inter-burst gap.
  out.insert(out.end(), static_cast<std::size_t>(symbol_len()), 0.0f);
  return out;
}

std::size_t OfdmModem::min_decode_samples() const {
  return (2 + header_symbols()) * static_cast<std::size_t>(symbol_len()) +
         static_cast<std::size_t>(profile_.fft_size);
}

std::size_t OfdmModem::window_pos(std::size_t start, std::size_t symbol_index) const {
  // Sample the FFT window slightly inside the CP to tolerate timing error.
  // The channel estimate sees the same early-sampling phase ramp, so
  // equalization removes it.
  const std::size_t cp = static_cast<std::size_t>(profile_.cp_len);
  return start + symbol_index * static_cast<std::size_t>(symbol_len()) + cp -
         std::min<std::size_t>(cp / 4, 8);
}

std::optional<OfdmModem::Header> OfdmModem::decode_header(std::span<const float> samples,
                                                          std::size_t start,
                                                          std::vector<cplx>& h_smooth) const {
  const int n = profile_.num_subcarriers;
  if (window_pos(start, 2) + static_cast<std::size_t>(profile_.fft_size) > samples.size()) return std::nullopt;

  // Channel estimate from preamble B.
  const auto yb = analyze_symbol(samples, window_pos(start, 1));
  auto& h = h_;
  h.resize(static_cast<std::size_t>(n));
  dsp::divide(yb, preamble_b_, h);
  // Smooth H across 3 neighbours and estimate noise from the residual.
  h_smooth.resize(h.size());
  for (int i = 0; i < n; ++i) {
    cplx acc(0, 0);
    int cnt = 0;
    for (int k = std::max(0, i - 1); k <= std::min(n - 1, i + 1); ++k) {
      acc += h[static_cast<std::size_t>(k)];
      ++cnt;
    }
    h_smooth[static_cast<std::size_t>(i)] = acc / static_cast<float>(cnt);
  }
  float noise_var = 0.0f;
  float sig_pow = 0.0f;
  for (int i = 0; i < n; ++i) {
    noise_var += std::norm(h[static_cast<std::size_t>(i)] - h_smooth[static_cast<std::size_t>(i)]);
    sig_pow += std::norm(h_smooth[static_cast<std::size_t>(i)]);
  }
  noise_var = std::max(noise_var / static_cast<float>(n), 1e-7f);
  sig_pow /= static_cast<float>(n);
  for (int i = 0; i < n; ++i) {
    if (std::norm(h_smooth[static_cast<std::size_t>(i)]) < 1e-9f) h_smooth[static_cast<std::size_t>(i)] = cplx(1e-4f, 0);
  }

  Header header;
  header.noise = noise_var / std::max(sig_pow, 1e-9f);  // normalized post-eq noise
  header_soft_.clear();
  const std::size_t hdr_syms = header_symbols();
  if (window_pos(start, 2 + hdr_syms) > samples.size()) return std::nullopt;
  for (std::size_t s = 0; s < hdr_syms; ++s) {
    const auto soft = demod_symbol(samples, window_pos(start, 2 + s), true, h_smooth, header.noise);
    header_soft_.insert(header_soft_.end(), soft.begin(), soft.end());
  }
  if (header_soft_.size() < kHeaderBits) return std::nullopt;
  // De-scrambled and quantized by the table place_soft uses (with no
  // interleaver).
  const auto prbs = scrambler_sequence();
  const auto& quantize = fec::LlrQuantizer::get();
  std::array<std::uint8_t, kHeaderBits> coded;
  for (std::size_t i = 0; i < kHeaderBits; ++i) coded[i] = quantize(header_soft_[i], prbs[i]);
  const util::Bytes hdr = header_codec_.decode_soft(coded, 8);
  util::ByteReader hr(hdr);
  const std::uint16_t magic = hr.u16();
  header.frame_len = hr.u16();
  header.frame_count = hr.u16();
  const std::uint16_t hcrc = hr.u16();
  // The header is off the air: a corrupted one that passes the magic and
  // CRC16 can claim up to 65535 frames of 65535 bytes. Everything after it
  // allocates and decodes in proportion to the claim (one frame's soft bits
  // and Viterbi decisions, the whole burst's length), so bound both before
  // trusting it.
  if (magic != kMagic || crc16_ccitt(std::span(hdr).subspan(0, 6)) != hcrc ||
      header.frame_len == 0 || header.frame_len > kMaxFrameBytes || header.frame_count == 0) {
    return std::nullopt;
  }
  if (burst_samples(header.frame_len, header.frame_count) > kMaxBurstSamples) return std::nullopt;
  return header;
}

OfdmModem::PhaseFit OfdmModem::fit_pilot_phase(std::span<const cplx> eq) const {
  // Pilot linear-phase fit: theta(i) ~ a + b*i.
  const std::size_t np = pilot_at_.size();
  for (std::size_t k = 0; k < np; ++k) pilot_eq_[k] = eq[pilot_at_[k]];
  dsp::divide(pilot_eq_, pilot_values_, pilot_q_);
  dsp::magnitudes(pilot_q_, pilot_mag_);
  double sum_k = 0, sum_k2 = 0, sum_th = 0, sum_kth = 0;
  double prev_th = 0;
  double amp_acc = 0;
  for (std::size_t k = 0; k < np; ++k) {
    const int i = static_cast<int>(pilot_at_[k]);
    double th = std::arg(pilot_q_[k]);
    if (k > 0) {
      while (th - prev_th > sonic::util::kPi) th -= sonic::util::kTwoPi;
      while (th - prev_th < -sonic::util::kPi) th += sonic::util::kTwoPi;
    }
    prev_th = th;
    amp_acc += pilot_mag_[k];
    sum_k += i;
    sum_k2 += static_cast<double>(i) * i;
    sum_th += th;
    sum_kth += static_cast<double>(i) * th;
  }
  PhaseFit fit;
  if (np >= 2) {
    const double n = static_cast<double>(np);
    const double det = n * sum_k2 - sum_k * sum_k;
    if (std::fabs(det) > 1e-9) {
      fit.b = (n * sum_kth - sum_k * sum_th) / det;
      fit.a = (sum_th - fit.b * sum_k) / n;
    }
    fit.amp = std::max(amp_acc / n, 1e-6);
  }
  return fit;
}

std::span<const float> OfdmModem::demod_symbol(std::span<const float> samples, std::size_t pos, bool bpsk,
                                               std::span<const cplx> h, float& noise) const {
  const int n = profile_.num_subcarriers;
  const auto y = analyze_symbol(samples, pos);
  auto& eq = eq_;
  eq.resize(static_cast<std::size_t>(n));
  dsp::divide(y, h, eq);
  const PhaseFit fit = fit_pilot_phase(eq);
  // Apply the correction in place. Pilots give the residual noise, summed
  // in carrier order; the data carriers between them move down to the
  // front of eq, in order (to slot nd <= their own).
  dsp::derotate(eq, fit.a, fit.b, fit.amp, eq);
  float pilot_noise = 0;
  std::size_t nd = 0, from = 0;
  auto pack_data = [&](std::size_t to) {
    if (nd != from) std::copy(eq.data() + from, eq.data() + to, eq.data() + nd);
    nd += to - from;
  };
  for (const std::size_t p : pilot_at_) {
    pack_data(p);
    pilot_noise += std::norm(eq[p] - pilots_[p]);
    from = p + 1;
  }
  pack_data(eq.size());
  // Soft bits of the whole symbol, demapped with the noise from before this
  // symbol's pilots.
  const std::size_t qbits = bpsk ? 1 : static_cast<std::size_t>(qam_.bits_per_symbol());
  soft_.resize(nd * qbits);
  if (bpsk) {
    const float sigma2 = std::max(noise * 0.5f, 1e-7f);
    for (std::size_t k = 0; k < nd; ++k) soft_[k] = 2.0f * eq[k].real() / sigma2;
  } else {
    qam_.demap_soft(std::span<const cplx>(eq.data(), nd), noise, soft_);
  }
  if (!pilot_at_.empty()) {
    const float obs = pilot_noise / static_cast<float>(pilot_at_.size());
    noise = 0.7f * noise + 0.3f * std::max(obs, 1e-7f);
  }
  return soft_;
}

std::vector<RxBurst> OfdmModem::receive_all(std::span<const float> samples) const {
  return receive_bursts(*this, samples, std::numeric_limits<std::size_t>::max());
}

std::optional<RxBurst> OfdmModem::receive_one(std::span<const float> samples) const {
  auto bursts = receive_bursts(*this, samples, 1);
  if (bursts.empty()) return std::nullopt;
  return std::move(bursts.front());
}

}  // namespace sonic::modem
