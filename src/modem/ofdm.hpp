// OFDM data-over-sound modem (the Quiet-library equivalent).
//
// Burst layout, in units of one OFDM symbol (fft_size + cp_len samples):
//
//   [preamble A][preamble B][header ...][payload ...][gap]
//
// * preamble A — PRBS QPSK on even FFT bins only, making the time waveform
//   periodic with period fft_size/2; the receiver detects it with a
//   Schmidl&Cox autocorrelation metric.
// * preamble B — PRBS QPSK on every used bin; per-bin channel estimation
//   and fine timing via cross-correlation.
// * header — 8 bytes (magic, frame_len, frame_count, crc16), BPSK,
//   v27 rate-1/2 coded: decodable far below the payload's SNR threshold.
// * payload — frame_count frames of frame_len bytes, each independently
//   CRC32 + RS + conv coded (PacketCodec), bit-interleaved, QAM-mapped
//   across the data subcarriers. Pilot subcarriers carry fixed PRBS BPSK
//   for per-symbol phase/timing tracking.
//
// Losing one OFDM symbol therefore corrupts only the frames that overlap
// it — the per-frame loss behaviour the paper's transport relies on (§3.3).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dsp/fft.hpp"
#include "fec/llr_quantizer.hpp"
#include "modem/packet.hpp"
#include "modem/profile.hpp"
#include "util/bytes.hpp"

namespace sonic::modem {

// One decoded burst, emitted by StreamReceiver when the burst ends. frames[i]
// is nullopt when that frame failed FEC+CRC.
struct RxBurst {
  std::vector<std::optional<util::Bytes>> frames;
  std::size_t start_sample = 0;  // first sample of the burst in the input
  std::size_t end_sample = 0;    // one past the last sample consumed
  float snr_db = 0.0f;           // pilot-based post-equalization SNR
  float sync_ncc = 0.0f;         // fine-timing normalized cross-correlation
  // The stream ended before the burst did: end_sample is the end of the
  // stream, the frame in progress decoded with the symbols that never
  // arrived as erasures, and the frames after it lost.
  bool truncated = false;

  std::size_t frames_ok() const;
  double frame_loss_rate() const;
};

// Not safe for concurrent use of one instance: the per-symbol FFT and
// demodulation paths run on reusable member scratch (allocation-free in
// steady state — the feature-phone CPU budget, paper §5). Give each thread
// its own OfdmModem; construction from the same profile is cheap because
// the FFT plan itself is shared through dsp::FftPlan's cache. The scratch
// holds nothing between calls: the state of a burst being received lives
// in its StreamReceiver, so several receivers on one thread may share a
// modem.
class OfdmModem {
 public:
  // Longest burst, in samples, a modem sends or accepts (~47.5 s at
  // 44.1 kHz; SONIC's 16-frame bursts take about 2 s). The receiver rejects
  // headers that claim more: a corrupted header that passes the magic and
  // CRC16 could otherwise claim 65535 frames of 65535 bytes, holding the
  // receiver's sync for hours of audio. modulate throws for longer bursts.
  static constexpr std::size_t kMaxBurstSamples = std::size_t{1} << 21;
  // Longest frame, in bytes, a modem sends or accepts: the smallest power of
  // two that holds every frame the system and its tests send (SONIC's are
  // 100 bytes, the largest test frames 4000). A forged header claiming one
  // 65535-byte frame would otherwise fit kMaxBurstSamples yet size the
  // Viterbi decoder's decision block, kept per thread, at 18 MB. The
  // receiver rejects longer claims and modulate throws for longer frames.
  static constexpr std::size_t kMaxFrameBytes = 4096;

  explicit OfdmModem(OfdmProfile profile);

  const OfdmProfile& profile() const { return profile_; }

  // Modulates a burst of equal-sized frames into audio samples in [-1, 1].
  std::vector<float> modulate(const std::vector<util::Bytes>& frames) const;

  // Decodes every burst in a finished recording: a StreamReceiver fed
  // `samples` in one-second chunks, then flushed, so a failed burst costs
  // only itself and the receiver resyncs on the next preamble. Sample
  // indices in the result are offsets into `samples`.
  std::vector<RxBurst> receive_all(std::span<const float> samples) const;

  // The first burst receive_all(samples) would return, without decoding the
  // audio after it.
  std::optional<RxBurst> receive_one(std::span<const float> samples) const;

  // Samples needed past a burst's start to decode its header and learn the
  // burst's full length (preambles + header symbols + one FFT window).
  std::size_t min_decode_samples() const;

  // Samples occupied by a burst of `frame_count` frames of `frame_len` bytes.
  std::size_t burst_samples(std::size_t frame_len, std::size_t frame_count) const;

  // Time-domain preamble B (with CP): the fine-timing correlation template.
  std::span<const float> preamble_b_template() const { return template_b_; }

 private:
  friend class StreamReceiver;    // drives decode_header and demod_symbol
  friend struct OfdmKernelProbe;  // tests/bench: per-symbol kernel access

  struct Header {
    std::size_t frame_len = 0;
    std::size_t frame_count = 0;
    float noise = 0.0f;  // normalized post-equalization noise, updated per symbol
  };

  int symbol_len() const { return profile_.fft_size + profile_.cp_len; }
  bool is_pilot(int rel_idx) const;
  std::size_t header_symbols() const;
  std::size_t payload_symbols(std::size_t frame_len, std::size_t frame_count) const;

  // Appends the preambles and the header symbols announcing `frame_count`
  // frames of `frame_len` bytes to `out`.
  void synth_head(std::size_t frame_len, std::size_t frame_count, std::vector<float>& out) const;
  // Synthesizes one OFDM symbol (CP + body) from per-subcarrier values
  // indexed relative to first_bin. `out` keeps its capacity across calls, so
  // the steady-state path allocates nothing.
  void synth_symbol(std::span<const cplx> carriers, std::vector<float>& out) const;
  // Used bins of the FFT of one symbol body at `pos`, computed from one
  // fft_size/2-point complex FFT of the even and odd samples packed as
  // z[n] = x[2n] + i x[2n+1]; the returned span points into member scratch
  // and is valid until the next analyze_symbol call.
  std::span<const cplx> analyze_symbol(std::span<const float> samples, std::size_t pos) const;
  // First sample of the FFT window of symbol `symbol_index` of the burst at
  // `start`.
  std::size_t window_pos(std::size_t start, std::size_t symbol_index) const;
  // Estimates the channel from preamble B (into `h_smooth`) and decodes the
  // header of the burst at `start`; nullopt when it is missing, corrupt or
  // claims more than kMaxFrameBytes per frame or kMaxBurstSamples in all.
  std::optional<Header> decode_header(std::span<const float> samples, std::size_t start,
                                      std::vector<cplx>& h_smooth) const;
  // Equalizes the symbol whose FFT window starts at `pos` by the channel
  // estimate `h`, fits the pilot phase, updates `noise` from the pilot
  // residual and returns the symbol's soft bits as max-log LLRs,
  // ln(P(bit == 1) / P(bit == 0)), in member scratch valid until the next
  // call.
  std::span<const float> demod_symbol(std::span<const float> samples, std::size_t pos, bool bpsk,
                                      std::span<const cplx> h, float& noise) const;
  // The least-squares line theta(i) = a + b * i through the unwrapped
  // phases of the pilots' equalized values eq[i] / pilot, and their mean
  // magnitude (at least 1e-6); a = b = 0 and amp = 1 with fewer than two
  // pilots.
  struct PhaseFit {
    double a = 0.0, b = 0.0, amp = 1.0;
  };
  PhaseFit fit_pilot_phase(std::span<const cplx> eq) const;

  OfdmProfile profile_;
  QamMapper qam_;
  PacketCodec payload_codec_;
  fec::ConvolutionalCodec header_codec_;
  std::shared_ptr<const dsp::FftPlan> fft_plan_;
  std::shared_ptr<const dsp::FftPlan> half_plan_;  // fft_size / 2 points
  // analyze_symbol's split of used bin first_bin + i:
  // X = (Z[k] + Z*[N/2 - k]) / 2 - i W_N^k (Z[k] - Z*[N/2 - k]) / 2, with
  // W_N^k = exp(-2 pi i k / N); the ratios hold -i W_N^k / 2 and both
  // halves carry the 1 / tx_gain_ receive scale.
  std::vector<cplx> split_twiddle_;
  std::vector<cplx> preamble_a_;  // per-used-bin values (zeros on odd bins)
  std::vector<cplx> preamble_b_;
  std::vector<cplx> pilots_;      // fixed pilot values (zero on data bins)
  std::vector<std::size_t> pilot_at_;  // the pilot bins, ascending
  std::vector<cplx> pilot_values_;     // their values
  std::vector<float> template_b_;  // time-domain preamble B (with CP)
  float tx_gain_;

  // Per-call scratch, reused across calls (see the class comment on thread
  // safety). spec_ holds synth_symbol's FFT-size working buffer, packed_
  // analyze_symbol's half-size one, carriers_ the used-bin view
  // analyze_symbol returns, h_ decode_header's raw channel estimate and
  // header_soft_ its LLRs (as received, before de-scrambling), eq_
  // demod_symbol's equalized bins and soft_ the LLRs it returns; pilot_eq_,
  // pilot_q_ and pilot_mag_ hold fit_pilot_phase's gathered pilot bins,
  // their quotients by the pilot values and those quotients' magnitudes.
  mutable std::vector<dsp::cplx> spec_;
  mutable std::vector<dsp::cplx> packed_;
  mutable std::vector<cplx> carriers_;
  mutable std::vector<cplx> h_, eq_;
  mutable std::vector<float> header_soft_, soft_;
  mutable std::vector<cplx> pilot_eq_, pilot_q_;
  mutable std::vector<float> pilot_mag_;
};

// Test/bench peephole into the private per-symbol kernels. The kernel tests
// use it to verify the steady-state analyze/synthesize path performs no heap
// allocation, to forge burst headers and to pin received soft bits;
// bench/micro_dsp_fec uses it for the per-symbol before/after cases.
struct OfdmKernelProbe {
  // Preambles plus a valid header (magic, CRC16) claiming any frame length
  // and count, with no payload behind it.
  static std::vector<float> burst_head(const OfdmModem& m, std::uint16_t frame_len,
                                       std::uint16_t frame_count) {
    std::vector<float> out;
    m.synth_head(frame_len, frame_count, out);
    return out;
  }
  static std::span<const cplx> analyze(const OfdmModem& m, std::span<const float> samples,
                                       std::size_t pos) {
    return m.analyze_symbol(samples, pos);
  }
  static void synthesize(const OfdmModem& m, std::span<const cplx> carriers,
                         std::vector<float>& out) {
    m.synth_symbol(carriers, out);
  }
  // The per-used-bin values the transmitter sends: the two preambles, and
  // the pilots (zero on data bins).
  static std::span<const cplx> preamble_a(const OfdmModem& m) { return m.preamble_a_; }
  static std::span<const cplx> preamble_b(const OfdmModem& m) { return m.preamble_b_; }
  static std::span<const cplx> pilots(const OfdmModem& m) { return m.pilots_; }
  // Decodes the header of the burst at `start`, its channel estimate into
  // h and its noise into noise, and returns the FFT window position of
  // each payload symbol; empty when the header does not decode.
  static std::vector<std::size_t> payload_windows(const OfdmModem& m, std::span<const float> samples,
                                                  std::size_t start, std::vector<cplx>& h, float& noise) {
    auto header = m.decode_header(samples, start, h);
    if (!header) return {};
    noise = header->noise;
    std::vector<std::size_t> pos(m.payload_symbols(header->frame_len, header->frame_count));
    for (std::size_t s = 0; s < pos.size(); ++s) pos[s] = m.window_pos(start, 2 + m.header_symbols() + s);
    return pos;
  }
  static std::span<const float> demod(const OfdmModem& m, std::span<const float> samples, std::size_t pos,
                                      bool bpsk, std::span<const cplx> h, float& noise) {
    return m.demod_symbol(samples, pos, bpsk, h, noise);
  }
  // demod's pilot phase fit of the equalized bins eq: {a, b, amp}.
  static std::array<double, 3> pilot_fit(const OfdmModem& m, std::span<const cplx> eq) {
    const auto fit = m.fit_pilot_phase(eq);
    return {fit.a, fit.b, fit.amp};
  }
  // The soft bits the receiver hands its decoders for the burst at `start`,
  // as probabilities P(bit == 1) (fec::llr_probability of each LLR): the
  // descrambled header bits (1 - p where the scrambler bit is set), then
  // every payload symbol's; empty when the header does not decode.
  static std::vector<float> soft_bits(const OfdmModem& m, std::span<const float> samples,
                                      std::size_t start) {
    std::vector<cplx> h;
    auto header = m.decode_header(samples, start, h);
    if (!header) return {};
    std::vector<float> soft = m.header_soft_;
    for (std::size_t i = 0; i < soft.size(); ++i) {
      const float p = fec::llr_probability(soft[i]);
      soft[i] = scrambler_sequence()[i] ? 1.0f - p : p;
    }
    const std::size_t first = 2 + m.header_symbols();
    for (std::size_t s = 0; s < m.payload_symbols(header->frame_len, header->frame_count); ++s) {
      const auto llrs = m.demod_symbol(samples, m.window_pos(start, first + s), false, h, header->noise);
      for (const float llr : llrs) soft.push_back(fec::llr_probability(llr));
    }
    return soft;
  }
};

}  // namespace sonic::modem
