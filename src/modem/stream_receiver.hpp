// Chunk-fed, stateful OFDM receive chain — the receiver half of the paper's
// deployment: a phone listening to an FM tuner for hours while the broadcast
// carousel loops. Audio arrives in arbitrary-sized chunks (a mic callback
// hands out ~20 ms at a time); the receiver
//
//   * keeps a buffer over the incoming audio with an absolute sample index,
//     evicting everything the sync and decode stages can no longer reach:
//     the preamble search window, or the header, or a few payload symbols —
//     never a whole burst, however long it is;
//   * runs the Schmidl & Cox preamble search incrementally — the running
//     correlation sums, plateau tracker, and scan position carry across
//     chunk boundaries, so a preamble split across two chunks is found
//     exactly where one chunk holding the whole recording would put it;
//   * decodes each burst in one forward pass through a per-burst cursor:
//     the header once (channel estimate, starting noise, frame geometry),
//     then each payload symbol as soon as its FFT window is buffered, and
//     each frame (Viterbi, RS, CRC32) as soon as its last soft bit is in
//     its buffer of one byte per coded bit (PacketCodec::place_soft).
//     Completed frames leave as one RxBurst when the burst ends. Feeding
//     the same audio in any chunking yields byte-identical bursts;
//   * resyncs after a failed burst: a corrupted preamble or undecodable
//     header skips one symbol and resumes scanning, so one bad burst does
//     not desync the rest of a carousel pass.
//
// The cursor lives here, not in the modem: receivers sharing one OfdmModem
// on one thread keep their bursts apart.
//
// This is the modem's only receive path: OfdmModem::receive_all and
// receive_one feed a finished recording through it.
//
// Observability goes through the sonic::core::Metrics registry when one is
// provided: sync attempts/hits/resyncs, the exact dots fine sync ran,
// per-burst NCC and estimated SNR,
// frames ok/lost, dropped samples, and the buffered-samples high-water mark.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "modem/ofdm.hpp"
#include "util/metrics.hpp"

namespace sonic::modem {

struct StreamReceiverParams {
  // Hard cap on buffered audio; 0 (the default) means 2x
  // OfdmModem::min_decode_samples(), the header's need, and an explicit cap
  // must be at least that. Between pushes the receiver holds at most about
  // that much (the preamble search window, the header, or the payload
  // symbol in progress), so a burst of any length decodes in full under the
  // minimum cap. Only an endless preamble plateau (a periodic tone) reaches
  // the cap; the oldest audio is then dropped and the scan restarts.
  std::size_t max_buffer_samples = 0;
  // Optional observability sink; must outlive the receiver.
  core::Metrics* metrics = nullptr;
};

// Fine timing's candidate pick: the normalized cross-correlation
// |x_c . w| / sqrt(E_c * tmpl_energy) of the template w = `tmpl` with each
// window x_c = x[c, c + tmpl.size()), c < `candidates` (x holds
// candidates - 1 + tmpl.size() samples). E_c is the window energy, summed
// in double at c = 0 and slid from there (the new square added, the old one
// taken away); E_c <= 1e-12 gives NCC 0. The pick is the first candidate
// with the largest NCC above 0, the exact NCC computed by a double dot.
//
// Only a few candidates take that dot. Every candidate is first scored by
// a float dot, four adjacent candidates per pass sharing each template
// load. A float dot of n products lies within gamma_n * sum |x_i w_i| of
// the true dot, gamma_n = n u / (1 - n u), u = 2^-24 (Higham, 2nd ed.,
// 3.1), and by Cauchy-Schwarz sum |x_i w_i| <= sqrt(E_true * E_w). So each
// float NCC gives an interval [lo, hi] that holds the exact scan's NCC,
// widened by 1e-9 for the double path's own roundings and by n * 2^-149
// for underflow. The slid E_c can cancel (a loud sample leaving a quiet
// window), so it may sit far below the window's true energy; a running
// bound err_c on |E_c - E_true| (each slide adds its two roundings) widens
// the interval by sqrt(1 + err_c / E_c). The double dot then runs, in index
// order under strict >, only where hi reaches the largest lo: every other
// candidate is strictly below the winner, so the pick and its NCC are those
// of the all-exact scan (oracles::fine_sync_reference), bit for bit.
struct FineSyncPick {
  long index = -1;             // the winning candidate; -1 if no NCC is above 0
  double ncc = 0.0;            // its NCC
  std::size_t exact_dots = 0;  // candidates that took the double dot
};
FineSyncPick pick_fine_sync(std::span<const float> x, std::span<const float> tmpl, double tmpl_energy,
                            std::size_t candidates);

class StreamReceiver {
 public:
  // `modem` must outlive the receiver.
  explicit StreamReceiver(const OfdmModem& modem, StreamReceiverParams params = {});

  // Feed one chunk of audio; returns every burst completed by it, with
  // start/end expressed as absolute sample indices into the stream.
  std::vector<RxBurst> push(std::span<const float> chunk);

  // End of stream: resolve whatever is pending (a truncated burst decodes
  // its frame in progress with the missing symbols as erasures; the frames
  // after it are lost). After flush(), call reset() before pushing again.
  std::vector<RxBurst> flush();

  // Forget the stream; the next push starts at absolute sample 0.
  void reset();

  std::size_t samples_pushed() const { return total_; }
  std::size_t samples_buffered() const { return buf_.size() - head_; }
  std::size_t buffered_high_water() const { return high_water_; }

 private:
  enum class Step { kProgress, kStall, kDone };

  float at(std::size_t abs_index) const { return buf_[head_ + (abs_index - base_)]; }
  // The buffered samples; live()[0] is absolute sample base_.
  std::span<const float> live() const { return std::span<const float>(buf_).subspan(head_); }
  // Forgets the oldest n buffered samples.
  void drop_front(std::size_t n);
  void advance(std::vector<RxBurst>& out, bool final_flush);
  Step scan(bool final_flush);
  Step fine_sync(bool final_flush);
  Step decode(std::vector<RxBurst>& out, bool final_flush);
  void place_symbol(std::span<const float> soft);
  void decode_frame();
  void emit(std::vector<RxBurst>& out);
  void restart_scan(std::size_t from);
  void evict();
  void enforce_cap();
  void count(const char* name, std::uint64_t n = 1);

  const OfdmModem& modem_;
  StreamReceiverParams params_;
  std::size_t sym_, fft_, half_, cp_;
  double tmpl_energy_ = 0.0;

  // Buffered audio: buf_[head_] holds absolute sample index base_, and the
  // dead prefix before it is compacted away once it outgrows the rest.
  std::vector<float> buf_;
  std::size_t head_ = 0;
  std::size_t base_ = 0;
  std::size_t total_ = 0;
  std::size_t high_water_ = 0;
  bool flushed_ = false;

  // Incremental Schmidl & Cox state.
  std::size_t scan_from_ = 0;
  bool seeded_ = false;
  double p_ = 0.0, r_ = 0.0;
  std::size_t d_ = 0;
  bool in_plateau_ = false;
  double best_metric_ = 0.0;
  std::size_t best_d_ = 0;
  std::size_t plateau_end_guard_ = 0;
  bool coarse_ready_ = false;

  // Established burst sync and its decode cursor.
  bool have_sync_ = false;
  std::size_t sync_start_ = 0;
  float sync_ncc_ = 0.0f;
  // Frame geometry, and the noise each payload symbol updates; empty until
  // the header is decoded.
  std::optional<OfdmModem::Header> header_;
  std::size_t frame_bits_ = 0;       // coded bits per frame
  std::size_t burst_end_ = 0;        // absolute, gap symbol included
  std::size_t payload_symbols_ = 0;
  std::size_t next_symbol_ = 0;      // next payload symbol to demodulate
  std::vector<cplx> h_;              // channel estimate from preamble B
  // The frame in progress as place_soft leaves it; frame_fill_ bits are in.
  std::vector<std::uint8_t> frame_soft_;
  std::size_t frame_fill_ = 0;
  std::vector<std::optional<util::Bytes>> frames_;  // decoded so far
};

}  // namespace sonic::modem
