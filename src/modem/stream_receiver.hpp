// Chunk-fed, stateful OFDM receive chain — the receiver half of the paper's
// deployment: a phone listening to an FM tuner for hours while the broadcast
// carousel loops. Audio arrives in arbitrary-sized chunks (a mic callback
// hands out ~20 ms at a time); the receiver
//
//   * keeps a ring buffer over the incoming audio with an absolute sample
//     index, evicting everything the sync and decode stages can no longer
//     reach, so memory stays bounded by `max_buffer_samples` no matter how
//     long the stream runs;
//   * runs the Schmidl & Cox preamble search incrementally — the running
//     correlation sums, plateau tracker, and scan position carry across
//     chunk boundaries, so a preamble split across two chunks is found
//     exactly where one chunk holding the whole recording would put it;
//   * decodes each burst once enough audio is buffered, via
//     OfdmModem::decode_burst — feeding the same audio in any chunking
//     yields byte-identical bursts;
//   * resyncs after a failed burst: a corrupted preamble or undecodable
//     header skips one symbol and resumes scanning, so one bad burst does
//     not desync the rest of a carousel pass.
//
// This is the modem's only receive path: OfdmModem::receive_all and
// receive_one feed a finished recording through it.
//
// Observability goes through the sonic::core::Metrics registry when one is
// provided: sync attempts/hits/resyncs, per-burst NCC and estimated SNR,
// frames ok/lost, and the buffered-samples high-water mark.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "modem/ofdm.hpp"
#include "util/metrics.hpp"

namespace sonic::modem {

struct StreamReceiverParams {
  // Hard cap on buffered audio. A burst longer than the cap is decoded with
  // what fits (the overflow decodes as erasures) rather than growing the
  // buffer. Must be at least 2x OfdmModem::min_decode_samples().
  // The default holds the longest burst a modem sends (kMaxBurstSamples,
  // ~47 s at 44.1 kHz, a few MB of floats).
  std::size_t max_buffer_samples = OfdmModem::kMaxBurstSamples;
  // Optional observability sink; must outlive the receiver.
  core::Metrics* metrics = nullptr;
};

class StreamReceiver {
 public:
  // `modem` must outlive the receiver.
  explicit StreamReceiver(const OfdmModem& modem, StreamReceiverParams params = {});

  // Feed one chunk of audio; returns every burst completed by it, with
  // start/end/needed expressed as absolute sample indices into the stream.
  std::vector<RxBurst> push(std::span<const float> chunk);

  // End of stream: resolve whatever is pending (truncated bursts decode
  // their missing symbols as erasures). After flush(), call reset() before
  // pushing again.
  std::vector<RxBurst> flush();

  // Forget the stream; the next push starts at absolute sample 0.
  void reset();

  std::size_t samples_pushed() const { return total_; }
  std::size_t samples_buffered() const { return buf_.size(); }
  std::size_t buffered_high_water() const { return high_water_; }

 private:
  enum class Step { kProgress, kStall, kDone };

  float at(std::size_t abs_index) const { return buf_[abs_index - base_]; }
  void advance(std::vector<RxBurst>& out, bool final_flush);
  Step scan(bool final_flush);
  Step fine_sync(bool final_flush);
  Step decode(std::vector<RxBurst>& out, bool final_flush);
  void restart_scan(std::size_t from);
  void evict();
  void enforce_cap(std::vector<RxBurst>& out);
  void count(const char* name, std::uint64_t n = 1);

  const OfdmModem& modem_;
  StreamReceiverParams params_;
  std::size_t sym_, fft_, half_, cp_;
  double tmpl_energy_ = 0.0;

  // Ring buffer: buf_[0] holds absolute sample index base_.
  std::vector<float> buf_;
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

  // Established burst sync awaiting decode.
  bool have_sync_ = false;
  std::size_t sync_start_ = 0;
  float sync_ncc_ = 0.0f;
  std::size_t pending_needed_ = 0;  // absolute; 0 until the header is decoded
};

}  // namespace sonic::modem
