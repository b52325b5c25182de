#include "modem/stream_receiver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/lanes.hpp"

namespace sonic::modem {
namespace {

using V2d = util::Lanes4::D;
using V4f = util::Lanes4::F;

// Dot product in double over eight lanes (index mod 8) summed in a fixed
// order, plus a serial tail: the same window gives the same bits wherever
// it sits in the buffer.
double lane_dot(const float* x, const float* w, std::size_t n) {
  V2d acc[4] = {};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < 4; ++l) {
      acc[l] += V2d{x[i + 2 * l], x[i + 2 * l + 1]} * V2d{w[i + 2 * l], w[i + 2 * l + 1]};
    }
  }
  const V2d sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  double dot = sum[0] + sum[1];
  for (; i < n; ++i) dot += static_cast<double>(x[i]) * w[i];
  return dot;
}

// Float dots of the n-sample template w with the windows at x, x + 1,
// x + 2 and x + 3, four lanes each; every template load serves all four.
void float_dots4(const float* x, const float* w, std::size_t n, float (&dot)[4]) {
  V4f acc[4] = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V4f wv = util::load(w + i);
    // Unrolled, so the sums stay in registers at -O2 too.
#pragma GCC unroll 4
    for (std::size_t j = 0; j < 4; ++j) acc[j] += util::load(x + j + i) * wv;
  }
  for (std::size_t j = 0; j < 4; ++j) {
    float d = (acc[j][0] + acc[j][1]) + (acc[j][2] + acc[j][3]);
    for (std::size_t t = i; t < n; ++t) d += x[j + t] * w[t];
    dot[j] = d;
  }
}

}  // namespace

StreamReceiver::StreamReceiver(const OfdmModem& modem, StreamReceiverParams params)
    : modem_(modem),
      params_(params),
      sym_(static_cast<std::size_t>(modem.profile().fft_size + modem.profile().cp_len)),
      fft_(static_cast<std::size_t>(modem.profile().fft_size)),
      half_(static_cast<std::size_t>(modem.profile().fft_size / 2)),
      cp_(static_cast<std::size_t>(modem.profile().cp_len)) {
  if (params_.max_buffer_samples == 0) params_.max_buffer_samples = 2 * modem_.min_decode_samples();
  if (params_.max_buffer_samples < 2 * modem_.min_decode_samples()) {
    throw std::invalid_argument(
        "StreamReceiverParams::max_buffer_samples must be at least 2x "
        "OfdmModem::min_decode_samples() or no burst header could ever decode");
  }
  for (float v : modem_.preamble_b_template()) tmpl_energy_ += static_cast<double>(v) * v;
}

void StreamReceiver::count(const char* name, std::uint64_t n) {
  if (params_.metrics != nullptr) params_.metrics->counter(name).add(n);
}

void StreamReceiver::restart_scan(std::size_t from) {
  scan_from_ = std::min(from, total_);
  seeded_ = false;
  p_ = r_ = 0.0;
  d_ = scan_from_;
  in_plateau_ = false;
  best_metric_ = 0.0;
  best_d_ = 0;
  plateau_end_guard_ = 0;
  coarse_ready_ = false;
  have_sync_ = false;
  header_.reset();
}

// Schmidl & Cox coarse detection on the half-symbol periodicity of preamble
// A, one metric position at a time, pausing wherever the buffered audio runs
// out and resuming when more arrives. The running sums p_/r_ carry across
// chunk boundaries, so the plateau and its best position do not depend on
// how the audio was chunked.
StreamReceiver::Step StreamReceiver::scan(bool final_flush) {
  if (!seeded_) {
    // Fewer than three symbols past the scan start cannot hold preambles A
    // and B plus a header window, so there is nothing to look for yet (or,
    // at the end of the stream, ever).
    if (total_ <= scan_from_ + 3 * sym_) return final_flush ? Step::kDone : Step::kStall;
    p_ = r_ = 0.0;
    for (std::size_t m = 0; m < half_; ++m) {
      const std::size_t i = scan_from_ + m;
      p_ += static_cast<double>(at(i)) * at(i + half_);
      r_ += static_cast<double>(at(i + half_)) * at(i + half_);
    }
    d_ = scan_from_;
    seeded_ = true;
  }

  while (d_ + fft_ + sym_ < total_) {
    const double metric = r_ > 1e-9 ? (p_ * p_) / (r_ * r_) : 0.0;
    if (metric > 0.5) {
      if (!in_plateau_) {
        in_plateau_ = true;
        best_metric_ = 0.0;
      }
      if (metric > best_metric_) {
        best_metric_ = metric;
        best_d_ = d_;
      }
      plateau_end_guard_ = 0;
    } else if (in_plateau_) {
      // Allow brief dips; end the plateau after cp_len consecutive lows.
      if (++plateau_end_guard_ > cp_) {
        coarse_ready_ = true;
        return Step::kProgress;
      }
    }
    p_ += static_cast<double>(at(d_ + half_)) * at(d_ + fft_) -
          static_cast<double>(at(d_)) * at(d_ + half_);
    r_ += static_cast<double>(at(d_ + fft_)) * at(d_ + fft_) -
          static_cast<double>(at(d_ + half_)) * at(d_ + half_);
    ++d_;
  }

  if (!final_flush) return Step::kStall;
  // End of stream: a plateau still open when the scan range runs out is
  // promoted to the coarse estimate and goes on to fine timing.
  if (in_plateau_) {
    coarse_ready_ = true;
    return Step::kProgress;
  }
  return Step::kDone;
}

FineSyncPick pick_fine_sync(std::span<const float> x, std::span<const float> tmpl, double tmpl_energy,
                            std::size_t candidates) {
  const std::size_t n = tmpl.size();
  FineSyncPick pick;
  if (candidates == 0) return pick;
  // Per candidate: the window energy, slid in double exactly as the
  // all-exact scan slides it, and the upper end of its NCC interval.
  thread_local std::vector<double> energies, highs;
  energies.resize(candidates);
  highs.resize(candidates);
  constexpr double kU = 0x1p-24;  // float unit roundoff
  // gamma_n of the float dot, with a few operations of slack for the lane
  // sums and the tail, plus 1e-9 for every double rounding on both sides
  // (each about n * 2^-53 or less); the underflow term is n * 2^-149
  // absolute.
  const double nf = static_cast<double>(n + 8);
  const double tol = nf * kU / (1.0 - nf * kU) + 1e-9;
  const double underflow = static_cast<double>(n) * 0x1p-149;
  const float* w = tmpl.data();
  double energy = 0.0;  // of the window at c, slid from the previous one
  double slide_err = 0.0;  // bound on |energy - the window's true energy|
  double best_lo = 0.0;
  float dots[4] = {};
  for (std::size_t c = 0; c < candidates; ++c) {
    const float* window = x.data() + c;
    if (c == 0) {
      for (std::size_t i = 0; i < n; ++i) energy += static_cast<double>(window[i]) * window[i];
      // A sum of n nonnegative exact squares: within gamma_(n-1) of it.
      slide_err = 2.0 * static_cast<double>(n) * 0x1p-53 * energy;
    } else {
      const double in = static_cast<double>(window[n - 1]) * window[n - 1];
      const double out = static_cast<double>(window[-1]) * window[-1];
      energy += in - out;
      // One rounding of in - out and one of the sum, doubled for the
      // rounding of this bound itself.
      slide_err += (in + out + std::fabs(energy)) * 0x1p-52;
    }
    if (c % 4 == 0) {
      if (c + 4 <= candidates) {
        float_dots4(window, w, n, dots);
      } else {
        for (std::size_t j = 0; c + j < candidates; ++j) {
          float d = 0.0f;
          for (std::size_t i = 0; i < n; ++i) d += window[j + i] * w[i];
          dots[j] = d;
        }
      }
    }
    energies[c] = energy;
    // The exact scan gives NCC 0 at or below 1e-12 (NaN included): such a
    // candidate never wins and needs no dot.
    double lo = 0.0, hi = 0.0;
    if (energy > 1e-12) {
      const double scale = std::sqrt(energy * tmpl_energy);
      const double widen = std::sqrt(1.0 + slide_err / energy);
      const double f_ncc = std::fabs(static_cast<double>(dots[c % 4])) / scale;
      const double margin = widen * tol + underflow / scale;
      lo = f_ncc - margin;
      hi = f_ncc + margin;
      if (!std::isfinite(lo) || !std::isfinite(hi)) {
        lo = 0.0;
        hi = std::numeric_limits<double>::infinity();
      }
    } else {
      hi = -1.0;
    }
    highs[c] = hi;
    best_lo = std::max(best_lo, lo);
  }
  // The exact NCC, in index order under strict >, on every candidate whose
  // interval reaches the largest lower end; the rest lie strictly below the
  // winner.
  for (std::size_t c = 0; c < candidates; ++c) {
    if (!(highs[c] >= best_lo)) continue;
    ++pick.exact_dots;
    const double dot = lane_dot(x.data() + c, w, n);
    const double ncc = std::fabs(dot) / std::sqrt(energies[c] * tmpl_energy);
    if (ncc > pick.ncc) {
      pick.ncc = ncc;
      pick.index = static_cast<long>(c);
    }
  }
  return pick;
}

// Fine timing: normalized cross-correlation with the preamble-B template
// around the coarse peak. Preamble B starts one symbol after A.
StreamReceiver::Step StreamReceiver::fine_sync(bool final_flush) {
  const long lo = static_cast<long>(best_d_) - 2L * static_cast<long>(cp_);
  const long hi = static_cast<long>(best_d_) + 2L * static_cast<long>(cp_);
  const std::span<const float> tmpl = modem_.preamble_b_template();
  const std::size_t tmpl_len = tmpl.size();
  if (!final_flush &&
      total_ < static_cast<std::size_t>(hi) + sym_ + tmpl_len) {
    return Step::kStall;  // evaluate the full candidate range at once
  }
  count("rx_sync_attempts");

  // Candidates whose burst start is at least one symbol into the stream
  // (the burst start is b_start - sym; lower ones would underflow size_t
  // when the coarse peak sits within 2*cp_len of the stream start, e.g. a
  // stream cut mid-preamble) and whose template window is buffered.
  const long b_lo = std::max(lo + static_cast<long>(sym_), static_cast<long>(sym_));
  const long b_hi = std::min(hi + static_cast<long>(sym_), static_cast<long>(total_) - static_cast<long>(tmpl_len));
  FineSyncPick pick;
  if (b_hi >= b_lo) {
    const std::size_t candidates = static_cast<std::size_t>(b_hi - b_lo) + 1;
    pick = pick_fine_sync(live().subspan(static_cast<std::size_t>(b_lo) - base_, candidates - 1 + tmpl_len), tmpl,
                          tmpl_energy_, candidates);
    count("rx_sync_exact_dots", pick.exact_dots);
  }
  const double best_ncc = pick.ncc;
  const long best_b_start = pick.index < 0 ? -1 : b_lo + pick.index;
  if (best_b_start < 0 || best_ncc < 0.2) {
    // Resync: skip one symbol past the coarse peak so the same plateau is
    // not rediscovered, and keep listening for the next preamble.
    count("rx_resyncs");
    restart_scan(best_d_ + sym_);
    return Step::kProgress;
  }
  count("rx_sync_hits");
  sync_start_ = static_cast<std::size_t>(best_b_start) - sym_;
  sync_ncc_ = static_cast<float>(best_ncc);
  have_sync_ = true;
  coarse_ready_ = false;
  return Step::kProgress;
}

// One forward pass over the burst at sync_start_: the header once, then
// every payload symbol whose FFT window is buffered. At the stream's end the
// frame in progress decodes with its missing bits as erasures, and the
// frames never begun are lost.
StreamReceiver::Step StreamReceiver::decode(std::vector<RxBurst>& out, bool final_flush) {
  const std::span<const float> buffered = live();
  if (!header_.has_value()) {
    if (!final_flush && total_ < sync_start_ + modem_.min_decode_samples()) return Step::kStall;
    header_ = modem_.decode_header(buffered, sync_start_ - base_, h_);
    if (!header_.has_value()) {
      count("rx_resyncs");
      restart_scan(sync_start_ + sym_);
      return Step::kProgress;
    }
    frame_bits_ = modem_.payload_codec_.encoded_bits(header_->frame_len);
    burst_end_ = sync_start_ + modem_.burst_samples(header_->frame_len, header_->frame_count);
    payload_symbols_ = modem_.payload_symbols(header_->frame_len, header_->frame_count);
    next_symbol_ = 0;
    frame_soft_.assign(frame_bits_, fec::ConvolutionalCodec::kSoftErasure);
    frame_fill_ = 0;
    frames_.clear();
  }

  const std::size_t first_payload = 2 + modem_.header_symbols();
  for (; next_symbol_ < payload_symbols_; ++next_symbol_) {
    const std::size_t pos = modem_.window_pos(sync_start_, first_payload + next_symbol_);
    if (pos + fft_ > total_) break;
    place_symbol(modem_.demod_symbol(buffered, pos - base_, false, h_, header_->noise));
  }
  if (!final_flush) {
    // The burst ends after its gap symbol; the scan resumes there.
    if (next_symbol_ < payload_symbols_ || total_ < burst_end_) return Step::kStall;
  } else if (frames_.size() < header_->frame_count) {
    // The stream ended inside the burst. The frame in progress decodes with
    // the positions it never received still erasures; the frames after it
    // carry no received bit and are lost without a decode.
    if (frame_fill_ > 0) decode_frame();
    frames_.resize(header_->frame_count);
  }
  emit(out);
  return Step::kProgress;
}

// Places a payload symbol's soft bits into their frames, decoding each as
// its last bit arrives; bits past the last frame are padding.
void StreamReceiver::place_symbol(std::span<const float> soft) {
  while (!soft.empty() && frames_.size() < header_->frame_count) {
    const std::size_t n = std::min(soft.size(), frame_bits_ - frame_fill_);
    PacketCodec::place_soft(soft.first(n), frame_fill_, frame_soft_);
    frame_fill_ += n;
    soft = soft.subspan(n);
    if (frame_fill_ == frame_bits_) decode_frame();
  }
}

// Decodes the frame in progress and starts the next one as all erasures.
void StreamReceiver::decode_frame() {
  frames_.push_back(modem_.payload_codec_.decode(frame_soft_, header_->frame_len));
  std::fill(frame_soft_.begin(), frame_soft_.end(), fec::ConvolutionalCodec::kSoftErasure);
  frame_fill_ = 0;
}

void StreamReceiver::emit(std::vector<RxBurst>& out) {
  RxBurst burst;
  burst.frames = std::move(frames_);
  burst.start_sample = sync_start_;
  burst.end_sample = std::min(total_, burst_end_);
  burst.truncated = burst_end_ > total_;
  burst.sync_ncc = sync_ncc_;
  burst.snr_db =
      static_cast<float>(-10.0 * std::log10(std::max(static_cast<double>(header_->noise), 1e-9)));
  count("rx_bursts");
  if (burst.truncated) count("rx_bursts_truncated");
  count("rx_frames_ok", burst.frames_ok());
  count("rx_frames_lost", burst.frames.size() - burst.frames_ok());
  if (params_.metrics != nullptr) {
    params_.metrics->histogram("rx_burst_ncc").observe(burst.sync_ncc);
    params_.metrics->histogram("rx_burst_snr_db").observe(burst.snr_db);
    params_.metrics->histogram("rx_buffered_at_burst").observe(static_cast<double>(samples_buffered()));
  }
  const std::size_t resume = std::max(burst.end_sample, scan_from_ + 1);
  out.push_back(std::move(burst));
  restart_scan(resume);
}

void StreamReceiver::evict() {
  std::size_t keep;
  if (header_.has_value()) {
    keep = modem_.window_pos(sync_start_, 2 + modem_.header_symbols() + next_symbol_);
  } else if (have_sync_) {
    keep = sync_start_;
  } else if (in_plateau_ || coarse_ready_) {
    // Fine sync may still probe 2*cp_len before the coarse peak.
    keep = best_d_ > 2 * cp_ ? best_d_ - 2 * cp_ : 0;
  } else if (seeded_) {
    keep = d_ > 2 * cp_ ? d_ - 2 * cp_ : 0;
  } else {
    keep = scan_from_;
  }
  keep = std::min(keep, total_);
  if (keep > base_) drop_front(keep - base_);
}

void StreamReceiver::drop_front(std::size_t n) {
  head_ += n;
  base_ += n;
  // Compact only once the dead prefix outgrows the live samples, so each
  // sample is moved O(1) times on average however large the cap.
  if (head_ > buf_.size() - head_) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(head_));
    head_ = 0;
  }
}

void StreamReceiver::enforce_cap() {
  // Decoding keeps at most the header buffered, so only an endless
  // plateau (a periodic tone keeps the scan from moving past it) gets here:
  // drop the oldest audio and restart the plateau search where the scan
  // stood (or at what remains, if that was dropped). The audio behind the
  // scan position was all plateau; scanning it again would cost O(cap) per
  // chunk and find the same plateau.
  if (samples_buffered() <= params_.max_buffer_samples) return;
  const std::size_t drop = samples_buffered() - params_.max_buffer_samples;
  count("rx_samples_dropped", drop);
  drop_front(drop);
  restart_scan(std::max(base_, d_));
}

void StreamReceiver::advance(std::vector<RxBurst>& out, bool final_flush) {
  for (;;) {
    Step step;
    if (have_sync_) {
      step = decode(out, final_flush);
    } else if (coarse_ready_) {
      step = fine_sync(final_flush);
    } else {
      step = scan(final_flush);
    }
    evict();
    if (step != Step::kProgress) return;
  }
}

std::vector<RxBurst> StreamReceiver::push(std::span<const float> chunk) {
  if (flushed_) throw std::logic_error("StreamReceiver::push after flush (call reset first)");
  buf_.insert(buf_.end(), chunk.begin(), chunk.end());
  total_ += chunk.size();
  count("rx_chunks");
  count("rx_samples", chunk.size());

  std::vector<RxBurst> out;
  advance(out, /*final_flush=*/false);
  enforce_cap();
  high_water_ = std::max(high_water_, samples_buffered());
  return out;
}

std::vector<RxBurst> StreamReceiver::flush() {
  if (flushed_) throw std::logic_error("StreamReceiver::flush called twice (call reset first)");
  flushed_ = true;
  std::vector<RxBurst> out;
  advance(out, /*final_flush=*/true);
  if (params_.metrics != nullptr) {
    params_.metrics->histogram("rx_buffered_high_water").observe(static_cast<double>(high_water_));
  }
  return out;
}

void StreamReceiver::reset() {
  buf_.clear();
  head_ = 0;
  base_ = 0;
  total_ = 0;
  high_water_ = 0;
  flushed_ = false;
  restart_scan(0);
}

}  // namespace sonic::modem
