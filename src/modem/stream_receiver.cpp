#include "modem/stream_receiver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sonic::modem {
namespace {

typedef double V2d __attribute__((vector_size(16)));

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

}  // namespace

StreamReceiver::StreamReceiver(const OfdmModem& modem, StreamReceiverParams params)
    : modem_(modem),
      params_(params),
      sym_(static_cast<std::size_t>(modem.profile().fft_size + modem.profile().cp_len)),
      fft_(static_cast<std::size_t>(modem.profile().fft_size)),
      half_(static_cast<std::size_t>(modem.profile().fft_size / 2)),
      cp_(static_cast<std::size_t>(modem.profile().cp_len)) {
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
  pending_needed_ = 0;
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
  double best_ncc = 0.0;
  long best_b_start = -1;
  double energy = 0.0;  // of the window at b_start, slid from the previous one
  for (long b_start = b_lo; b_start <= b_hi; ++b_start) {
    const float* window = buf_.data() + (static_cast<std::size_t>(b_start) - base_);
    if (b_start == b_lo) {
      for (std::size_t i = 0; i < tmpl_len; ++i) energy += static_cast<double>(window[i]) * window[i];
    } else {
      energy += static_cast<double>(window[tmpl_len - 1]) * window[tmpl_len - 1] -
                static_cast<double>(window[-1]) * window[-1];
    }
    const double dot = lane_dot(window, tmpl.data(), tmpl_len);
    const double ncc = energy > 1e-12 ? std::fabs(dot) / std::sqrt(energy * tmpl_energy_) : 0.0;
    if (ncc > best_ncc) {
      best_ncc = ncc;
      best_b_start = b_start;
    }
  }
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
  pending_needed_ = 0;
  return Step::kProgress;
}

StreamReceiver::Step StreamReceiver::decode(std::vector<RxBurst>& out, bool final_flush) {
  const std::span<const float> window(buf_.data() + (sync_start_ - base_),
                                      buf_.size() - (sync_start_ - base_));
  auto resync = [&] {
    count("rx_resyncs");
    restart_scan(sync_start_ + sym_);
    return Step::kProgress;
  };
  if (!final_flush) {
    // Header first, to learn the burst length; then the whole burst once it
    // is buffered. Decoding the payload before then would be thrown away.
    if (pending_needed_ == 0) {
      if (total_ < sync_start_ + modem_.min_decode_samples()) return Step::kStall;
      const auto length = modem_.peek_burst_samples(window, 0);
      if (!length.has_value()) return resync();
      pending_needed_ = sync_start_ + *length;
    }
    if (total_ < pending_needed_) return Step::kStall;
  }

  auto burst = modem_.decode_burst(window, 0, sync_ncc_);
  if (!burst.has_value()) return resync();

  burst->start_sample += sync_start_;
  burst->end_sample += sync_start_;
  burst->needed_end += sync_start_;
  count("rx_bursts");
  if (burst->truncated) count("rx_bursts_truncated");
  count("rx_frames_ok", burst->frames_ok());
  count("rx_frames_lost", burst->frames.size() - burst->frames_ok());
  if (params_.metrics != nullptr) {
    params_.metrics->histogram("rx_burst_ncc").observe(burst->sync_ncc);
    params_.metrics->histogram("rx_burst_snr_db").observe(burst->snr_db);
    params_.metrics->histogram("rx_buffered_at_burst").observe(static_cast<double>(buf_.size()));
  }
  const std::size_t resume = std::max(burst->end_sample, scan_from_ + 1);
  out.push_back(std::move(*burst));
  restart_scan(resume);
  return Step::kProgress;
}

void StreamReceiver::evict() {
  std::size_t keep;
  if (have_sync_) {
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
  if (keep > base_) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(keep - base_));
    base_ = keep;
  }
}

void StreamReceiver::enforce_cap(std::vector<RxBurst>& out) {
  if (buf_.size() <= params_.max_buffer_samples) return;
  if (have_sync_) {
    // A burst larger than the cap: decode what fits now — the missing tail
    // becomes frame erasures — instead of buffering without bound.
    count("rx_forced_decodes");
    const Step step = decode(out, /*final_flush=*/true);
    (void)step;
    evict();
  }
  if (buf_.size() > params_.max_buffer_samples) {
    // Still over (e.g. one push far larger than the cap while scanning):
    // drop the oldest audio and restart the scan at what remains.
    const std::size_t drop = buf_.size() - params_.max_buffer_samples;
    count("rx_samples_dropped", drop);
    base_ += drop;
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(drop));
    restart_scan(base_);
  }
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
  enforce_cap(out);
  high_water_ = std::max(high_water_, buf_.size());
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
  base_ = 0;
  total_ = 0;
  high_water_ = 0;
  flushed_ = false;
  restart_scan(0);
}

}  // namespace sonic::modem
