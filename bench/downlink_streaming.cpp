// Streaming downlink: the Figure 4(a) distance sweep run through the
// chunk-fed StreamReceiver, feeding each trial's radio audio in 20 ms
// mic-callback chunks.
//
// Checks, per trial, that the chunking does not change what is received:
// receive_all (the same receiver fed one-second chunks) must match the 20 ms
// feed burst for burst (identical bursts, frames, and sample indices; the
// "prefix" column reports the check and "extra" counts bursts only the 20 ms
// feed found, which must stay 0) — and then runs a long broadcast-carousel
// stream through a capped buffer to show memory stays bounded however long
// the radio plays.
//
//   ./downlink_streaming [--trials 10] [--frames 20] [--seed 1]
//                        [--chunk 882] [--carousel-secs 100]
//
// Raise --carousel-secs (3600 = an hour of audio) for soak runs; the
// receiver's buffer stays below the cap regardless.
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "fm/link.hpp"
#include "modem/ofdm.hpp"
#include "modem/profile.hpp"
#include "modem/stream_receiver.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

using namespace sonic;

namespace {

// Feeds `audio` in fixed-size chunks; returns every burst the stream yields.
std::vector<modem::RxBurst> stream_receive(modem::StreamReceiver& rx,
                                           std::span<const float> audio, std::size_t chunk) {
  std::vector<modem::RxBurst> out;
  for (std::size_t pos = 0; pos < audio.size(); pos += chunk) {
    auto got = rx.push(audio.subspan(pos, std::min(chunk, audio.size() - pos)));
    out.insert(out.end(), got.begin(), got.end());
  }
  auto tail = rx.flush();
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

bool same_burst(const modem::RxBurst& a, const modem::RxBurst& b) {
  if (a.start_sample != b.start_sample || a.end_sample != b.end_sample ||
      a.truncated != b.truncated || a.frames.size() != b.frames.size()) {
    return false;
  }
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    if (a.frames[f].has_value() != b.frames[f].has_value()) return false;
    if (a.frames[f].has_value() && *a.frames[f] != *b.frames[f]) return false;
  }
  return true;
}

// The one-second-chunk result must be a byte-identical prefix of the 20 ms
// one (with "extra" == 0, equal to it).
bool batch_is_prefix(const std::vector<modem::RxBurst>& batch,
                     const std::vector<modem::RxBurst>& streaming) {
  if (streaming.size() < batch.size()) return false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!same_burst(batch[i], streaming[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = bench::arg_int(argc, argv, "--trials", 10);
  const int frames = bench::arg_int(argc, argv, "--frames", 20);
  const std::uint64_t seed = static_cast<std::uint64_t>(bench::arg_int(argc, argv, "--seed", 1));
  const std::size_t chunk = static_cast<std::size_t>(bench::arg_int(argc, argv, "--chunk", 882));
  const int carousel_secs = bench::arg_int(argc, argv, "--carousel-secs", 100);

  modem::OfdmModem ofdm(*modem::profiles::get("sonic-10k"));
  util::Rng rng(seed);
  std::vector<util::Bytes> payload;
  for (int i = 0; i < frames; ++i) {
    util::Bytes f(100);
    for (auto& b : f) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    payload.push_back(std::move(f));
  }
  const auto audio = ofdm.modulate(payload);

  std::printf("Streaming downlink: Fig 4(a) distance sweep through StreamReceiver\n");
  std::printf("profile=sonic-10k  frames/trial=%d  trials=%d  chunk=%zu samples (%.0f ms)\n\n",
              frames, trials, chunk, 1000.0 * static_cast<double>(chunk) / 44100.0);
  std::printf("%-8s %8s %8s %8s  %7s %6s\n", "distance", "p25%", "median%", "p75%", "prefix",
              "extra");

  struct Point {
    const char* label;
    double meters;
  };
  const Point points[] = {
      {"Cable", 0.0}, {"10cm", 0.1}, {"20cm", 0.2}, {"50cm", 0.5},
      {"1m", 1.0},    {"1.1m", 1.1}, {"1.2m", 1.2},
  };

  bool all_prefix_ok = true;
  std::size_t peak_buffered = 0;
  for (const Point& point : points) {
    std::vector<double> losses;
    bool prefix_ok = true;
    std::size_t extra = 0;
    for (int t = 0; t < trials; ++t) {
      fm::FmLinkConfig cfg;
      cfg.enable_rf = false;  // isolate the acoustic hop, as in Fig 4(a)
      cfg.acoustic.distance_m = point.meters;
      cfg.seed = seed * 1000 + static_cast<std::uint64_t>(t) +
                 static_cast<std::uint64_t>(point.meters * 100);
      fm::FmLink link(cfg);
      const auto rx_audio = link.transmit(audio);

      const auto batch = ofdm.receive_all(rx_audio);
      modem::StreamReceiver rx(ofdm);
      const auto streamed = stream_receive(rx, rx_audio, chunk);
      peak_buffered = std::max(peak_buffered, rx.buffered_high_water());

      prefix_ok = prefix_ok && batch_is_prefix(batch, streamed);
      extra += streamed.size() - std::min(streamed.size(), batch.size());
      std::size_t ok = 0;
      for (const auto& b : streamed) ok += b.frames_ok();
      ok = std::min<std::size_t>(ok, static_cast<std::size_t>(frames));
      losses.push_back(100.0 * (1.0 - static_cast<double>(ok) / frames));
    }
    all_prefix_ok = all_prefix_ok && prefix_ok;
    const auto s = bench::box_stats(losses);
    std::printf("%-8s %8.1f %8.1f %8.1f  %7s %6zu\n", point.label, s.p25, s.median, s.p75,
                prefix_ok ? "yes" : "NO", extra);
    std::printf("BENCH_DOWNLINK distance=%s loss_p25=%.1f loss_median=%.1f loss_p75=%.1f "
                "batch_prefix_ok=%d extra_bursts=%zu\n",
                point.label, s.p25, s.median, s.p75, prefix_ok ? 1 : 0, extra);
  }

  // ---- long-run carousel: bounded memory over an arbitrarily long stream --
  const std::size_t gap = 2000;
  const std::size_t loop_len = audio.size() + gap;
  const std::size_t total_samples = static_cast<std::size_t>(carousel_secs) * 44100;
  const std::size_t loops = total_samples / loop_len + 1;

  core::Metrics metrics;
  modem::StreamReceiverParams rx_params;
  // The smallest cap a receiver accepts, well under one burst: memory does
  // not scale with the burst.
  rx_params.max_buffer_samples = 2 * ofdm.min_decode_samples();
  rx_params.metrics = &metrics;
  modem::StreamReceiver rx(ofdm, rx_params);

  // The carousel repeats the same burst; feed it loop by loop in mic chunks
  // without ever materializing the whole stream.
  std::vector<float> loop_audio(audio.begin(), audio.end());
  loop_audio.insert(loop_audio.end(), gap, 0.0f);
  std::size_t bursts = 0, frames_ok = 0;
  for (std::size_t l = 0; l < loops; ++l) {
    for (std::size_t pos = 0; pos < loop_audio.size(); pos += chunk) {
      const auto got = rx.push(
          std::span(loop_audio).subspan(pos, std::min(chunk, loop_audio.size() - pos)));
      for (const auto& b : got) {
        ++bursts;
        frames_ok += b.frames_ok();
      }
    }
  }
  for (const auto& b : rx.flush()) {
    ++bursts;
    frames_ok += b.frames_ok();
  }

  const bool mem_ok = rx.buffered_high_water() <= rx_params.max_buffer_samples;
  const bool all_bursts = bursts == loops;
  std::printf("\ncarousel: %zu loops (%.0f s of audio), %zu bursts, %zu frames ok, "
              "peak buffered %zu / cap %zu\n",
              loops, static_cast<double>(loops * loop_len) / 44100.0, bursts, frames_ok,
              rx.buffered_high_water(), rx_params.max_buffer_samples);
  std::printf("BENCH_DOWNLINK_CAROUSEL seconds=%.0f bursts=%zu expected=%zu frames_ok=%zu "
              "peak_buffered=%zu cap=%zu sync_hits=%llu\n",
              static_cast<double>(loops * loop_len) / 44100.0, bursts, loops, frames_ok,
              rx.buffered_high_water(), rx_params.max_buffer_samples,
              static_cast<unsigned long long>(metrics.counter_value("rx_sync_hits")));

  const bool pass = all_prefix_ok && mem_ok && all_bursts;
  std::printf("BENCH_DOWNLINK_ACCEPTANCE %s (batch prefix byte-identical at every distance; "
              "carousel decoded every loop within the buffer cap)\n", pass ? "PASS" : "FAIL");
  std::printf("peak buffered across sweep: %zu samples\n", peak_buffered);
  return pass ? 0 : 1;
}
