// Streaming receive chain: chunk-boundary equivalence for the stateful DSP
// primitives, the FM demodulator, and the StreamReceiver, plus regression
// tests for the batch-only bugs the streaming work flushed out (empty-span
// RF chunks, the spurious first-sample FM phase impulse, per-call acoustic
// filter rebuilds). Run with `ctest -L streaming`.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/biquad.hpp"
#include "dsp/fir.hpp"
#include "dsp/resampler.hpp"
#include "fm/acoustic.hpp"
#include "fm/fm_modem.hpp"
#include "fm/link.hpp"
#include "modem/ofdm.hpp"
#include "modem/profile.hpp"
#include "modem/stream_receiver.hpp"
#include "sonic/client.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace sonic {
namespace {

using modem::OfdmModem;
using modem::RxBurst;
using modem::StreamReceiver;
using modem::StreamReceiverParams;
using util::Bytes;
using util::Rng;

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

std::vector<float> random_audio(Rng& rng, std::size_t n, double amp = 0.5) {
  std::vector<float> out(n);
  for (auto& s : out) s = static_cast<float>(rng.uniform(-amp, amp));
  return out;
}

void add_awgn(std::vector<float>& samples, double snr_db, Rng& rng) {
  double power = 0;
  for (float s : samples) power += static_cast<double>(s) * s;
  power /= static_cast<double>(samples.size());
  const double sigma = std::sqrt(power / util::db_to_linear(snr_db));
  for (auto& s : samples) s += static_cast<float>(rng.normal(0.0, sigma));
}

// Splits `samples` into random-sized chunks (including some empty ones) and
// feeds them through `fn`; exercises every boundary the 20 ms mic callback
// of a real deployment could produce.
template <typename Fn>
void feed_chunked(std::span<const float> samples, Rng& rng, std::size_t max_chunk, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < samples.size()) {
    std::size_t len = rng.uniform_int(max_chunk + 1);  // 0..max_chunk
    len = std::min(len, samples.size() - pos);
    fn(samples.subspan(pos, len));
    pos += len;
  }
}

// ------------------------------------------------------- DSP primitives ---

TEST(StreamingDsp, BiquadChunkedMatchesBatch) {
  Rng rng(101);
  const auto input = random_audio(rng, 10000);
  dsp::Biquad batch = dsp::Biquad::lowpass(4000.0, 44100.0);
  dsp::Biquad chunked = dsp::Biquad::lowpass(4000.0, 44100.0);

  const auto expect = batch.process(input);
  std::vector<float> got;
  feed_chunked(input, rng, 257, [&](std::span<const float> c) {
    const auto out = chunked.process(c);
    got.insert(got.end(), out.begin(), out.end());
  });
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) ASSERT_EQ(got[i], expect[i]) << i;
}

TEST(StreamingDsp, FirChunkedMatchesBatch) {
  Rng rng(102);
  const auto input = random_audio(rng, 10000);
  const auto taps = dsp::design_lowpass(6000.0, 44100.0, 63);
  dsp::FirFilter batch(taps);
  dsp::FirFilter chunked(taps);

  const auto expect = batch.process(input);
  std::vector<float> got;
  feed_chunked(input, rng, 129, [&](std::span<const float> c) {
    const auto out = chunked.process(c);
    got.insert(got.end(), out.begin(), out.end());
  });
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) ASSERT_EQ(got[i], expect[i]) << i;
}

// Outputs per block of the resampler's whole-window pass: 4L for a
// rational ratio L/M (phase-major, four windows per row), 4 for the grid.
std::size_t block_outputs(double ratio) {
  for (int m = 1; m <= 1000; ++m) {
    const double l = ratio * m;
    if (std::fabs(l - std::round(l)) < 1e-9 * l) {
      return 4 * static_cast<std::size_t>(std::round(l));
    }
  }
  return 4;
}

// Streams `input` through make() under several chunkings and expects the
// batch output from each: random chunks, the FM modulator's 512-sample
// pushes, and pushes that end one output before, at and one output after
// one or two blocks of `block` outputs (as near as one input's outputs
// allow).
void expect_chunked_matches_batch(const std::function<dsp::Resampler()>& make,
                                  std::span<const float> input, std::size_t block, Rng& rng) {
  const auto expect = make().process(input);  // batch mode is const
  const auto check = [&](const std::string& how, const auto& feed) {
    dsp::Resampler resampler = make();
    std::vector<float> got;
    feed([&](std::span<const float> c) {
      const auto out = resampler.push(c);
      got.insert(got.end(), out.begin(), out.end());
    });
    const auto tail = resampler.flush();
    got.insert(got.end(), tail.begin(), tail.end());
    ASSERT_EQ(got.size(), expect.size()) << how;
    for (std::size_t i = 0; i < expect.size(); ++i) ASSERT_EQ(got[i], expect[i]) << how << " " << i;
  };

  check("random", [&](const auto& push) { feed_chunked(input, rng, 997, push); });
  check("512", [&](const auto& push) {
    for (std::size_t pos = 0; pos < input.size(); pos += 512) {
      push(input.subspan(pos, std::min<std::size_t>(512, input.size() - pos)));
    }
  });

  // ready[n]: outputs a stream has emitted once it holds n inputs.
  std::vector<std::size_t> ready(input.size() + 1, 0);
  dsp::Resampler probe = make();
  for (std::size_t n = 0; n < input.size(); ++n) {
    ready[n + 1] = ready[n] + probe.push(input.subspan(n, 1)).size();
  }
  const long offsets[] = {-1, 0, 1, static_cast<long>(block) - 1, static_cast<long>(block) + 1};
  check("blocks", [&](const auto& push) {
    std::size_t pos = 0;
    for (std::size_t k = 0; pos < input.size(); ++k) {
      const auto target = static_cast<std::size_t>(static_cast<long>(ready[pos] + block) +
                                                   offsets[k % std::size(offsets)]);
      const auto end =
          std::lower_bound(ready.begin() + static_cast<long>(pos) + 1, ready.end(), target);
      const auto next = std::min(static_cast<std::size_t>(end - ready.begin()), input.size());
      push(input.subspan(pos, next - pos));
      pos = next;
    }
  });
}

class ResamplerRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(ResamplerRatioTest, ChunkedMatchesBatch) {
  Rng rng(103);
  const auto input = random_audio(rng, 20000);
  expect_chunked_matches_batch([this] { return dsp::Resampler(GetParam()); }, input,
                               block_outputs(GetParam()), rng);
}

INSTANTIATE_TEST_SUITE_P(Ratios, ResamplerRatioTest,
                         ::testing::Values(0.2,            // FM IQ -> audio decimation
                                           1.0 + 30e-6,    // clock-skew epsilon
                                           2.17,           // generic upsample
                                           5.0,            // FM audio -> IQ, exact
                                           640.0 / 147.0,  // 44.1k -> 192k, phase wrap
                                           1.0 - 17e-6),   // negative skew, 11-tap grid
                         [](const auto& info) {
                           if (info.param == 5.0) return std::string("FmUpsample");
                           if (info.param == 640.0 / 147.0) return std::string("PhaseWrap");
                           if (info.param == 1.0 - 17e-6) return std::string("SkewDown");
                           return info.param < 1.0   ? std::string("Decimate")
                                  : info.param < 1.1 ? std::string("Skew")
                                                     : std::string("Upsample");
                         });

// The FM demodulator's fused low-pass + 5:1 stage: 103 taps, one row.
TEST(StreamingDsp, DecimatorChunkedMatchesBatch) {
  Rng rng(105);
  const auto input = random_audio(rng, 50000);
  const fm::FmParams params;
  const auto iq_lowpass = dsp::design_lowpass(params.audio_lowpass_hz, params.iq_rate_hz, 63);
  expect_chunked_matches_batch([&] { return dsp::Resampler::decimator(5, iq_lowpass); }, input,
                               block_outputs(0.2), rng);
}

TEST(StreamingDsp, ResamplerPushAfterFlushThrows) {
  dsp::Resampler r(0.5);
  (void)r.push(std::vector<float>(100, 0.1f));
  (void)r.flush();
  EXPECT_THROW((void)r.push(std::vector<float>(10, 0.0f)), std::logic_error);
  EXPECT_THROW((void)r.flush(), std::logic_error);
  r.reset();
  EXPECT_NO_THROW((void)r.push(std::vector<float>(10, 0.0f)));
}

TEST(StreamingDsp, ResamplerResetStartsFreshStream) {
  Rng rng(104);
  const auto input = random_audio(rng, 5000);
  dsp::Resampler r(0.37);
  const auto expect = r.process(input);

  auto first = r.push(input);
  const auto first_tail = r.flush();
  first.insert(first.end(), first_tail.begin(), first_tail.end());

  r.reset();
  auto second = r.push(input);
  const auto second_tail = r.flush();
  second.insert(second.end(), second_tail.begin(), second_tail.end());

  ASSERT_EQ(first, expect);
  EXPECT_EQ(second, first);
}

// ------------------------------------------------------------- FM layer ---

TEST(StreamingFm, DemodulatorChunkedMatchesBatch) {
  Rng rng(110);
  fm::FmParams params;
  const auto audio = random_audio(rng, 20000, 0.4);
  fm::FmModulator mod(params);
  const auto iq = mod.modulate(audio);

  fm::FmDemodulator batch(params);
  auto expect = batch.demodulate(iq);
  const auto expect_tail = batch.finish();
  expect.insert(expect.end(), expect_tail.begin(), expect_tail.end());

  fm::FmDemodulator chunked(params);
  std::vector<float> got;
  std::size_t pos = 0;
  while (pos < iq.size()) {
    const std::size_t len = std::min<std::size_t>(1 + rng.uniform_int(2048), iq.size() - pos);
    const auto out = chunked.demodulate(std::span(iq).subspan(pos, len));
    got.insert(got.end(), out.begin(), out.end());
    pos += len;
  }
  const auto got_tail = chunked.finish();
  got.insert(got.end(), got_tail.begin(), got_tail.end());

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) ASSERT_EQ(got[i], expect[i]) << i;
}

// Regression: the discriminator used to measure the first sample's phase
// against an arbitrary reference of 1+0j, turning the stream's initial phase
// into a full-scale frequency impulse that rang through the audio low-pass.
// A constant-phase carrier has zero instantaneous frequency; the demodulated
// audio must be exactly silent, whatever that phase is.
TEST(StreamingFm, FirstSampleProducesNoPhaseImpulse) {
  fm::FmDemodulator demod{fm::FmParams{}};
  const fm::cplx carrier(std::cos(1.0f), std::sin(1.0f));  // constant phase 1 rad
  std::vector<fm::cplx> iq(4000, carrier);
  auto audio = demod.demodulate(iq);
  const auto tail = demod.finish();
  audio.insert(audio.end(), tail.begin(), tail.end());
  ASSERT_FALSE(audio.empty());
  for (std::size_t i = 0; i < audio.size(); ++i) ASSERT_EQ(audio[i], 0.0f) << i;

  // reset() re-arms the first-sample handling for the next stream.
  demod.reset();
  auto again = demod.demodulate(iq);
  for (std::size_t i = 0; i < again.size(); ++i) ASSERT_EQ(again[i], 0.0f) << i;
}

// Regression: an empty chunk used to compute a 0/0 mean signal power, seed
// the AWGN with a NaN noise level, and burn an RNG draw — so an idle mic
// callback shifted the noise sequence for the rest of the stream.
TEST(StreamingFm, RfChannelEmptyChunkIsANoOp) {
  Rng rng(111);
  std::vector<fm::cplx> iq(2000);
  for (auto& s : iq) {
    s = fm::cplx(static_cast<float>(rng.normal(0.0, 0.5)), static_cast<float>(rng.normal(0.0, 0.5)));
  }
  fm::RfChannelParams params;

  fm::RfChannel plain(params, Rng(7));
  const auto expect = plain.process(iq);

  fm::RfChannel interrupted(params, Rng(7));
  const auto empty = interrupted.process(std::span<const fm::cplx>{});
  EXPECT_TRUE(empty.empty());
  const auto got = interrupted.process(iq);

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(std::isfinite(got[i].real()) && std::isfinite(got[i].imag())) << i;
    ASSERT_EQ(got[i], expect[i]) << i;
  }
}

// The RF channel's noise is a function of the IQ sample index alone: any
// split of the stream, odd and empty chunks included, adds the same noise,
// and the in-place path adds what process() does.
TEST(StreamingFm, RfChannelChunkingIsInvariant) {
  Rng rng(113);
  std::vector<fm::cplx> iq(5003);
  for (auto& s : iq) s = fm::cplx(std::cos(static_cast<float>(rng.uniform(0, 6))), 0.5f);
  fm::RfChannelParams params;
  params.rssi_db = -88.0;

  fm::RfChannel whole(params, Rng(8));
  const auto expect = whole.process(iq);

  fm::RfChannel chunked(params, Rng(8));
  std::vector<fm::cplx> got;
  std::size_t pos = 0;
  while (pos < iq.size()) {
    const std::size_t len = std::min<std::size_t>(rng.uniform_int(700), iq.size() - pos);
    const auto out = chunked.process(std::span(iq).subspan(pos, len));
    got.insert(got.end(), out.begin(), out.end());
    pos += len;
  }
  EXPECT_EQ(got, expect);

  fm::RfChannel in_place(params, Rng(8));
  auto noisy = iq;
  in_place.add_noise(std::span(noisy).first(1));
  in_place.add_noise(std::span(noisy).subspan(1));
  EXPECT_EQ(noisy, expect);
}

// FmLink::transmit streams modulator -> RF -> discriminator over IQ blocks;
// it must equal the stages run one after another over the whole burst,
// seeded as the link seeds them (the replay an instrumented benchmark
// makes to time each stage), burst after burst.
TEST(StreamingFm, LinkEqualsTheStageByStageReplay) {
  Rng rng(114);
  fm::FmLinkConfig config;
  config.acoustic.distance_m = 0.2;
  config.seed = 1234;
  fm::FmLink link(config);
  Rng link_rng(config.seed);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{511}, std::size_t{20000}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const auto audio = random_audio(rng, n, 0.6);
    const auto iq = fm::RfChannel(config.rf, link_rng.fork(1))
                        .process(fm::FmModulator(config.fm).modulate(audio));
    fm::FmDemodulator demod(config.fm);
    auto radio = demod.demodulate(iq);
    const auto radio_tail = demod.finish();
    radio.insert(radio.end(), radio_tail.begin(), radio_tail.end());
    fm::AcousticChannel air(config.acoustic, link_rng.fork(2));
    auto expect = air.process(radio);
    const auto air_tail = air.finish();
    expect.insert(expect.end(), air_tail.begin(), air_tail.end());
    link_rng = link_rng.fork(3);

    EXPECT_EQ(link.transmit(audio), expect);
  }
}

// Regression: the acoustic channel rebuilt its band-tilt biquad and skew
// resampler on every process() call, so filter state was thrown away at each
// chunk boundary. Given the same first chunk (the noise anchor), any further
// chunking must now be sample-identical.
TEST(StreamingFm, AcousticChunkingIsInvariantGivenSameFirstChunk) {
  Rng rng(112);
  fm::AcousticParams params;
  params.distance_m = 1.0;  // wobble + tilt + skew all active
  const auto audio = random_audio(rng, 30000, 0.4);
  const std::size_t first = 4096;

  fm::AcousticChannel a(params, Rng(21));
  auto expect = a.process(std::span(audio).first(first));
  {
    const auto rest = a.process(std::span(audio).subspan(first));
    expect.insert(expect.end(), rest.begin(), rest.end());
    const auto tail = a.finish();
    expect.insert(expect.end(), tail.begin(), tail.end());
  }

  fm::AcousticChannel b(params, Rng(21));
  auto got = b.process(std::span(audio).first(first));
  std::size_t pos = first;
  while (pos < audio.size()) {
    const std::size_t len = std::min<std::size_t>(1 + rng.uniform_int(777), audio.size() - pos);
    const auto out = b.process(std::span(audio).subspan(pos, len));
    got.insert(got.end(), out.begin(), out.end());
    pos += len;
  }
  const auto tail = b.finish();
  got.insert(got.end(), tail.begin(), tail.end());

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) ASSERT_EQ(got[i], expect[i]) << i;
}

// Regression: a negative clock_skew_ppm silently disabled skew (the `> 0`
// test swallowed it); it now fails loudly at construction.
TEST(StreamingFm, AcousticNegativeClockSkewThrows) {
  fm::AcousticParams params;
  params.clock_skew_ppm = -30.0;
  EXPECT_THROW(fm::AcousticChannel(params, Rng(1)), std::invalid_argument);
}

// ------------------------------------------------------- StreamReceiver ---

// Builds silence + burst + silence + burst + ... and returns the stream plus
// the frames sent per burst.
std::vector<float> multi_burst_stream(const OfdmModem& modem, Rng& rng, int bursts,
                                      std::vector<std::vector<Bytes>>* sent) {
  std::vector<float> stream(1500, 0.0f);
  for (int b = 0; b < bursts; ++b) {
    std::vector<Bytes> frames;
    const int count = 2 + static_cast<int>(rng.uniform_int(3));
    for (int i = 0; i < count; ++i) frames.push_back(random_bytes(rng, 60));
    if (sent != nullptr) sent->push_back(frames);
    const auto s = modem.modulate(frames);
    stream.insert(stream.end(), s.begin(), s.end());
    stream.insert(stream.end(), 700 + rng.uniform_int(900), 0.0f);
  }
  stream.insert(stream.end(), 2500, 0.0f);
  return stream;
}

std::vector<RxBurst> receive_chunked(StreamReceiver& rx, std::span<const float> stream, Rng& rng,
                                     std::size_t max_chunk) {
  std::vector<RxBurst> got;
  feed_chunked(stream, rng, max_chunk, [&](std::span<const float> c) {
    auto out = rx.push(c);
    got.insert(got.end(), out.begin(), out.end());
  });
  auto out = rx.flush();
  got.insert(got.end(), out.begin(), out.end());
  return got;
}

void expect_same_bursts(const std::vector<RxBurst>& expect, const std::vector<RxBurst>& got) {
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t b = 0; b < expect.size(); ++b) {
    EXPECT_EQ(got[b].start_sample, expect[b].start_sample) << "burst " << b;
    EXPECT_EQ(got[b].end_sample, expect[b].end_sample) << "burst " << b;
    EXPECT_EQ(got[b].truncated, expect[b].truncated) << "burst " << b;
    EXPECT_FLOAT_EQ(got[b].sync_ncc, expect[b].sync_ncc) << "burst " << b;
    ASSERT_EQ(got[b].frames.size(), expect[b].frames.size()) << "burst " << b;
    for (std::size_t f = 0; f < expect[b].frames.size(); ++f) {
      ASSERT_EQ(got[b].frames[f].has_value(), expect[b].frames[f].has_value())
          << "burst " << b << " frame " << f;
      if (expect[b].frames[f].has_value()) {
        EXPECT_EQ(*got[b].frames[f], *expect[b].frames[f]) << "burst " << b << " frame " << f;
      }
    }
  }
}

TEST(StreamReceiverTest, MatchesBatchOnCleanMultiBurstStream) {
  OfdmModem modem(*modem::profiles::get("sonic-10k"));
  Rng rng(120);
  std::vector<std::vector<Bytes>> sent;
  const auto stream = multi_burst_stream(modem, rng, 3, &sent);

  const auto batch = modem.receive_all(stream);
  ASSERT_EQ(batch.size(), sent.size());

  StreamReceiver rx(modem);
  const auto got = receive_chunked(rx, stream, rng, 882);  // ~20 ms chunks
  expect_same_bursts(batch, got);
  for (std::size_t b = 0; b < sent.size(); ++b) {
    ASSERT_EQ(got[b].frames_ok(), sent[b].size());
  }
}

TEST(StreamReceiverTest, MatchesBatchOnNoisyAudio) {
  OfdmModem modem(*modem::profiles::get("sonic-10k"));
  Rng rng(121);
  auto stream = multi_burst_stream(modem, rng, 3, nullptr);
  add_awgn(stream, 28.0, rng);

  const auto batch = modem.receive_all(stream);
  EXPECT_GE(batch.size(), 1u);  // noise must not wipe out the stream entirely

  StreamReceiver rx(modem);
  const auto got = receive_chunked(rx, stream, rng, 1321);
  // receive_all is the same receiver fed one-second chunks.
  expect_same_bursts(batch, got);
}

TEST(StreamReceiverTest, AnyChunkingGivesIdenticalBursts) {
  OfdmModem modem(*modem::profiles::get("sonic-10k"));
  Rng rng(122);
  auto stream = multi_burst_stream(modem, rng, 2, nullptr);
  add_awgn(stream, 32.0, rng);

  StreamReceiver rx(modem);
  const auto reference = receive_chunked(rx, stream, rng, 882);
  ASSERT_GE(reference.size(), 2u);

  for (const std::size_t max_chunk :
       {std::size_t{1}, std::size_t{63}, std::size_t{4096}, stream.size()}) {
    rx.reset();
    const auto got = receive_chunked(rx, stream, rng, max_chunk);
    expect_same_bursts(reference, got);
  }

  // The same stream cut three quarters into the second burst, inside its
  // payload: flush decodes the symbols that never arrived as erasures. The
  // truncated burst's extent and frames are pinned to what the whole-burst
  // decoder returned, so the per-symbol receiver reproduces it.
  const std::size_t cut =
      reference[1].start_sample + (reference[1].end_sample - reference[1].start_sample) * 3 / 4;
  ASSERT_GT(cut, reference[1].start_sample + modem.min_decode_samples());
  const std::span<const float> cut_stream = std::span<const float>(stream).first(cut);
  rx.reset();
  const auto cut_reference = receive_chunked(rx, cut_stream, rng, 882);
  ASSERT_EQ(cut_reference.size(), 2u);
  expect_same_bursts({reference[0]}, {cut_reference[0]});
  const RxBurst& tail = cut_reference[1];
  EXPECT_EQ(tail.start_sample, reference[1].start_sample);
  EXPECT_EQ(tail.end_sample, 23219u);
  EXPECT_TRUE(tail.truncated);
  std::string presence;
  for (const auto& f : tail.frames) presence += f.has_value() ? '1' : '0';
  EXPECT_EQ(presence, "110");
  for (std::size_t f = 0; f < tail.frames.size(); ++f) {
    if (tail.frames[f].has_value()) {
      EXPECT_EQ(*tail.frames[f], *reference[1].frames[f]) << f;
    }
  }
  for (const std::size_t max_chunk :
       {std::size_t{1}, std::size_t{63}, std::size_t{4096}, cut_stream.size()}) {
    rx.reset();
    expect_same_bursts(cut_reference, receive_chunked(rx, cut_stream, rng, max_chunk));
  }
}

TEST(StreamReceiverTest, ResyncsAfterCorruptedBurst) {
  OfdmModem modem(*modem::profiles::get("sonic-10k"));
  Rng rng(123);
  std::vector<std::vector<Bytes>> sent;
  auto stream = multi_burst_stream(modem, rng, 2, &sent);

  // Wreck the first burst's header region (after its preambles) so sync
  // succeeds but the header never decodes.
  const auto batch_clean = modem.receive_all(stream);
  ASSERT_EQ(batch_clean.size(), 2u);
  const std::size_t hdr_from = batch_clean[0].start_sample + 2200;
  for (std::size_t i = hdr_from; i < hdr_from + 4000; ++i) {
    stream[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }

  // The receiver skips past the undecodable burst and still delivers
  // burst 2, whether streamed in 20 ms chunks or decoded by receive_all.
  core::Metrics metrics;
  StreamReceiverParams params;
  params.metrics = &metrics;
  StreamReceiver rx(modem, params);
  const auto got = receive_chunked(rx, stream, rng, 882);
  ASSERT_GE(got.size(), 1u);
  const auto& last = got.back();
  EXPECT_EQ(last.start_sample, batch_clean[1].start_sample);
  ASSERT_EQ(last.frames.size(), sent[1].size());
  for (std::size_t f = 0; f < sent[1].size(); ++f) {
    ASSERT_TRUE(last.frames[f].has_value()) << f;
    EXPECT_EQ(*last.frames[f], sent[1][f]) << f;
  }
  EXPECT_GE(metrics.counter_value("rx_resyncs"), 1u);

  const auto batch = modem.receive_all(stream);
  expect_same_bursts(got, batch);
}

TEST(StreamReceiverTest, BoundedMemoryUnderEndlessPlateau) {
  OfdmModem modem(*modem::profiles::get("sonic-10k"));
  const std::size_t cap = 2 * modem.min_decode_samples();
  core::Metrics metrics;
  StreamReceiverParams params;
  params.max_buffer_samples = cap;
  params.metrics = &metrics;
  StreamReceiver rx(modem, params);

  // A tone periodic in fft_size/2 keeps the Schmidl&Cox metric pinned above
  // the plateau threshold forever — the adversarial case for the buffer.
  const int period = modem.profile().fft_size / 2;
  std::vector<float> chunk(882);
  std::size_t n = 0;
  for (int i = 0; i < 600; ++i) {
    for (auto& s : chunk) {
      s = 0.4f * static_cast<float>(std::sin(util::kTwoPi * static_cast<double>(n % static_cast<std::size_t>(period)) / period));
      ++n;
    }
    (void)rx.push(chunk);
    ASSERT_LE(rx.samples_buffered(), cap) << "push " << i;
  }
  (void)rx.flush();
  EXPECT_LE(rx.buffered_high_water(), cap);
  EXPECT_GT(metrics.counter_value("rx_samples_dropped"), 0u);
}

TEST(StreamReceiverTest, BurstLargerThanCapDecodesInFull) {
  OfdmModem modem(*modem::profiles::get("sonic-10k"));
  Rng rng(124);
  // 30 frames of 200 bytes: far more samples than twice the header need.
  std::vector<Bytes> frames;
  for (int i = 0; i < 30; ++i) frames.push_back(random_bytes(rng, 200));
  auto stream = modem.modulate(frames);
  stream.insert(stream.begin(), 1000, 0.0f);
  const std::size_t cap = 2 * modem.min_decode_samples();
  ASSERT_GT(stream.size(), cap);

  core::Metrics metrics;
  StreamReceiverParams params;
  params.max_buffer_samples = cap;
  params.metrics = &metrics;
  StreamReceiver rx(modem, params);
  const auto got = receive_chunked(rx, stream, rng, 882);

  // Each symbol is demodulated as it arrives, so the burst never has to fit
  // in the buffer: every frame decodes.
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(got[0].truncated);
  ASSERT_EQ(got[0].frames.size(), frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    ASSERT_TRUE(got[0].frames[f].has_value()) << f;
    EXPECT_EQ(*got[0].frames[f], frames[f]) << f;
  }
  EXPECT_LE(rx.buffered_high_water(), cap);
  EXPECT_EQ(metrics.counter_value("rx_samples_dropped"), 0u);
}

// The state of a burst in progress lives in its receiver, not in the modem:
// two receivers on one modem, fed two different streams alternately chunk
// by chunk, each return exactly what they return alone. The second stream
// comes through a two-path channel, so a channel estimate taken from the
// other stream would misequalize every payload symbol.
TEST(StreamReceiverTest, ReceiversSharingOneModemKeepTheirBursts) {
  OfdmModem modem(*modem::profiles::get("sonic-10k"));
  Rng rng(126);
  const auto first = multi_burst_stream(modem, rng, 3, nullptr);
  auto second = multi_burst_stream(modem, rng, 3, nullptr);
  second.insert(second.begin(), 5000, 0.0f);
  for (std::size_t i = second.size(); i-- > 9;) second[i] += 0.6f * second[i - 9];
  add_awgn(second, 30.0, rng);

  const auto first_alone = modem.receive_all(first);
  const auto second_alone = modem.receive_all(second);
  ASSERT_EQ(first_alone.size(), 3u);
  ASSERT_EQ(second_alone.size(), 3u);

  StreamReceiver rx_first(modem);
  StreamReceiver rx_second(modem);
  std::vector<RxBurst> got_first, got_second;
  const auto take = [](std::vector<RxBurst>& to, std::vector<RxBurst>&& from) {
    for (auto& b : from) to.push_back(std::move(b));
  };
  constexpr std::size_t kChunk = 882;
  for (std::size_t pos = 0; pos < std::max(first.size(), second.size()); pos += kChunk) {
    if (pos < first.size()) {
      take(got_first, rx_first.push(std::span<const float>(first).subspan(pos, std::min(kChunk, first.size() - pos))));
    }
    if (pos < second.size()) {
      take(got_second, rx_second.push(std::span<const float>(second).subspan(pos, std::min(kChunk, second.size() - pos))));
    }
  }
  take(got_first, rx_first.flush());
  take(got_second, rx_second.flush());
  expect_same_bursts(first_alone, got_first);
  expect_same_bursts(second_alone, got_second);
}

TEST(StreamReceiverTest, MetricsObserveTheStream) {
  OfdmModem modem(*modem::profiles::get("sonic-10k"));
  Rng rng(125);
  std::vector<std::vector<Bytes>> sent;
  const auto stream = multi_burst_stream(modem, rng, 2, &sent);

  core::Metrics metrics;
  StreamReceiverParams params;
  params.metrics = &metrics;
  StreamReceiver rx(modem, params);
  const auto got = receive_chunked(rx, stream, rng, 882);
  ASSERT_EQ(got.size(), 2u);

  EXPECT_EQ(metrics.counter_value("rx_bursts"), 2u);
  EXPECT_GE(metrics.counter_value("rx_sync_attempts"), 2u);
  EXPECT_GE(metrics.counter_value("rx_sync_hits"), 2u);
  EXPECT_EQ(metrics.counter_value("rx_frames_ok"), sent[0].size() + sent[1].size());
  EXPECT_EQ(metrics.counter_value("rx_samples"), stream.size());
  EXPECT_EQ(metrics.histogram("rx_burst_ncc").snapshot().count, 2u);
  EXPECT_EQ(metrics.histogram("rx_burst_snr_db").snapshot().count, 2u);
  EXPECT_GT(metrics.histogram("rx_burst_snr_db").snapshot().mean(), 10.0);
  EXPECT_EQ(metrics.histogram("rx_buffered_high_water").snapshot().count, 1u);
}

TEST(StreamReceiverTest, PushAfterFlushThrowsUntilReset) {
  OfdmModem modem(*modem::profiles::get("sonic-10k"));
  StreamReceiver rx(modem);
  (void)rx.push(std::vector<float>(100, 0.0f));
  (void)rx.flush();
  EXPECT_THROW((void)rx.push(std::vector<float>(1, 0.0f)), std::logic_error);
  EXPECT_THROW((void)rx.flush(), std::logic_error);
  rx.reset();
  EXPECT_NO_THROW((void)rx.push(std::vector<float>(1, 0.0f)));
  EXPECT_EQ(rx.samples_pushed(), 1u);
}

TEST(StreamReceiverTest, RejectsCapSmallerThanHeaderNeed) {
  OfdmModem modem(*modem::profiles::get("sonic-10k"));
  StreamReceiverParams params;
  params.max_buffer_samples = modem.min_decode_samples();  // < 2x
  EXPECT_THROW(StreamReceiver(modem, params), std::invalid_argument);
}

// ------------------------------------------------------ client wiring -----

TEST(ClientStreaming, OnAudioRoutesBurstsIntoTheFrameChain) {
  OfdmModem modem(*modem::profiles::get("sonic-10k"));
  Rng rng(130);
  std::vector<Bytes> frames;
  for (int i = 0; i < 4; ++i) frames.push_back(random_bytes(rng, 60));
  auto stream = modem.modulate(frames);
  stream.insert(stream.begin(), 1200, 0.0f);
  stream.insert(stream.end(), 2500, 0.0f);

  core::SonicClient::Params params;
  core::SonicClient client(nullptr, params);
  std::size_t bursts = 0;
  feed_chunked(std::span<const float>(stream), rng, 882,
               [&](std::span<const float> c) { bursts += client.on_audio(c); });
  bursts += client.end_audio();

  EXPECT_EQ(bursts, 1u);
  // Random bytes are not valid wire frames; they must all be counted, either
  // as received or as rejected by validation — proof the audio -> burst ->
  // frame chain is wired through.
  EXPECT_EQ(client.frames_received() + client.frames_dropped_malformed(), frames.size());
  EXPECT_EQ(client.metrics().counter_value("rx_bursts"), 1u);

  // end_audio() rewinds: a second broadcast window starts a fresh stream.
  EXPECT_NO_THROW((void)client.on_audio(std::span<const float>(stream).first(882)));
}

// A default client caps its receive buffer at twice the profile's header
// need, so an endless preamble plateau (a tone periodic in fft_size/2) is
// dropped from the front once it fills that, not once it reaches 8 MB.
TEST(ClientStreaming, DefaultBufferCapIsTwiceTheHeaderNeed) {
  core::SonicClient client(nullptr, core::SonicClient::Params{});
  const OfdmModem modem(*modem::profiles::get("sonic-10k"));
  const std::size_t cap = 2 * modem.min_decode_samples();
  const int period = modem.profile().fft_size / 2;
  constexpr std::size_t kChunk = 882;
  std::vector<float> chunk(kChunk);
  std::size_t n = 0;
  for (int i = 0; i < 3000; ++i) {
    for (auto& s : chunk) {
      s = 0.4f * static_cast<float>(std::sin(util::kTwoPi * static_cast<double>(n % static_cast<std::size_t>(period)) / period));
      ++n;
    }
    (void)client.on_audio(chunk);
  }
  (void)client.end_audio();
  const auto high_water = client.metrics().histogram("rx_buffered_high_water").snapshot();
  ASSERT_EQ(high_water.count, 1u);
  EXPECT_LE(high_water.max, static_cast<double>(cap + kChunk));
  EXPECT_GT(client.metrics().counter_value("rx_samples_dropped"), 0u);
}

// Regression: reaching the cap dropped the oldest audio with a vector
// erase, moving the whole buffer, and restarted the scan at the oldest
// sample left, rescanning it all, on every push; an endless plateau cost
// O(cap) per chunk: 3000 chunks took 16 s at a 2 097 152-sample cap against
// 0.18 s at the default. The buffer now advances a head offset and
// compacts only when the dead prefix outgrows the live samples, and the
// scan restarts where it stood; the large cap may cost at most ~3x the
// default (best of two runs each).
TEST(ClientStreaming, LargeBufferCapCostsAboutTheDefaultPerChunk) {
  const OfdmModem modem(*modem::profiles::get("sonic-10k"));
  const int period = modem.profile().fft_size / 2;
  constexpr std::size_t kChunk = 882;
  const auto plateau_seconds = [&](std::size_t cap) {
    StreamReceiverParams params;
    params.max_buffer_samples = cap;
    StreamReceiver rx(modem, params);
    std::vector<float> chunk(kChunk);
    std::size_t n = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 3000; ++i) {
      for (auto& s : chunk) {
        s = 0.4f * static_cast<float>(std::sin(util::kTwoPi * static_cast<double>(n % static_cast<std::size_t>(period)) / period));
        ++n;
      }
      EXPECT_TRUE(rx.push(chunk).empty());
      EXPECT_LE(rx.samples_buffered(), std::max(cap, 2 * modem.min_decode_samples()));
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  const double at_default = std::min(plateau_seconds(0), plateau_seconds(0));
  const double at_large = std::min(plateau_seconds(std::size_t{1} << 21), plateau_seconds(std::size_t{1} << 21));
  EXPECT_LE(at_large, 3.0 * at_default) << at_large << " s vs " << at_default << " s";
}

TEST(ClientStreaming, UnknownDownlinkProfileIsRejected) {
  core::SonicClient::Params params;
  params.downlink_profile = "no-such-profile";
  EXPECT_THROW(core::SonicClient(nullptr, params), std::invalid_argument);
}

}  // namespace
}  // namespace sonic
