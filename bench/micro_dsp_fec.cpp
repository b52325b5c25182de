// Microbenchmarks (google-benchmark) for the hot kernels: FFT, Viterbi,
// Reed-Solomon, the image codecs and the end-to-end modem. These bound the
// CPU cost of running a SONIC client on low-end hardware.
//
// Two modes:
//
//  * default — the google-benchmark suite (BM_* cases below).
//  * --micro [--json FILE] — the perf-regression harness: every optimized
//    kernel timed against its kept reference implementation, results
//    printed as machine-readable BENCH_MICRO lines and optionally written
//    as JSON (scripts/bench_micro.sh stores them in BENCH_MICRO.json so
//    the speedups are recorded, not claimed).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/resampler.hpp"
#include "fec/convolutional.hpp"
#include "fec/fountain.hpp"
#include "fec/reed_solomon.hpp"
#include "fm/acoustic.hpp"
#include "fm/fm_modem.hpp"
#include "image/column_codec.hpp"
#include "image/dct_codec.hpp"
#include "modem/ofdm.hpp"
#include "modem/profile.hpp"
#include "oracles/column_reference.hpp"
#include "oracles/fm_reference.hpp"
#include "oracles/fountain_reference.hpp"
#include "oracles/kernel_reference.hpp"
#include "oracles/resampler_reference.hpp"
#include "oracles/viterbi_reference.hpp"
#include "sonic/framing.hpp"
#include "util/rng.hpp"
#include "web/corpus.hpp"
#include "web/html.hpp"
#include "web/layout.hpp"

using namespace sonic;

namespace {

util::Bytes random_bytes(util::Rng& rng, std::size_t n) {
  util::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

std::vector<dsp::cplx> random_signal(util::Rng& rng, std::size_t n) {
  std::vector<dsp::cplx> v(n);
  for (auto& x : v) x = dsp::cplx(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  return v;
}

// Noisy soft bits for a payload round-tripped through `codec`.
std::vector<float> noisy_soft_bits(const fec::ConvolutionalCodec& codec, std::size_t payload_len,
                                   util::Rng& rng) {
  const auto payload = random_bytes(rng, payload_len);
  const auto coded = codec.encode(payload);
  std::vector<float> soft(codec.encoded_bits(payload_len));
  util::BitReader br(coded);
  for (auto& s : soft) {
    const float noisy = static_cast<float>(br.bit()) + static_cast<float>(rng.normal(0.0, 0.2));
    s = std::min(1.0f, std::max(0.0f, noisy));
  }
  return soft;
}

// ------------------------------------------------- google-benchmark suite ---

void BM_Fft1024(benchmark::State& state) {
  util::Rng rng(1);
  const auto data = random_signal(rng, 1024);
  const auto plan = dsp::FftPlan::get(1024);
  // Preallocated scratch restored OUTSIDE the timed region (manual timing),
  // so the benchmark isolates the transform instead of also measuring a
  // per-iteration std::vector copy.
  std::vector<dsp::cplx> scratch(1024);
  for (auto _ : state) {
    std::copy(data.begin(), data.end(), scratch.begin());
    const auto t0 = std::chrono::steady_clock::now();
    plan->forward(scratch);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(scratch.data());
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Fft1024)->UseManualTime();

void BM_Fft1024Legacy(benchmark::State& state) {
  util::Rng rng(1);
  const auto data = random_signal(rng, 1024);
  std::vector<dsp::cplx> scratch(1024);
  for (auto _ : state) {
    std::copy(data.begin(), data.end(), scratch.begin());
    const auto t0 = std::chrono::steady_clock::now();
    oracles::fft_recurrence(scratch);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(scratch.data());
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Fft1024Legacy)->UseManualTime();

void BM_ViterbiV29Decode100B(benchmark::State& state) {
  fec::ConvolutionalCodec codec({fec::ConvCode::kV29, fec::PunctureRate::kRate1_2});
  util::Rng rng(2);
  const auto soft = noisy_soft_bits(codec, 100, rng);
  for (auto _ : state) {
    auto out = codec.decode_soft(soft, 100);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_ViterbiV29Decode100B);

void BM_ViterbiV29Decode100BReference(benchmark::State& state) {
  const fec::ConvSpec spec{fec::ConvCode::kV29, fec::PunctureRate::kRate1_2};
  fec::ConvolutionalCodec codec(spec);
  util::Rng rng(2);
  const auto soft = noisy_soft_bits(codec, 100, rng);
  for (auto _ : state) {
    auto out = oracles::decode_soft_reference(spec, soft, 100);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_ViterbiV29Decode100BReference);

void BM_FountainXor200B(benchmark::State& state) {
  util::Rng rng(6);
  util::Bytes dst = random_bytes(rng, 200);
  const util::Bytes src = random_bytes(rng, 200);
  for (auto _ : state) {
    fec::xor_into(dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_FountainXor200B);

void BM_OfdmAnalyzeSymbol(benchmark::State& state) {
  modem::OfdmModem modem(*modem::profiles::get("sonic-10k"));
  util::Rng rng(7);
  std::vector<float> audio(static_cast<std::size_t>(modem.profile().fft_size) * 4);
  for (auto& s : audio) s = static_cast<float>(rng.uniform(-0.5, 0.5));
  for (auto _ : state) {
    auto bins = modem::OfdmKernelProbe::analyze(modem, audio, 128);
    benchmark::DoNotOptimize(bins.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          modem.profile().fft_size);
}
BENCHMARK(BM_OfdmAnalyzeSymbol);

void BM_ReedSolomonDecode(benchmark::State& state) {
  fec::ReedSolomon rs(32);
  util::Rng rng(3);
  const auto payload = random_bytes(rng, 223);
  const auto clean = rs.encode(payload);
  for (auto _ : state) {
    auto block = clean;
    block[10] ^= 0x55;
    block[100] ^= 0xaa;  // 2 errors: typical work
    auto corrected = rs.decode(block);
    benchmark::DoNotOptimize(corrected);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 223);
}
BENCHMARK(BM_ReedSolomonDecode);

void BM_SwebpEncodeQ10(benchmark::State& state) {
  web::PkCorpus corpus;
  const auto page = web::render_html(corpus.html(corpus.pages()[0], 0),
                                     web::LayoutParams{360, 2000, 12, 2});
  for (auto _ : state) {
    auto coded = image::swebp_encode(page.image, 10);
    benchmark::DoNotOptimize(coded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * page.image.width() *
                          page.image.height() * 3);
}
BENCHMARK(BM_SwebpEncodeQ10);

void BM_ColumnCodecEncode(benchmark::State& state) {
  web::PkCorpus corpus;
  const auto page = web::render_html(corpus.html(corpus.pages()[0], 0),
                                     web::LayoutParams{360, 2000, 12, 2});
  for (auto _ : state) {
    auto segments = image::column_encode(page.image, {10, 94});
    benchmark::DoNotOptimize(segments);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * page.image.width() *
                          page.image.height() * 3);
}
BENCHMARK(BM_ColumnCodecEncode);

void BM_OfdmModulate16Frames(benchmark::State& state) {
  modem::OfdmModem modem(*modem::profiles::get("sonic-10k"));
  util::Rng rng(4);
  std::vector<util::Bytes> frames;
  for (int i = 0; i < 16; ++i) frames.push_back(random_bytes(rng, 100));
  for (auto _ : state) {
    auto audio = modem.modulate(frames);
    benchmark::DoNotOptimize(audio);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1600);
}
BENCHMARK(BM_OfdmModulate16Frames);

void BM_OfdmReceive16Frames(benchmark::State& state) {
  modem::OfdmModem modem(*modem::profiles::get("sonic-10k"));
  util::Rng rng(5);
  std::vector<util::Bytes> frames;
  for (int i = 0; i < 16; ++i) frames.push_back(random_bytes(rng, 100));
  const auto audio = modem.modulate(frames);
  for (auto _ : state) {
    auto burst = modem.receive_one(audio);
    benchmark::DoNotOptimize(burst);
  }
  // Real-time factor: processed audio seconds per wall second matters for
  // the phone client.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(audio.size()));
}
BENCHMARK(BM_OfdmReceive16Frames);

void BM_RenderCorpusPage(benchmark::State& state) {
  web::PkCorpus corpus;
  const std::string html = corpus.html(corpus.pages()[0], 0);
  for (auto _ : state) {
    auto page = web::render_html(html, web::LayoutParams{1080, 10000, 24, 2});
    benchmark::DoNotOptimize(page);
  }
}
BENCHMARK(BM_RenderCorpusPage);

// ------------------------------------------------ --micro before/after ---

// ns/op of `fn` (one op per call): warm up briefly, then time batches until
// at least `min_seconds` of measured work has accumulated.
double measure_ns_per_op(const std::function<void()>& fn, double min_seconds = 0.2) {
  using clock = std::chrono::steady_clock;
  // Warmup + batch sizing: grow the batch until one batch costs >= ~2 ms.
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s >= 2e-3 || batch >= (std::size_t{1} << 24)) break;
    batch *= 4;
  }
  double total_s = 0;
  std::size_t total_ops = 0;
  double best_ns = 0;
  while (total_s < min_seconds) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    const double ns = s * 1e9 / static_cast<double>(batch);
    if (best_ns == 0 || ns < best_ns) best_ns = ns;  // min over batches rejects scheduler noise
    total_s += s;
    total_ops += batch;
  }
  return best_ns;
}

struct MicroCase {
  std::string kernel;
  double items_per_op;      // for items/s (samples, bytes, ...)
  std::string items_unit;
  std::function<void()> before;
  std::function<void()> after;
};

struct MicroResult {
  std::string kernel;
  std::string items_unit;
  double before_ns_op;
  double after_ns_op;
  double speedup;
  double after_items_per_s;
};

std::vector<MicroCase> build_micro_cases() {
  std::vector<MicroCase> cases;
  auto rng = std::make_shared<util::Rng>(42);

  // FFT-1024 / FFT-4096: forward+inverse pair per op keeps the buffer
  // bounded across iterations; both variants do identical work shapes.
  for (std::size_t n : {std::size_t{1024}, std::size_t{4096}}) {
    auto buf_before = std::make_shared<std::vector<dsp::cplx>>(random_signal(*rng, n));
    auto buf_after = std::make_shared<std::vector<dsp::cplx>>(*buf_before);
    auto plan = dsp::FftPlan::get(n);
    cases.push_back(MicroCase{
        "fft_" + std::to_string(n), static_cast<double>(2 * n), "samples",
        [buf_before] {
          oracles::fft_recurrence(*buf_before);
          oracles::ifft_recurrence(*buf_before);
          benchmark::DoNotOptimize(buf_before->data());
        },
        [buf_after, plan] {
          plan->forward(*buf_after);
          plan->inverse(*buf_after);
          benchmark::DoNotOptimize(buf_after->data());
        }});
  }

  // The two transforms the modem runs, one per op: the receiver's
  // fft_size/2-point forward analysis of packed audio, and synth_symbol's
  // fft_size-point inverse of a Hermitian spectrum (sonic-10k's used bins).
  // Before is the strided radix-2 loop the four-lane plan replaced, bit for
  // bit. Each op first restores its input, so both sides include one copy.
  {
    const auto profile = *modem::profiles::get("sonic-10k");
    const std::size_t nfft = static_cast<std::size_t>(profile.fft_size);
    auto packed = std::make_shared<std::vector<dsp::cplx>>(nfft / 2);
    for (auto& v : *packed) {
      v = dsp::cplx(static_cast<float>(rng->uniform(-0.5, 0.5)), static_cast<float>(rng->uniform(-0.5, 0.5)));
    }
    auto spectrum = std::make_shared<std::vector<dsp::cplx>>(nfft, dsp::cplx(0, 0));
    for (int i = 0; i < profile.num_subcarriers; ++i) {
      const std::size_t b = static_cast<std::size_t>(profile.first_bin() + i);
      const dsp::cplx v(rng->bernoulli(0.5) ? 0.7f : -0.7f, rng->bernoulli(0.5) ? 0.7f : -0.7f);
      (*spectrum)[b] = v;
      (*spectrum)[nfft - b] = std::conj(v);
    }
    for (auto [name, input, inverse] :
         {std::tuple{"fft_512_fwd", packed, false}, std::tuple{"ifft_1024", spectrum, true}}) {
      auto buf = std::make_shared<std::vector<dsp::cplx>>(input->size());
      auto plan = dsp::FftPlan::get(input->size());
      cases.push_back(MicroCase{
          name, static_cast<double>(input->size()), "samples",
          [input, buf, inverse] {
            std::copy(input->begin(), input->end(), buf->begin());
            oracles::fft_radix2_reference(*buf, inverse);
            benchmark::DoNotOptimize(buf->data());
          },
          [input, buf, plan, inverse] {
            std::copy(input->begin(), input->end(), buf->begin());
            if (inverse) {
              plan->inverse(*buf);
            } else {
              plan->forward(*buf);
            }
            benchmark::DoNotOptimize(buf->data());
          }});
    }
  }

  // Viterbi: the paper's inner code (V2,9) and the header code (V2,7),
  // noisy soft bits, 100-byte payloads.
  for (auto [name, code] : {std::pair{"viterbi_v29_100B", fec::ConvCode::kV29},
                            std::pair{"viterbi_v27_100B", fec::ConvCode::kV27}}) {
    const fec::ConvSpec spec{code, fec::PunctureRate::kRate1_2};
    auto codec = std::make_shared<fec::ConvolutionalCodec>(spec);
    auto soft = std::make_shared<std::vector<float>>(noisy_soft_bits(*codec, 100, *rng));
    cases.push_back(MicroCase{
        name, 100.0, "bytes",
        [spec, soft] {
          auto out = oracles::decode_soft_reference(spec, *soft, 100);
          benchmark::DoNotOptimize(out.data());
        },
        [codec, soft] {
          auto out = codec->decode_soft(*soft, 100);
          benchmark::DoNotOptimize(out.data());
        }});
  }

  // Fountain repair-row XOR at the carousel's typical frame size and at a
  // page-sized row.
  for (std::size_t len : {std::size_t{200}, std::size_t{4096}}) {
    auto dst_b = std::make_shared<util::Bytes>(random_bytes(*rng, len));
    auto dst_a = std::make_shared<util::Bytes>(*dst_b);
    auto src = std::make_shared<util::Bytes>(random_bytes(*rng, len));
    cases.push_back(MicroCase{
        "fountain_xor_" + std::to_string(len) + "B", static_cast<double>(len), "bytes",
        [dst_b, src] {
          oracles::xor_into_reference(*dst_b, *src);
          benchmark::DoNotOptimize(dst_b->data());
        },
        [dst_a, src] {
          fec::xor_into(*dst_a, *src);
          benchmark::DoNotOptimize(dst_a->data());
        }});
  }

  // LT repair generation for a 9000-block page (a long page at the default
  // layout). fountain_neighbors_9000 is one symbol's neighbour set: before
  // the uniform_int/sort draw, after the reciprocal/mask draw; each op
  // takes the next repair seq. fountain_repair_cycle_9000 is one carousel
  // cycle's 30 % tail, 2700 symbols: before the per-symbol oracle encoder,
  // after the batched Four-Russians pass.
  {
    constexpr std::size_t k = 9000;
    constexpr std::uint32_t page_id = 0x9000;
    auto seq_b = std::make_shared<std::uint32_t>(0);
    auto seq_a = std::make_shared<std::uint32_t>(0);
    cases.push_back(MicroCase{
        "fountain_neighbors_9000", static_cast<double>(k), "blocks",
        [seq_b] {
          auto out = oracles::fountain_neighbors_reference(page_id, (*seq_b)++ % 65536, k);
          benchmark::DoNotOptimize(out.data());
        },
        [seq_a] {
          auto out = fec::fountain_neighbors(page_id, (*seq_a)++ % 65536, k);
          benchmark::DoNotOptimize(out.data());
        }});

    std::vector<util::Bytes> blocks(k);
    for (auto& b : blocks) b = random_bytes(*rng, 91);
    auto oracle = std::make_shared<oracles::LtEncoderReference>(page_id, blocks);
    auto encoder = std::make_shared<fec::FountainEncoder>(page_id, blocks);
    auto seqs = std::make_shared<std::vector<std::uint32_t>>(2700);
    for (std::size_t i = 0; i < seqs->size(); ++i) (*seqs)[i] = static_cast<std::uint32_t>(i);
    cases.push_back(MicroCase{
        "fountain_repair_cycle_9000", static_cast<double>(seqs->size()), "symbols",
        [oracle, seqs] {
          for (std::uint32_t seq : *seqs) {
            auto out = oracle->repair_symbol(seq);
            benchmark::DoNotOptimize(out.data());
          }
        },
        [encoder, seqs] {
          auto out = encoder->repair_symbols(*seqs);
          benchmark::DoNotOptimize(out.data());
        }});
  }

  // FIR block filtering: 63-tap program low-pass over a 4096-sample chunk.
  {
    auto taps = std::make_shared<std::vector<float>>(dsp::design_lowpass(6000.0, 44100.0, 63));
    auto x = std::make_shared<std::vector<float>>(4096);
    for (auto& v : *x) v = static_cast<float>(rng->normal());
    auto filt = std::make_shared<dsp::FirFilter>(*taps);
    cases.push_back(MicroCase{
        "fir_63tap_4096", 4096.0, "samples",
        [taps, x] {
          auto out = oracles::fir_reference(*taps, *x);
          benchmark::DoNotOptimize(out.data());
        },
        [filt, x] {
          auto out = filt->process(*x);
          benchmark::DoNotOptimize(out.data());
        }});
  }

  // One OFDM analyze_symbol: before = the old allocating per-call shape
  // (fresh FFT buffer + twiddle recurrence + fresh output vector), after =
  // the plan-based allocation-free member-scratch path.
  {
    auto modem = std::make_shared<modem::OfdmModem>(*modem::profiles::get("sonic-10k"));
    const std::size_t nfft = static_cast<std::size_t>(modem->profile().fft_size);
    const std::size_t nsub = static_cast<std::size_t>(modem->profile().num_subcarriers);
    const std::size_t first_bin = static_cast<std::size_t>(
        modem->profile().first_bin());
    auto audio = std::make_shared<std::vector<float>>(nfft * 4);
    for (auto& s : *audio) s = static_cast<float>(rng->uniform(-0.5, 0.5));
    cases.push_back(MicroCase{
        "ofdm_analyze_symbol", static_cast<double>(nfft), "samples",
        [audio, nfft, nsub, first_bin] {
          std::vector<dsp::cplx> spec(nfft, dsp::cplx(0, 0));
          for (std::size_t i = 0; i < nfft; ++i) spec[i] = dsp::cplx((*audio)[128 + i], 0.0f);
          oracles::fft_recurrence(spec);
          std::vector<dsp::cplx> out(nsub);
          for (std::size_t i = 0; i < nsub; ++i) out[i] = spec[first_bin + i] / 8.0f;
          benchmark::DoNotOptimize(out.data());
        },
        [modem, audio] {
          auto bins = modem::OfdmKernelProbe::analyze(*modem, *audio, 128);
          benchmark::DoNotOptimize(bins.data());
        }});
  }

  // Resampling on 0.1 s of program audio: the FM modulator's 1:5 upsampler
  // (44.1 -> 220.5 kHz), the demodulator's 5:1 stage (before: 63-tap
  // low-pass then the per-tap-kernel decimator; after: the fused
  // Resampler::decimator), and the acoustic clock-skew stage at +30 and
  // -17 ppm. Before is the per-tap kernel oracle, after the table-driven
  // path.
  {
    auto audio = std::make_shared<std::vector<float>>(4410);
    for (auto& v : *audio) v = static_cast<float>(rng->uniform(-0.7, 0.7));
    auto iq_audio = std::make_shared<std::vector<float>>(oracles::resample_reference(*audio, 5.0));
    auto up = std::make_shared<dsp::Resampler>(5.0);
    cases.push_back(MicroCase{
        "resample_up5", static_cast<double>(audio->size()), "samples",
        [audio] {
          auto out = oracles::resample_reference(*audio, 5.0);
          benchmark::DoNotOptimize(out.data());
        },
        [up, audio] {
          auto out = up->process(*audio);
          benchmark::DoNotOptimize(out.data());
        }});

    // The FM modulator's pattern: 512-sample pushes, then the flush.
    auto up_stream = std::make_shared<dsp::Resampler>(5.0);
    cases.push_back(MicroCase{
        "resample_up5_stream", static_cast<double>(audio->size()), "samples",
        [audio] {
          auto out = oracles::resample_reference(*audio, 5.0);
          benchmark::DoNotOptimize(out.data());
        },
        [up_stream, audio] {
          up_stream->reset();
          for (std::size_t pos = 0; pos < audio->size(); pos += 512) {
            auto out = up_stream->push(
                std::span(*audio).subspan(pos, std::min<std::size_t>(512, audio->size() - pos)));
            benchmark::DoNotOptimize(out.data());
          }
          auto tail = up_stream->flush();
          benchmark::DoNotOptimize(tail.data());
        }});

    const auto taps = dsp::design_lowpass(15000.0, 220500.0, 63);
    auto lp = std::make_shared<dsp::FirFilter>(taps);
    auto down = std::make_shared<dsp::Resampler>(dsp::Resampler::decimator(5, taps));
    cases.push_back(MicroCase{
        "resample_down5", static_cast<double>(iq_audio->size()), "samples",
        [lp, iq_audio] {
          lp->reset();
          auto out = oracles::resample_reference(lp->process(*iq_audio), 0.2);
          benchmark::DoNotOptimize(out.data());
        },
        [down, iq_audio] {
          down->reset();
          auto out = down->push(*iq_audio);
          auto tail = down->flush();
          benchmark::DoNotOptimize(out.data());
          benchmark::DoNotOptimize(tail.data());
        }});

    auto skew = std::make_shared<dsp::Resampler>(1.0 + 30e-6);
    cases.push_back(MicroCase{
        "resample_skew", static_cast<double>(audio->size()), "samples",
        [audio] {
          auto out = oracles::resample_reference(*audio, 1.0 + 30e-6);
          benchmark::DoNotOptimize(out.data());
        },
        [skew, audio] {
          auto out = skew->process(*audio);
          benchmark::DoNotOptimize(out.data());
        }});

    // Clock skew below 1 (-17 ppm): its cutoff just under 1 widens the
    // interpolated grid to 11 taps.
    auto skew_down = std::make_shared<dsp::Resampler>(1.0 - 17e-6);
    cases.push_back(MicroCase{
        "resample_skew_down", static_cast<double>(audio->size()), "samples",
        [audio] {
          auto out = oracles::resample_reference(*audio, 1.0 - 17e-6);
          benchmark::DoNotOptimize(out.data());
        },
        [skew_down, audio] {
          auto out = skew_down->process(*audio);
          benchmark::DoNotOptimize(out.data());
        }});

    // An acoustic trial below ratio 1: a fresh resampler per op, its grid
    // built for it, as each trial draws its own skew. The skew steps by
    // 10^-12 per op, so no op finds a grid built before.
    auto ppm = std::make_shared<double>(17.0);
    cases.push_back(MicroCase{
        "resample_skew_down_fresh", static_cast<double>(audio->size()), "samples",
        [audio, ppm] {
          *ppm += 1e-6;
          auto out = oracles::resample_reference(*audio, 1.0 - *ppm * 1e-6);
          benchmark::DoNotOptimize(out.data());
        },
        [audio, ppm] {
          *ppm += 1e-6;
          auto out = dsp::Resampler(1.0 - *ppm * 1e-6).process(*audio);
          benchmark::DoNotOptimize(out.data());
        }});
  }

  // Gaussian draws, 44100 floats per op (0.1 s of RF noise). normal_polar:
  // one Rng::normal call per float against the batched Rng::fill_normal,
  // bit-identical. normal_ziggurat: that fill_normal, which the RF channel
  // used, against the float ziggurat it uses now. Generators keep
  // advancing, the same work per op.
  {
    constexpr std::size_t kDeviates = 44100;
    auto out = std::make_shared<std::vector<float>>(kDeviates);
    auto scalar = std::make_shared<util::Rng>(46);
    auto batch = std::make_shared<util::Rng>(47);
    auto zig = std::make_shared<util::ZigguratNormal>(util::Rng(48));
    cases.push_back(MicroCase{
        "normal_polar", static_cast<double>(kDeviates), "deviates",
        [out, scalar] {
          for (auto& v : *out) v = static_cast<float>(scalar->normal());
          benchmark::DoNotOptimize(out->data());
        },
        [out, batch] {
          batch->fill_normal(*out);
          benchmark::DoNotOptimize(out->data());
        }});
    cases.push_back(MicroCase{
        "normal_ziggurat", static_cast<double>(kDeviates), "deviates",
        [out, batch] {
          batch->fill_normal(*out);
          benchmark::DoNotOptimize(out->data());
        },
        [out, zig] {
          zig->fill(*out);
          benchmark::DoNotOptimize(out->data());
        }});
  }

  // The FM stages on 0.1 s of sonic-10k OFDM audio (4410 samples, 22050 IQ
  // samples): before is the per-sample oracle, after the vector kernels and
  // the bulk ziggurat draw. rf_awgn is at RSSI -86 dB; its before is the
  // scalar reference ziggurat, one trial per op, and its after one channel
  // whose generator keeps advancing, the same work per op.
  {
    const modem::OfdmModem modem(*modem::profiles::get("sonic-10k"));
    auto audio = std::make_shared<std::vector<float>>(
        modem.modulate({random_bytes(*rng, 200), random_bytes(*rng, 200)}));
    audio->resize(4410, 0.0f);
    const fm::FmParams params;
    auto iq = std::make_shared<std::vector<fm::cplx>>(fm::FmModulator(params).modulate(*audio));
    cases.push_back(MicroCase{
        "fm_modulate", static_cast<double>(audio->size()), "samples",
        [audio, params] {
          auto out = oracles::fm_modulate_reference(*audio, params);
          benchmark::DoNotOptimize(out.data());
        },
        [audio, params] {
          auto out = fm::FmModulator(params).modulate(*audio);
          benchmark::DoNotOptimize(out.data());
        }});

    fm::RfChannelParams rf_params;
    rf_params.rssi_db = -86.0;
    auto rf = std::make_shared<fm::RfChannel>(rf_params, util::Rng(43));
    cases.push_back(MicroCase{
        "rf_awgn", static_cast<double>(iq->size()), "iq_samples",
        [iq, rf_params] {
          auto out = oracles::rf_channel_reference(*iq, rf_params, util::Rng(43));
          benchmark::DoNotOptimize(out.data());
        },
        [iq, rf] {
          auto out = rf->process(*iq);
          benchmark::DoNotOptimize(out.data());
        }});

    auto noisy = std::make_shared<std::vector<fm::cplx>>(fm::RfChannel(rf_params, util::Rng(44)).process(*iq));
    auto demod = std::make_shared<fm::FmDemodulator>(params);
    cases.push_back(MicroCase{
        "fm_demodulate", static_cast<double>(noisy->size()), "iq_samples",
        [noisy, params] {
          auto out = oracles::fm_demodulate_arg_reference(*noisy, params);
          benchmark::DoNotOptimize(out.data());
        },
        [noisy, demod] {
          demod->reset();
          auto out = demod->demodulate(*noisy);
          auto tail = demod->finish();
          benchmark::DoNotOptimize(out.data());
          benchmark::DoNotOptimize(tail.data());
        }});

    fm::AcousticParams air;
    air.distance_m = 0.2;
    cases.push_back(MicroCase{
        "acoustic_20cm", static_cast<double>(audio->size()), "samples",
        [audio, air] {
          auto out = oracles::acoustic_reference(*audio, air, util::Rng(45));
          benchmark::DoNotOptimize(out.data());
        },
        [audio, air] {
          fm::AcousticChannel channel(air, util::Rng(45));
          auto out = channel.process(*audio);
          auto tail = channel.finish();
          benchmark::DoNotOptimize(out.data());
          benchmark::DoNotOptimize(tail.data());
        }});
  }

  // The column codec on one corpus page at the default 1080-px layout:
  // before is the per-pixel oracle, after the strip codec. The decode
  // drops every 7th segment, as a lossy broadcast would.
  {
    const web::PkCorpus corpus;
    auto page = std::make_shared<image::Raster>(
        web::render_html(corpus.html(corpus.pages()[0], 0), web::LayoutParams{}).image);
    const image::ColumnCodecParams params{10, 94};
    const double pixels = static_cast<double>(page->width()) * page->height();
    cases.push_back(MicroCase{
        "column_encode_1080", pixels, "pixels",
        [page, params] {
          auto out = oracles::column_encode_reference(*page, params);
          benchmark::DoNotOptimize(out.data());
        },
        [page, params] {
          auto out = image::column_encode(*page, params);
          benchmark::DoNotOptimize(out.data());
        }});

    auto kept = std::make_shared<std::vector<image::ColumnSegment>>();
    const auto segments = image::column_encode(*page, params);
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (i % 7 != 3) kept->push_back(segments[i]);
    }
    cases.push_back(MicroCase{
        "column_decode_1080", pixels, "pixels",
        [page, kept, params] {
          auto out = oracles::column_decode_reference(page->width(), page->height(), *kept, params);
          benchmark::DoNotOptimize(out.mask.data());
        },
        [page, kept, params] {
          auto out = image::column_decode(page->width(), page->height(), *kept, params);
          benchmark::DoNotOptimize(out.mask.data());
        }});
  }

  // One capped corpus page built into its bundle at the default 1080-px
  // layout: before is the raster path (render_html, then make_bundle of
  // the raster), after the band path the broadcast pipeline takes
  // (layout_html, then make_bundle painting 64-row bands into the
  // encoder). Both parse the page's HTML.
  {
    const web::PkCorpus corpus;
    const web::LayoutParams layout;
    auto html = std::make_shared<std::string>();
    for (const web::PageRef& ref : corpus.pages()) {
      *html = corpus.html(ref, 0);
      if (web::layout_html(web::parse_html(*html), layout).height() == layout.max_height) break;
    }
    const image::ColumnCodecParams params{10, 94};
    const double pixels = static_cast<double>(layout.width) * layout.max_height;
    cases.push_back(MicroCase{
        "page_build_1080", pixels, "pixels",
        [html, layout, params] {
          auto bundle = core::make_bundle(1, "p.pk/", web::render_html(*html, layout), params);
          benchmark::DoNotOptimize(bundle.frames.data());
        },
        [html, layout, params] {
          auto bundle = core::make_bundle(1, "p.pk/", web::layout_html(web::parse_html(*html), layout), params);
          benchmark::DoNotOptimize(bundle.frames.data());
        }});
  }

  return cases;
}

int run_micro(const char* json_path) {
  const auto cases = build_micro_cases();
  std::vector<MicroResult> results;
  for (const auto& c : cases) {
    MicroResult r;
    r.kernel = c.kernel;
    r.items_unit = c.items_unit;
    r.before_ns_op = measure_ns_per_op(c.before);
    r.after_ns_op = measure_ns_per_op(c.after);
    r.speedup = r.before_ns_op / r.after_ns_op;
    r.after_items_per_s = c.items_per_op / (r.after_ns_op * 1e-9);
    std::printf("BENCH_MICRO kernel=%s before_ns_op=%.1f after_ns_op=%.1f speedup=%.2f "
                "after_items_per_s=%.3e unit=%s\n",
                r.kernel.c_str(), r.before_ns_op, r.after_ns_op, r.speedup,
                r.after_items_per_s, r.items_unit.c_str());
    results.push_back(std::move(r));
  }
  if (json_path) {
    std::FILE* f = std::fopen(json_path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"generated_by\": \"bench/micro_dsp_fec --micro\",\n  \"kernels\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"before_ns_op\": %.1f, \"after_ns_op\": %.1f, "
                   "\"speedup\": %.2f, \"after_items_per_s\": %.3e, \"items_unit\": \"%s\"}%s\n",
                   r.kernel.c_str(), r.before_ns_op, r.after_ns_op, r.speedup,
                   r.after_items_per_s, r.items_unit.c_str(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("BENCH_MICRO_JSON %s\n", json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool micro = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--micro") == 0) micro = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[i + 1];
  }
  if (micro) return run_micro(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
