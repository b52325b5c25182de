// Microbenchmarks (google-benchmark) for the hot kernels: FFT, Viterbi,
// Reed-Solomon, the image codecs and the end-to-end modem. These bound the
// CPU cost of running a SONIC client on low-end hardware.
//
// Three modes:
//
//  * default — the google-benchmark suite (BM_* cases below).
//  * --micro [--json FILE] — the perf-regression harness: every optimized
//    kernel timed against its kept reference implementation, results
//    printed as machine-readable BENCH_MICRO lines and optionally written
//    as JSON (scripts/bench_micro.sh stores them in BENCH_MICRO.json so
//    the speedups are recorded, not claimed), headed by the host
//    reference kernel's time, `ref_kernel_us`.
//  * --exhaustive-llr — the LLR soft-byte table, scalar and four-lane,
//    against its float definition on all 2^32 floats and both scrambler
//    flips (~25 s on four threads); exits 1 on any mismatch.
//    scripts/tier1.sh runs it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/resampler.hpp"
#include "fec/convolutional.hpp"
#include "fec/fountain.hpp"
#include "fec/llr_quantizer.hpp"
#include "fec/reed_solomon.hpp"
#include "fm/acoustic.hpp"
#include "fm/fm_modem.hpp"
#include "fm/link.hpp"
#include "image/column_codec.hpp"
#include "image/dct_codec.hpp"
#include "modem/ofdm.hpp"
#include "modem/packet.hpp"
#include "modem/profile.hpp"
#include "modem/qam.hpp"
#include "modem/stream_receiver.hpp"
#include "oracles/column_reference.hpp"
#include "oracles/fm_reference.hpp"
#include "oracles/fountain_reference.hpp"
#include "oracles/frozen_dsp.hpp"
#include "oracles/frozen_row_encoder.hpp"
#include "oracles/kernel_reference.hpp"
#include "oracles/modem_reference.hpp"
#include "oracles/resampler_reference.hpp"
#include "oracles/rs_reference.hpp"
#include "oracles/viterbi_reference.hpp"
#include "sonic/framing.hpp"
#include "util/cpu.hpp"
#include "util/lanes.hpp"
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

// Float soft bits as the soft bytes decode_soft takes.
std::vector<std::uint8_t> quantized(std::span<const float> soft) {
  std::vector<std::uint8_t> q(soft.size());
  std::transform(soft.begin(), soft.end(), q.begin(), fec::ConvolutionalCodec::quantize_soft);
  return q;
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
  const auto soft = quantized(noisy_soft_bits(codec, 100, rng));
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
                                     web::LayoutParams{360, 2000, 12});
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
                                     web::LayoutParams{360, 2000, 12});
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
    auto page = web::render_html(html, web::LayoutParams{1080, 10000, 24});
    benchmark::DoNotOptimize(page);
  }
}
BENCHMARK(BM_RenderCorpusPage);

// ------------------------------------------------ --micro before/after ---

// Batch size for `fn` (one op per call) after a brief warmup: grown until
// one batch costs >= ~2 ms.
std::size_t batch_size(const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s >= 2e-3 || batch >= (std::size_t{1} << 24)) return batch;
    batch *= 4;
  }
}

// ns/op of `before` and of `after`, timed in alternating batches until each
// side has at least `min_seconds` of measured work, so a change in the
// host's speed during the run reaches both sides alike. Each side keeps its
// fastest batch, which rejects scheduler noise.
std::pair<double, double> measure_ns_per_op(const std::function<void()>& before, const std::function<void()>& after,
                                            double min_seconds = 0.2) {
  using clock = std::chrono::steady_clock;
  const std::function<void()>* fns[2] = {&before, &after};
  const std::size_t batches[2] = {batch_size(before), batch_size(after)};
  double total_s[2] = {0, 0}, best_ns[2] = {0, 0};
  while (total_s[0] < min_seconds || total_s[1] < min_seconds) {
    for (int side = 0; side < 2; ++side) {
      const auto t0 = clock::now();
      for (std::size_t i = 0; i < batches[side]; ++i) (*fns[side])();
      const double s = std::chrono::duration<double>(clock::now() - t0).count();
      const double ns = s * 1e9 / static_cast<double>(batches[side]);
      if (best_ns[side] == 0 || ns < best_ns[side]) best_ns[side] = ns;
      total_s[side] += s;
    }
  }
  return {best_ns[0], best_ns[1]};
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

// `after` with util::simd_width() pinned to `width` on the timing thread for
// each op, so the guard holds around the timed work itself.
std::function<void()> pinned_to(util::SimdWidth width, std::function<void()> after) {
  return [width, after = std::move(after)] {
    const util::ScopedSimdWidth pin(width);
    after();
  };
}

std::vector<MicroCase> build_micro_cases() {
  std::vector<MicroCase> cases;
  auto rng = std::make_shared<util::Rng>(42);
  // The Viterbi and FM rows timed at both kernel widths: util::simd_width()
  // (no suffix) and the narrow instance (_sse2), each after-side under
  // pinned_to.
  const std::pair<const char*, util::SimdWidth> kWidths[] = {{"", util::simd_width()},
                                                              {"_sse2", util::SimdWidth::k128}};

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
    // Each at util::simd_width() (eight lanes on an AVX2 CPU), and in its
    // _sse2 row at four.
    for (auto [name, input, inverse] :
         {std::tuple{"fft_512_fwd", packed, false}, std::tuple{"ifft_1024", spectrum, true}}) {
      for (auto [suffix, width] : kWidths) {
        auto buf = std::make_shared<std::vector<dsp::cplx>>(input->size());
        auto plan = dsp::FftPlan::get(input->size());
        cases.push_back(MicroCase{
            std::string(name) + suffix, static_cast<double>(input->size()), "samples",
            [input, buf, inverse] {
              std::copy(input->begin(), input->end(), buf->begin());
              oracles::fft_radix2_reference(*buf, inverse);
              benchmark::DoNotOptimize(buf->data());
            },
            pinned_to(width, [input, buf, plan, inverse] {
              std::copy(input->begin(), input->end(), buf->begin());
              if (inverse) {
                plan->inverse(*buf);
              } else {
                plan->forward(*buf);
              }
              benchmark::DoNotOptimize(buf->data());
            })});
      }
    }
  }

  // Viterbi: the paper's inner code (V2,9) and the header code (V2,7),
  // noisy soft bits, 100-byte payloads. Before is the float per-state
  // decoder on the float soft bits, after decode_soft on their bytes: at
  // util::simd_width() (16 lanes on an AVX2 CPU), and in the _sse2 row at 8
  // lanes. Each op decodes the next of 64 distinct noisy frames, so the
  // branch predictor cannot learn one frame's traceback path.
  constexpr std::size_t kViterbiFrames = 64;
  for (auto [name, code] : {std::pair{"viterbi_v29_100B", fec::ConvCode::kV29},
                            std::pair{"viterbi_v27_100B", fec::ConvCode::kV27}}) {
    const fec::ConvSpec spec{code, fec::PunctureRate::kRate1_2};
    auto codec = std::make_shared<fec::ConvolutionalCodec>(spec);
    auto soft = std::make_shared<std::vector<std::vector<float>>>();
    auto bytes = std::make_shared<std::vector<std::vector<std::uint8_t>>>();
    for (std::size_t f = 0; f < kViterbiFrames; ++f) {
      soft->push_back(noisy_soft_bits(*codec, 100, *rng));
      bytes->push_back(quantized(soft->back()));
    }
    auto reference = [spec, soft, next = std::make_shared<std::size_t>(0)] {
      auto out = oracles::decode_soft_reference(spec, (*soft)[(*next)++ % kViterbiFrames], 100);
      benchmark::DoNotOptimize(out.data());
    };
    for (auto [suffix, width] : kWidths) {
      cases.push_back(MicroCase{std::string(name) + suffix, 100.0, "bytes", reference,
                                pinned_to(width, [codec, bytes, next = std::make_shared<std::size_t>(0)] {
                                  auto out = codec->decode_soft((*bytes)[(*next)++ % kViterbiFrames], 100);
                                  benchmark::DoNotOptimize(out.data());
                                })});
    }
  }

  // v29 on a 100-byte frame whose hard decisions are already a codeword
  // (confident soft bits, no error, no erasure): after takes the trellis
  // bypass; before is the ACS and traceback, reached by erasing both soft
  // bits of the first step. Own Rng, like the cases below.
  {
    const fec::ConvSpec spec{fec::ConvCode::kV29, fec::PunctureRate::kRate1_2};
    auto codec = std::make_shared<fec::ConvolutionalCodec>(spec);
    util::Rng clean_rng(44);
    const auto coded = codec->encode(random_bytes(clean_rng, 100));
    std::vector<float> soft(codec->encoded_bits(100));
    util::BitReader br(coded);
    for (auto& s : soft) s = br.bit() ? static_cast<float>(clean_rng.uniform(0.6, 1.0)) : static_cast<float>(clean_rng.uniform(0.0, 0.4));
    auto clean = std::make_shared<std::vector<std::uint8_t>>(quantized(soft));
    auto erased = std::make_shared<std::vector<std::uint8_t>>(*clean);
    (*erased)[0] = (*erased)[1] = fec::ConvolutionalCodec::kSoftErasure;
    cases.push_back(MicroCase{
        "viterbi_v29_clean_100B", 100.0, "bytes",
        [codec, erased] {
          auto out = codec->decode_soft(*erased, 100);
          benchmark::DoNotOptimize(out.data());
        },
        [codec, clean] {
          auto out = codec->decode_soft(*clean, 100);
          benchmark::DoNotOptimize(out.data());
        }});
  }

  // A sonic-10k frame's received LLRs into its soft bytes, as the receiver
  // places them: after is PacketCodec::place_soft, one run per payload
  // symbol's bits; before is exp per bit into a float de-interleave, then
  // the quantizer pass (oracles::place_soft_reference, whose two buffers
  // are allocated per op). The LLRs' probabilities are uniform. Own Rng.
  {
    const auto profile = *modem::profiles::get("sonic-10k");
    const modem::PacketCodec codec(modem::PacketSpec{profile.conv, profile.rs_nroots});
    const std::size_t nbits = codec.encoded_bits(core::kFrameSize);
    const std::size_t run = static_cast<std::size_t>(profile.data_carriers()) *
                            static_cast<std::size_t>(modem::bits_per_symbol(profile.constellation));
    util::Rng soft_rng(46);
    auto soft = std::make_shared<std::vector<float>>(nbits);
    for (auto& v : *soft) {
      const float p = static_cast<float>(soft_rng.uniform());
      v = std::log(p / (1.0f - p));
    }
    auto frame = std::make_shared<std::vector<std::uint8_t>>(nbits);
    cases.push_back(MicroCase{
        "soft_place_sonic10k_frame", static_cast<double>(nbits), "bits",
        [soft] {
          auto out = oracles::place_soft_reference(*soft);
          benchmark::DoNotOptimize(out.data());
        },
        [soft, frame, run, nbits] {
          for (std::size_t first = 0; first < nbits; first += run) {
            modem::PacketCodec::place_soft(std::span<const float>(*soft).subspan(first, std::min(run, nbits - first)),
                                           first, *frame);
          }
          benchmark::DoNotOptimize(frame->data());
        }});
  }

  // One soft byte per received bit from its LLR and scrambler bit: before
  // is the float definition (fec::llr_soft_byte_reference: expf, the
  // divide, the flip and quantize_soft), after the fec::LlrQuantizer
  // lookup four bits a call, as place_soft runs it. 4096 LLRs whose
  // probabilities are uniform, with the scrambler sequence's first bits.
  // Own Rng.
  {
    util::Rng llr_rng(48);
    auto llr = std::make_shared<std::vector<float>>(4096);
    for (auto& v : *llr) {
      const float p = static_cast<float>(llr_rng.uniform());
      v = std::log(p / (1.0f - p));
    }
    auto out = std::make_shared<std::vector<std::uint8_t>>(llr->size());
    const auto prbs = modem::scrambler_sequence();
    cases.push_back(MicroCase{
        "llr_soft_byte", static_cast<double>(llr->size()), "bits",
        [llr, out, prbs] {
          for (std::size_t i = 0; i < llr->size(); ++i) (*out)[i] = fec::llr_soft_byte_reference((*llr)[i], prbs[i]);
          benchmark::DoNotOptimize(out->data());
        },
        [llr, out, prbs] {
          const auto& quantize = fec::LlrQuantizer::get();
          for (std::size_t i = 0; i < llr->size(); i += 4) {
            const auto q = quantize(util::load(llr->data() + i),
                                    util::Lanes4::I{prbs[i], prbs[i + 1], prbs[i + 2], prbs[i + 3]});
            std::copy(q.begin(), q.end(), out->begin() + static_cast<long>(i));
          }
          benchmark::DoNotOptimize(out->data());
        }});
  }

  // Reed-Solomon decode of a clean sonic-10k block (a frame, its CRC32 and
  // the profile's parity), where only the syndromes run. Before is the
  // per-root Horner loop of GF256::mul calls that decode ran on every
  // block. The block has its own Rng, so the cases after it see the same
  // inputs as before it was added.
  {
    const int nroots = modem::profiles::get("sonic-10k")->rs_nroots;
    auto rs = std::make_shared<fec::ReedSolomon>(nroots);
    util::Rng block_rng(43);
    auto block = std::make_shared<util::Bytes>(rs->encode(random_bytes(block_rng, core::kFrameSize + 4)));
    cases.push_back(MicroCase{
        "rs_decode_clean", static_cast<double>(block->size()), "bytes",
        [nroots, block] {
          auto synd = oracles::rs_syndromes_reference(nroots, *block);
          benchmark::DoNotOptimize(synd.data());
        },
        [rs, block] {
          auto corrected = rs->decode(*block);
          benchmark::DoNotOptimize(corrected);
        }});
  }

  // Reed-Solomon decode of a full 255-byte block at sonic-10k's nroots with
  // two byte errors: the error path (Berlekamp-Massey, Chien, Forney).
  // Before is the decoder it replaced (oracles::rs_decode_reference); each
  // op corrects a fresh copy of the block on both sides.
  {
    const int nroots = modem::profiles::get("sonic-10k")->rs_nroots;
    auto rs = std::make_shared<fec::ReedSolomon>(nroots);
    util::Rng block_rng(45);
    auto block = std::make_shared<util::Bytes>(rs->encode(random_bytes(block_rng, static_cast<std::size_t>(255 - nroots))));
    (*block)[10] ^= 0x55;
    (*block)[200] ^= 0xaa;
    auto work = std::make_shared<util::Bytes>(*block);
    cases.push_back(MicroCase{
        "rs_decode_2err", static_cast<double>(block->size()), "bytes",
        [nroots, block, work] {
          std::copy(block->begin(), block->end(), work->begin());
          auto corrected = oracles::rs_decode_reference(nroots, *work);
          benchmark::DoNotOptimize(corrected);
        },
        [rs, block, work] {
          std::copy(block->begin(), block->end(), work->begin());
          auto corrected = rs->decode(*work);
          benchmark::DoNotOptimize(corrected);
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
          auto out = oracles::fountain_neighbors(page_id, (*seq_a)++ % 65536, k);
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

  // One sonic-10k payload symbol through demod_symbol, each op the next of
  // a noisy 32-frame burst's payload symbols (more than 64, so no branch
  // learns one symbol): after is the modem's (analysis, equalizer divide,
  // pilot fit and phase correction in lanes, demap); before is the same
  // analysis, then the frozen per-carrier copy of the rest
  // (oracles::ofdm_demod_reference). Own Rng.
  {
    auto modem = std::make_shared<modem::OfdmModem>(*modem::profiles::get("sonic-10k"));
    auto mapper = std::make_shared<modem::QamMapper>(modem->profile().constellation);
    util::Rng demod_rng(49);
    std::vector<util::Bytes> frames(32);
    for (auto& f : frames) f = random_bytes(demod_rng, 100);
    const auto burst = modem->modulate(frames);
    auto audio = std::make_shared<std::vector<float>>(300, 0.0f);
    audio->insert(audio->end(), burst.begin(), burst.end());
    for (auto& v : *audio) v += static_cast<float>(demod_rng.normal(0.0, 0.1 * modem->profile().amplitude));
    auto h = std::make_shared<std::vector<dsp::cplx>>();
    float noise = 0.0f;
    auto windows = std::make_shared<std::vector<std::size_t>>(
        modem::OfdmKernelProbe::payload_windows(*modem, *audio, 300, *h, noise));
    auto pilots = modem::OfdmKernelProbe::pilots(*modem);
    cases.push_back(MicroCase{
        "ofdm_demod_symbol", static_cast<double>(modem->profile().num_subcarriers), "carriers",
        [modem, mapper, audio, h, noise, windows, pilots, next = std::make_shared<std::size_t>(0)] {
          const std::size_t pos = (*windows)[(*next)++ % windows->size()];
          float n = noise;
          const auto y = modem::OfdmKernelProbe::analyze(*modem, *audio, pos);
          auto soft = oracles::ofdm_demod_reference(modem->profile(), *mapper, y, *h, pilots, false, n);
          benchmark::DoNotOptimize(soft.data());
        },
        [modem, audio, h, noise, windows, next = std::make_shared<std::size_t>(0)] {
          const std::size_t pos = (*windows)[(*next)++ % windows->size()];
          float n = noise;
          auto soft = modem::OfdmKernelProbe::demod(*modem, *audio, pos, false, *h, n);
          benchmark::DoNotOptimize(soft.data());
        }});
  }

  // sonic-10k fine sync over its 257 candidates (+-2 cyclic prefixes) on a
  // noisy burst: before is the all-exact scan (oracles::fine_sync_reference),
  // after the float-screened pick. Own Rng.
  {
    const modem::OfdmModem modem(*modem::profiles::get("sonic-10k"));
    util::Rng sync_rng(46);
    std::vector<util::Bytes> frames(3);
    for (auto& f : frames) f = random_bytes(sync_rng, 120);
    const auto burst = modem.modulate(frames);
    const std::size_t cp = static_cast<std::size_t>(modem.profile().cp_len);
    const std::size_t sym = static_cast<std::size_t>(modem.profile().fft_size) + cp;
    const std::size_t candidates = 4 * cp + 1;
    auto tmpl = std::make_shared<std::vector<float>>(modem.preamble_b_template().begin(),
                                                     modem.preamble_b_template().end());
    double tmpl_energy = 0.0;
    for (float v : *tmpl) tmpl_energy += static_cast<double>(v) * v;
    auto x = std::make_shared<std::vector<float>>(burst.begin() + static_cast<long>(sym - 2 * cp),
                                                  burst.begin() + static_cast<long>(sym - 2 * cp + candidates - 1 + tmpl->size()));
    for (auto& v : *x) v += static_cast<float>(sync_rng.normal(0.0, 0.1 * modem.profile().amplitude));
    cases.push_back(MicroCase{
        "fine_sync_257", static_cast<double>(candidates), "candidates",
        [x, tmpl, tmpl_energy, candidates] {
          auto pick = oracles::fine_sync_reference(*x, *tmpl, tmpl_energy, candidates);
          benchmark::DoNotOptimize(pick);
        },
        [x, tmpl, tmpl_energy, candidates] {
          auto pick = modem::pick_fine_sync(*x, *tmpl, tmpl_energy, candidates);
          benchmark::DoNotOptimize(pick);
        }});
  }

  // 64-QAM soft demap (max-log LLRs) of one sonic-10k symbol's data
  // carriers, noisy points: before is the per-carrier oracle
  // (oracles::qam_demap_llr_reference), after the block demapper. Own Rng.
  {
    const auto profile = *modem::profiles::get("sonic-10k");
    auto mapper = std::make_shared<modem::QamMapper>(profile.constellation);
    util::Rng demap_rng(47);
    auto points = std::make_shared<std::vector<dsp::cplx>>(static_cast<std::size_t>(profile.data_carriers()));
    for (auto& p : *points) {
      p = mapper->map(static_cast<std::uint32_t>(demap_rng.uniform_int(64))) +
          dsp::cplx(static_cast<float>(demap_rng.normal(0.0, 0.05)), static_cast<float>(demap_rng.normal(0.0, 0.05)));
    }
    const std::size_t bits = static_cast<std::size_t>(mapper->bits_per_symbol());
    auto soft = std::make_shared<std::vector<float>>(points->size() * bits);
    constexpr float kNoise = 0.005f;
    cases.push_back(MicroCase{
        "demap_soft_qam64", static_cast<double>(points->size()), "points",
        [mapper, points, soft, bits] {
          for (std::size_t k = 0; k < points->size(); ++k) {
            oracles::qam_demap_llr_reference(*mapper, (*points)[k], kNoise, std::span(*soft).subspan(k * bits, bits));
          }
          benchmark::DoNotOptimize(soft->data());
        },
        [mapper, points, soft] {
          mapper->demap_soft(*points, kNoise, *soft);
          benchmark::DoNotOptimize(soft->data());
        }});
  }

  // Resampling on 0.1 s of program audio: the FM modulator's 1:5 upsampler
  // (44.1 -> 220.5 kHz), the demodulator's 5:1 stage (before: 63-tap
  // low-pass, oracles::frozen::FirFilter, then the per-tap-kernel
  // decimator; after: the fused Resampler::decimator), and the acoustic
  // clock-skew stage at +30 and -17 ppm. Before is the per-tap kernel
  // oracle, after the table-driven path.
  {
    auto audio = std::make_shared<std::vector<float>>(4410);
    for (auto& v : *audio) v = static_cast<float>(rng->uniform(-0.7, 0.7));
    auto iq_audio = std::make_shared<std::vector<float>>(oracles::resample_reference(*audio, 5.0));
    // resample_up5, resample_down5 and resample_skew run at
    // util::simd_width() (eight lanes on an AVX2 CPU), and in their _sse2
    // rows at four.
    for (auto [suffix, width] : kWidths) {
      auto up = std::make_shared<dsp::Resampler>(5.0);
      cases.push_back(MicroCase{
          std::string("resample_up5") + suffix, static_cast<double>(audio->size()), "samples",
          [audio] {
            auto out = oracles::resample_reference(*audio, 5.0);
            benchmark::DoNotOptimize(out.data());
          },
          pinned_to(width, [up, audio] {
            auto out = up->process(*audio);
            benchmark::DoNotOptimize(out.data());
          })});
    }

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
    auto lp = std::make_shared<oracles::frozen::FirFilter>(taps);
    for (auto [suffix, width] : kWidths) {
      auto down = std::make_shared<dsp::Resampler>(dsp::Resampler::decimator(5, taps));
      cases.push_back(MicroCase{
          std::string("resample_down5") + suffix, static_cast<double>(iq_audio->size()), "samples",
          [lp, iq_audio] {
            lp->reset();
            auto out = oracles::resample_reference(lp->process(*iq_audio), 0.2);
            benchmark::DoNotOptimize(out.data());
          },
          pinned_to(width, [down, iq_audio] {
            down->reset();
            auto out = down->push(*iq_audio);
            auto tail = down->flush();
            benchmark::DoNotOptimize(out.data());
            benchmark::DoNotOptimize(tail.data());
          })});
    }

    for (auto [suffix, width] : kWidths) {
      auto skew = std::make_shared<dsp::Resampler>(1.0 + 30e-6);
      cases.push_back(MicroCase{
          std::string("resample_skew") + suffix, static_cast<double>(audio->size()), "samples",
          [audio] {
            auto out = oracles::resample_reference(*audio, 1.0 + 30e-6);
            benchmark::DoNotOptimize(out.data());
          },
          pinned_to(width, [skew, audio] {
            auto out = skew->process(*audio);
            benchmark::DoNotOptimize(out.data());
          })});
    }

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
    // fm_modulate and fm_demodulate run at util::simd_width(), and in
    // their _sse2 rows at four lanes.
    for (auto [suffix, width] : kWidths) {
      cases.push_back(MicroCase{
          std::string("fm_modulate") + suffix, static_cast<double>(audio->size()), "samples",
          [audio, params] {
            auto out = oracles::fm_modulate_reference(*audio, params);
            benchmark::DoNotOptimize(out.data());
          },
          pinned_to(width, [audio, params] {
            auto out = fm::FmModulator(params).modulate(*audio);
            benchmark::DoNotOptimize(out.data());
          })});
    }

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
    for (auto [suffix, width] : kWidths) {
      auto demod = std::make_shared<fm::FmDemodulator>(params);
      cases.push_back(MicroCase{
          std::string("fm_demodulate") + suffix, static_cast<double>(noisy->size()), "iq_samples",
          [noisy, params] {
            auto out = oracles::fm_demodulate_arg_reference(*noisy, params);
            benchmark::DoNotOptimize(out.data());
          },
          pinned_to(width, [noisy, demod] {
            demod->reset();
            auto out = demod->demodulate(*noisy);
            auto tail = demod->finish();
            benchmark::DoNotOptimize(out.data());
            benchmark::DoNotOptimize(tail.data());
          })});
    }

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

  // One 16-frame sonic-10k burst (200-byte frames) through FmLink::transmit
  // at 20 cm, default RF, as the air_chain workload runs the link: after is
  // the link, before the per-sample oracles of its four stages, seeded as
  // the link seeds them. A fresh link per op, so every op draws the same
  // channel.
  {
    const modem::OfdmModem modem(*modem::profiles::get("sonic-10k"));
    std::vector<util::Bytes> frames;
    for (int f = 0; f < 16; ++f) frames.push_back(random_bytes(*rng, 200));
    auto audio = std::make_shared<std::vector<float>>(modem.modulate(frames));
    fm::FmLinkConfig link;
    link.acoustic.distance_m = 0.2;
    cases.push_back(MicroCase{
        "fm_link_burst", static_cast<double>(audio->size()), "samples",
        [audio, link] {
          const util::Rng rng(link.seed);
          auto iq = oracles::fm_modulate_reference(*audio, link.fm);
          iq = oracles::rf_channel_reference(iq, link.rf, rng.fork(1));
          auto out = oracles::acoustic_reference(oracles::fm_demodulate_arg_reference(iq, link.fm), link.acoustic,
                                                 rng.fork(2));
          benchmark::DoNotOptimize(out.data());
        },
        [audio, link] {
          auto out = fm::FmLink(link).transmit(*audio);
          benchmark::DoNotOptimize(out.data());
        }});
  }

  // The transmitter on sonic-10k's 100-byte frames. packet_encode_sonic10k
  // codes sixteen frames: before is the per-bit encoder
  // (oracles::packet_encode_reference: per-bit conv and LFSR RS, BitReader
  // and BitWriter), after PacketCodec::encode. ofdm_modulate_sonic10k
  // modulates one 16-frame burst: before is the per-bit transmitter on the
  // frozen radix-2 inverse FFT (oracles::ofdm_modulate_reference), after
  // OfdmModem::modulate, so its speedup also holds the plan's gain over
  // that FFT. Own Rng.
  {
    const auto profile = *modem::profiles::get("sonic-10k");
    const modem::PacketSpec spec{profile.conv, profile.rs_nroots};
    auto codec = std::make_shared<modem::PacketCodec>(spec);
    auto modem = std::make_shared<modem::OfdmModem>(profile);
    util::Rng tx_rng(47);
    auto frames = std::make_shared<std::vector<util::Bytes>>();
    for (int f = 0; f < 16; ++f) frames->push_back(random_bytes(tx_rng, core::kFrameSize));
    cases.push_back(MicroCase{
        "packet_encode_sonic10k", static_cast<double>(16 * core::kFrameSize), "bytes",
        [spec, frames] {
          for (const auto& f : *frames) {
            auto out = oracles::packet_encode_reference(spec, f);
            benchmark::DoNotOptimize(out.data());
          }
        },
        [codec, frames] {
          for (const auto& f : *frames) {
            auto out = codec->encode(f);
            benchmark::DoNotOptimize(out.data());
          }
        }});
    const double samples = static_cast<double>(modem->burst_samples(core::kFrameSize, frames->size()));
    cases.push_back(MicroCase{
        "ofdm_modulate_sonic10k", samples, "samples",
        [modem, frames] {
          auto out = oracles::ofdm_modulate_reference(*modem, *frames);
          benchmark::DoNotOptimize(out.data());
        },
        [modem, frames] {
          auto out = modem->modulate(*frames);
          benchmark::DoNotOptimize(out.data());
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

  // The row-fed encoder alone on the same capped corpus page, fed the same
  // rows: before is the frozen copy of the encoder from before repeated
  // rows were passed as a count, fed every row of the page; after is the
  // library's, fed the page's distinct rows, each with the count of rows
  // that repeat it. Both read the distinct rows from one painted buffer.
  {
    const web::PkCorpus corpus;
    const web::LayoutParams layout;
    auto page = std::make_shared<web::PageLayout>();
    for (const web::PageRef& ref : corpus.pages()) {
      *page = web::layout_html(web::parse_html(corpus.html(ref, 0)), layout);
      if (page->height() == layout.max_height) break;
    }
    auto rows = std::make_shared<image::Raster>();
    const std::vector<int>& distinct = page->distinct_rows();
    page->paint_distinct(0, static_cast<int>(distinct.size()), *rows);
    const std::size_t width = static_cast<std::size_t>(page->width());
    // Each page row's pixels: the distinct row it equals.
    auto page_rows = std::make_shared<std::vector<const image::Rgb*>>();
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      const int end = i + 1 < distinct.size() ? distinct[i + 1] : page->height();
      for (int y = distinct[i]; y < end; ++y) page_rows->push_back(rows->pixels().data() + i * width);
    }
    const image::ColumnCodecParams params{10, 84};  // make_bundle's cut for the segment header
    const double pixels = static_cast<double>(page->width()) * page->height();
    cases.push_back(MicroCase{
        "row_fed_encode_1080", pixels, "pixels",
        [page, page_rows, params] {
          oracles::frozen::RowFedEncoder encoder(page->width(), page->height(), params);
          const auto& r = *page_rows;
          for (std::size_t y = 0; y < r.size(); ++y) encoder.push_row(r[y], y > 0 ? r[y - 1] : nullptr);
          auto out = encoder.finish();
          benchmark::DoNotOptimize(out.data());
        },
        [page, rows, width, params] {
          image::RowFedEncoder encoder(page->width(), page->height(), params);
          const std::vector<int>& d = page->distinct_rows();
          const image::Rgb* row = rows->pixels().data();
          for (std::size_t i = 0; i < d.size(); ++i, row += width) {
            encoder.push_row(row, i > 0 ? row - width : nullptr);
            encoder.repeat_row((i + 1 < d.size() ? d[i + 1] : page->height()) - d[i] - 1);
          }
          auto out = encoder.finish();
          benchmark::DoNotOptimize(out.data());
        }});
  }

  return cases;
}

thread_local volatile float g_kernel_sink = 0.0f;

// The host reference: a copy of e2ebench's reference kernel, a fixed
// libm-heavy loop (sin/cos and multiply-adds), in µs, best of three runs.
// It records how fast the host ran; it does not make two ledgers' ns
// comparable.
double reference_kernel_us() {
  double best = 1e9;
  for (int run = 0; run < 3; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    float acc = 0.0f;
    for (int i = 0; i < 50000; ++i) {
      const float x = 0.001f * static_cast<float>(i % 997);
      acc += std::sin(x) * std::cos(0.5f * x) + x * x * 0.25f;
    }
    g_kernel_sink = acc;
    best = std::min(best, std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count());
  }
  return best;
}

int run_micro(const char* json_path) {
  const double ref_kernel_us = reference_kernel_us();
  std::printf("BENCH_MICRO ref_kernel_us=%.1f\n", ref_kernel_us);
  const auto cases = build_micro_cases();
  std::vector<MicroResult> results;
  for (const auto& c : cases) {
    MicroResult r;
    r.kernel = c.kernel;
    r.items_unit = c.items_unit;
    std::tie(r.before_ns_op, r.after_ns_op) = measure_ns_per_op(c.before, c.after);
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
    std::fprintf(f, "{\n  \"generated_by\": \"bench/micro_dsp_fec --micro\",\n  \"ref_kernel_us\": %.1f,\n  \"kernels\": [\n",
                 ref_kernel_us);
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

// --exhaustive-llr: fec::LlrQuantizer against fec::llr_soft_byte_reference
// on every one of the 2^32 floats, both flips, through the scalar lookup
// and the four-lane one (lanes of alternating flips, each float in both),
// split over up to four threads. Prints the mismatched floats (and the
// first per thread); returns 1 on any mismatch.
int run_exhaustive_llr() {
  const auto& quantize = fec::LlrQuantizer::get();
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  constexpr std::uint64_t kFloats = std::uint64_t{1} << 32, kQuads = kFloats / 4;
  std::vector<std::uint64_t> mismatches(threads, 0);
  std::vector<std::int64_t> first(threads, -1);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const util::Lanes4::I flips[2] = {{0, 1, 0, 1}, {1, 0, 1, 0}};
      std::uint64_t bad = 0;
      for (std::uint64_t quad = kQuads * t / threads; quad < kQuads * (t + 1) / threads; ++quad) {
        util::Lanes4::F llr;
        for (int l = 0; l < 4; ++l) llr[l] = std::bit_cast<float>(static_cast<std::uint32_t>(4 * quad + l));
        const auto lanes0 = quantize(llr, flips[0]), lanes1 = quantize(llr, flips[1]);
        for (int l = 0; l < 4; ++l) {
          const std::uint8_t ref[2] = {fec::llr_soft_byte_reference(llr[l], false),
                                       fec::llr_soft_byte_reference(llr[l], true)};
          const bool miss = quantize(llr[l], false) != ref[0] || quantize(llr[l], true) != ref[1] ||
                            lanes0[l] != ref[flips[0][l]] || lanes1[l] != ref[flips[1][l]];
          if (miss && bad++ == 0) first[t] = static_cast<std::int64_t>(4 * quad + l);
        }
      }
      mismatches[t] = bad;
    });
  }
  for (auto& th : pool) th.join();
  const double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::uint64_t total = 0;
  for (unsigned t = 0; t < threads; ++t) {
    total += mismatches[t];
    if (first[t] >= 0) std::printf("EXHAUSTIVE_LLR first_mismatch=0x%08llx\n", static_cast<unsigned long long>(first[t]));
  }
  std::printf("EXHAUSTIVE_LLR floats=%llu flips=2 mismatched_floats=%llu threads=%u seconds=%.1f\n",
              static_cast<unsigned long long>(kFloats), static_cast<unsigned long long>(total), threads, seconds);
  return total == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool micro = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--micro") == 0) micro = true;
    if (std::strcmp(argv[i], "--exhaustive-llr") == 0) return run_exhaustive_llr();
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[i + 1];
  }
  if (micro) return run_micro(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
