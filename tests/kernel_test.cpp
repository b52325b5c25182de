// Kernel-equivalence suite for the receiver hot-path optimization pass
// (run with `ctest -L kernel`): every optimized kernel is checked against
// its kept reference implementation —
//
//  * FftPlan vs. the legacy twiddle-recurrence kernel vs. dft_naive ground
//    truth, including the accuracy-drift regression the tables fix;
//  * the SIMD-butterfly Viterbi vs. the scalar per-state decoder,
//    byte-identical across both codes and all puncture rates on noisy,
//    hard-decision, all-erasure and long-tie inputs and payloads of 0 to
//    1024 bytes, plus the trellis structure the butterfly relies on and
//    concurrent decodes on one shared codec;
//  * word-wide fountain xor_into vs. the byte loop on odd/unaligned spans;
//  * contiguous-window FirFilter vs. the ring-buffer reference;
//  * the table-driven Resampler vs. the per-tap kernel oracle, and the
//    FmDemodulator's fused decimating low-pass vs. the old two-stage chain;
//
// plus the allocation-free guarantee for the OFDM steady-state symbol path
// and the bounded allocation for forged OFDM headers, verified with a real
// global operator new counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/resampler.hpp"
#include "fec/convolutional.hpp"
#include "fec/fountain.hpp"
#include "fm/fm_modem.hpp"
#include "modem/ofdm.hpp"
#include "modem/profile.hpp"
#include "modem/stream_receiver.hpp"
#include "oracles/kernel_reference.hpp"
#include "oracles/resampler_reference.hpp"
#include "oracles/viterbi_reference.hpp"
#include "util/rng.hpp"

// ------------------------------------------------------ allocation probe ---
// Counts every global operator new in this test binary. The steady-state
// OFDM symbol path must not allocate (paper §5's feature-phone CPU/memory
// budget), and "must not" is enforced here, not claimed.

namespace {
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<std::size_t> g_alloc_max{0};  // largest single request since reset
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // Load-then-store: exact for the single-threaded tests that read it.
  if (size > g_alloc_max.load(std::memory_order_relaxed)) {
    g_alloc_max.store(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Kept out of line: inlined next to a call of the replaced operator new,
// free() makes GCC report a new/free mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sonic {
namespace {

using util::Rng;

std::vector<dsp::cplx> random_signal(Rng& rng, std::size_t n) {
  std::vector<dsp::cplx> v(n);
  for (auto& x : v) x = dsp::cplx(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  return v;
}

// ------------------------------------------------------------------- FFT ---

// Max |error| relative to the spectrum's peak magnitude, against the
// double-precision naive DFT.
double rel_error_vs_naive(const std::vector<dsp::cplx>& sig,
                          void (*transform)(std::span<dsp::cplx>)) {
  const auto truth = dsp::dft_naive(sig);
  auto actual = sig;
  transform(actual);
  double scale = 0, err = 0;
  for (std::size_t i = 0; i < sig.size(); ++i) {
    scale = std::max(scale, static_cast<double>(std::abs(truth[i])));
    err = std::max(err, static_cast<double>(std::abs(actual[i] - truth[i])));
  }
  return err / scale;
}

// The table-driven plan holds ~1e-7 relative error at every size; the
// legacy twiddle recurrence drifts with N (~2e-6 at 1024, ~2e-5 at 4096)
// and fails this tolerance — the accuracy bug the plan fixes.
TEST(FftAccuracy, PlanPassesTightToleranceRecurrenceDrifts) {
  constexpr double kTol = 1e-6;
  Rng rng(11);
  for (std::size_t n : {std::size_t{1024}, std::size_t{4096}}) {
    const auto sig = random_signal(rng, n);
    const double plan_err = rel_error_vs_naive(sig, &dsp::fft);
    const double rec_err = rel_error_vs_naive(sig, &oracles::fft_recurrence);
    EXPECT_LT(plan_err, kTol) << "plan drifted at n=" << n;
    EXPECT_GT(rec_err, plan_err) << "n=" << n;
    if (n >= 4096) {
      EXPECT_GT(rec_err, kTol) << "recurrence unexpectedly accurate at n=" << n
                               << " (tighten the tolerance?)";
    }
  }
}

TEST(FftPlan, MatchesLegacyForwardWithinTolerance) {
  Rng rng(12);
  for (std::size_t n : {std::size_t{64}, std::size_t{256}, std::size_t{1024}}) {
    const auto sig = random_signal(rng, n);
    auto plan_out = sig;
    auto legacy_out = sig;
    dsp::FftPlan::get(n)->forward(plan_out);
    oracles::fft_recurrence(legacy_out);
    double scale = 0;
    for (const auto& x : plan_out) scale = std::max(scale, static_cast<double>(std::abs(x)));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(std::abs(plan_out[i] - legacy_out[i]) / scale, 0.0, 1e-5) << "n=" << n << " i=" << i;
    }
  }
}

TEST(FftPlan, RoundTripRecoversSignal) {
  Rng rng(13);
  const auto plan = dsp::FftPlan::get(2048);
  auto sig = random_signal(rng, 2048);
  auto copy = sig;
  plan->forward(copy);
  plan->inverse(copy);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    ASSERT_NEAR(copy[i].real(), sig[i].real(), 1e-3);
    ASSERT_NEAR(copy[i].imag(), sig[i].imag(), 1e-3);
  }
}

TEST(FftPlan, CacheReturnsSharedInstanceAcrossThreads) {
  const auto base = dsp::FftPlan::get(512);
  std::vector<std::shared_ptr<const dsp::FftPlan>> seen(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] { seen[t] = dsp::FftPlan::get(512); });
  }
  for (auto& th : threads) th.join();
  for (const auto& p : seen) EXPECT_EQ(p.get(), base.get());
}

TEST(FftPlan, RejectsBadSizes) {
  EXPECT_THROW(dsp::FftPlan(100), std::invalid_argument);
  std::vector<dsp::cplx> wrong(256);
  EXPECT_THROW(dsp::FftPlan::get(512)->forward(wrong), std::invalid_argument);
}

// --------------------------------------------------------------- Viterbi ---

constexpr fec::ConvSpec kAllSpecs[] = {
    {fec::ConvCode::kV27, fec::PunctureRate::kRate1_2}, {fec::ConvCode::kV27, fec::PunctureRate::kRate2_3},
    {fec::ConvCode::kV27, fec::PunctureRate::kRate3_4}, {fec::ConvCode::kV29, fec::PunctureRate::kRate1_2},
    {fec::ConvCode::kV29, fec::PunctureRate::kRate2_3}, {fec::ConvCode::kV29, fec::PunctureRate::kRate3_4},
};

std::string spec_name(const fec::ConvSpec& spec) {
  return std::string(spec.code == fec::ConvCode::kV27 ? "v27" : "v29") + " rate=" +
         std::to_string(static_cast<int>(spec.rate));
}

util::Bytes random_bytes(Rng& rng, std::size_t n) {
  util::Bytes data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return data;
}

// The coded bits of a random payload as soft values, noisy with standard
// deviation `sigma` and clamped to the decoder's [0, 1] domain.
std::vector<float> soft_bits(const fec::ConvolutionalCodec& codec, Rng& rng, std::size_t payload,
                             double sigma) {
  const auto coded = codec.encode(random_bytes(rng, payload));
  std::vector<float> soft(codec.encoded_bits(payload));
  util::BitReader br(coded);
  for (auto& s : soft) {
    const float noisy = static_cast<float>(br.bit()) + static_cast<float>(rng.normal(0.0, sigma));
    s = std::min(1.0f, std::max(0.0f, noisy));
  }
  return soft;
}

TEST(ViterbiEquivalence, ByteIdenticalAcrossCodesAndRatesUnderNoise) {
  Rng rng(21);
  for (const auto& spec : kAllSpecs) {
    fec::ConvolutionalCodec codec(spec);
    for (int trial = 0; trial < 4; ++trial) {
      // Enough noise that survivor choices genuinely differ between branches.
      const auto soft = soft_bits(codec, rng, 64, 0.25);
      ASSERT_EQ(codec.decode_soft(soft, 64), oracles::decode_soft_reference(spec, soft, 64))
          << spec_name(spec) << " trial=" << trial;
    }
  }
}

// Exact 0/1 input through decode_hard: every metric is an integer, so
// equal-metric paths (ties) are everywhere, with and without bit errors.
TEST(ViterbiEquivalence, HardDecisionInputWithTiesEverywhere) {
  Rng rng(23);
  for (const auto& spec : kAllSpecs) {
    fec::ConvolutionalCodec codec(spec);
    for (double flip : {0.0, 0.03, 0.12}) {
      const std::size_t payload = 64;
      const auto coded = codec.encode(random_bytes(rng, payload));
      const std::size_t nbits = codec.encoded_bits(payload);
      util::BitReader br(coded);
      util::BitWriter bw;
      std::vector<float> soft(nbits);
      for (auto& s : soft) {
        const int bit = br.bit() ^ (rng.bernoulli(flip) ? 1 : 0);
        bw.bit(bit);
        s = static_cast<float>(bit);
      }
      const auto packed = bw.take();
      ASSERT_EQ(codec.decode_hard(packed, payload), oracles::decode_soft_reference(spec, soft, payload))
          << spec_name(spec) << " flip=" << flip;
    }
  }
}

// All-erasure input (every metric ties at every step) and noisy input with
// long erasure runs, where the metrics of many paths stay equal for
// hundreds of steps.
TEST(ViterbiEquivalence, ErasuresAndLongTieRuns) {
  Rng rng(24);
  for (const auto& spec : kAllSpecs) {
    fec::ConvolutionalCodec codec(spec);
    for (std::size_t payload : {std::size_t{1}, std::size_t{64}}) {
      const std::vector<float> erased(codec.encoded_bits(payload), 0.5f);
      ASSERT_EQ(codec.decode_soft(erased, payload), oracles::decode_soft_reference(spec, erased, payload))
          << spec_name(spec) << " all-erasure payload=" << payload;
    }
    auto soft = soft_bits(codec, rng, 120, 0.2);
    for (std::size_t start : {std::size_t{0}, std::size_t{300}, soft.size() - 250}) {
      std::fill(soft.begin() + static_cast<long>(start), soft.begin() + static_cast<long>(start + 200), 0.5f);
    }
    ASSERT_EQ(codec.decode_soft(soft, 120), oracles::decode_soft_reference(spec, soft, 120))
        << spec_name(spec) << " erasure runs";
  }
}

// 0 and 1 bytes (flush bits only, one decision byte), 120 bytes (about a
// sonic-10k frame after CRC and RS) and 1024 bytes.
TEST(ViterbiEquivalence, PayloadSizesFromEmptyToOneKilobyte) {
  Rng rng(25);
  for (const auto& spec : kAllSpecs) {
    fec::ConvolutionalCodec codec(spec);
    for (std::size_t payload : {std::size_t{0}, std::size_t{1}, std::size_t{120}, std::size_t{1024}}) {
      const auto soft = soft_bits(codec, rng, payload, 0.3);
      const auto fast = codec.decode_soft(soft, payload);
      ASSERT_EQ(fast.size(), payload);
      ASSERT_EQ(fast, oracles::decode_soft_reference(spec, soft, payload))
          << spec_name(spec) << " payload=" << payload;
    }
  }
}

// The butterfly gives each predecessor pair only two branch metrics, which
// holds because both polynomials of both codes tap the register's LSB (the
// newest input bit) and MSB (the bit about to be evicted). The encoder's
// impulse response reads the taps out: output pair i of a lone 1 bit is
// (poly_a bit i, poly_b bit i). Both pairs at the ends must be (1, 1).
TEST(ViterbiStructure, BothPolynomialsTapRegisterMsbAndLsb) {
  for (fec::ConvCode code : {fec::ConvCode::kV27, fec::ConvCode::kV29}) {
    fec::ConvolutionalCodec codec({code, fec::PunctureRate::kRate1_2});
    const int k = codec.constraint_length();
    const auto coded = codec.encode(util::Bytes{0x80});
    util::BitReader br(coded);
    std::vector<std::pair<int, int>> pairs;
    for (int i = 0; i < k; ++i) {
      const int a = br.bit();
      const int b = br.bit();
      pairs.emplace_back(a, b);
    }
    const auto polys = oracles::conv_polys(code);
    ASSERT_EQ(k, polys.k);
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(pairs[static_cast<std::size_t>(i)],
                std::make_pair(static_cast<int>((polys.poly_a >> i) & 1), static_cast<int>((polys.poly_b >> i) & 1)))
          << "k=" << k << " tap " << i;
    }
    EXPECT_EQ(pairs.front(), std::make_pair(1, 1)) << "k=" << k << ": LSB not tapped by both";
    EXPECT_EQ(pairs.back(), std::make_pair(1, 1)) << "k=" << k << ": MSB not tapped by both";
  }
}

// Four threads decode distinct inputs on one shared codec; each result must
// equal the serial decode. decode_soft keeps its buffers in a thread_local
// workspace, so this is the test TSan (scripts/tier1.sh) runs for it.
TEST(ViterbiConcurrency, SharedCodecMatchesSerialDecodes) {
  Rng rng(26);
  const fec::ConvolutionalCodec codec({fec::ConvCode::kV29, fec::PunctureRate::kRate2_3});
  constexpr std::size_t kThreads = 4, kPerThread = 6;
  const std::size_t sizes[] = {1, 120, 64, 300, 0, 120};
  std::vector<std::vector<std::vector<float>>> inputs(kThreads);
  std::vector<std::vector<util::Bytes>> expect(kThreads), got(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      inputs[t].push_back(soft_bits(codec, rng, sizes[i], 0.3));
      expect[t].push_back(codec.decode_soft(inputs[t][i], sizes[i]));
    }
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        got[t].clear();
        for (std::size_t i = 0; i < kPerThread; ++i) got[t].push_back(codec.decode_soft(inputs[t][i], sizes[i]));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expect[t]) << "thread " << t;
}

TEST(ViterbiEquivalence, CleanRoundTripStillDecodes) {
  Rng rng(22);
  fec::ConvolutionalCodec codec({fec::ConvCode::kV29, fec::PunctureRate::kRate1_2});
  util::Bytes data(100);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const auto coded = codec.encode(data);
  EXPECT_EQ(codec.decode_hard(coded, data.size()), data);
}

// ----------------------------------------------------------- fountain XOR ---

TEST(XorIntoEquivalence, WordWideMatchesByteLoopOnOddAndUnalignedSpans) {
  Rng rng(31);
  // A shared backing buffer lets us slice at every alignment offset.
  std::vector<std::uint8_t> backing(4200);
  for (auto& b : backing) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
                            std::size_t{9}, std::size_t{63}, std::size_t{64}, std::size_t{65},
                            std::size_t{200}, std::size_t{1031}}) {
      util::Bytes dst_fast(backing.begin(), backing.begin() + static_cast<long>(len));
      util::Bytes dst_ref = dst_fast;
      const std::span<const std::uint8_t> src(backing.data() + offset, len);
      fec::xor_into(dst_fast, src);
      oracles::xor_into_reference(dst_ref, src);
      ASSERT_EQ(dst_fast, dst_ref) << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(XorIntoEquivalence, SelfInverse) {
  Rng rng(32);
  util::Bytes a(313), b(313);
  for (auto& x : a) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  const util::Bytes orig = a;
  fec::xor_into(a, b);
  fec::xor_into(a, b);
  EXPECT_EQ(a, orig);
}

// ------------------------------------------------------------------- FIR ---

TEST(FirEquivalence, BlockPathMatchesRingReference) {
  Rng rng(41);
  const auto taps = dsp::design_lowpass(6000.0, 44100.0, 63);
  std::vector<float> x(5000);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  dsp::FirFilter f(taps);
  const auto fast = f.process(x);
  const auto ref = oracles::fir_reference(taps, x);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i) ASSERT_NEAR(fast[i], ref[i], 1e-4) << i;
}

TEST(FirEquivalence, PerSampleAndBlockCallsAreBitIdentical) {
  Rng rng(42);
  const auto taps = dsp::design_lowpass(8000.0, 44100.0, 31);
  std::vector<float> x(1000);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  dsp::FirFilter block(taps);
  dsp::FirFilter mixed(taps);
  const auto expect = block.process(x);
  // Interleave per-sample and block calls over the same stream.
  std::vector<float> got;
  std::size_t pos = 0;
  while (pos < x.size()) {
    if (rng.bernoulli(0.5)) {
      got.push_back(mixed.process(x[pos]));
      ++pos;
    } else {
      const std::size_t len = std::min<std::size_t>(1 + rng.uniform_int(97), x.size() - pos);
      const auto out = mixed.process(std::span(x).subspan(pos, len));
      got.insert(got.end(), out.begin(), out.end());
      pos += len;
    }
  }
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], expect[i]) << i;
}

// ------------------------------------------- OFDM allocation-free symbols ---

TEST(OfdmSymbolPath, SteadyStateAnalyzeAndSynthesizeDoNotAllocate) {
  modem::OfdmModem modem(*modem::profiles::get("sonic-10k"));
  Rng rng(51);
  std::vector<float> audio(static_cast<std::size_t>(modem.profile().fft_size) * 8);
  for (auto& s : audio) s = static_cast<float>(rng.uniform(-0.5, 0.5));
  std::vector<dsp::cplx> carriers(static_cast<std::size_t>(modem.profile().num_subcarriers),
                                  dsp::cplx(0.7f, -0.7f));
  std::vector<float> symbol;

  // Warm up: first calls may size the modem scratch and the output vector.
  modem::OfdmKernelProbe::synthesize(modem, carriers, symbol);
  (void)modem::OfdmKernelProbe::analyze(modem, audio, 0);

  const std::size_t before = g_alloc_count.load();
  for (int i = 0; i < 200; ++i) {
    (void)modem::OfdmKernelProbe::analyze(modem, audio, static_cast<std::size_t>(i));
    modem::OfdmKernelProbe::synthesize(modem, carriers, symbol);
  }
  const std::size_t after = g_alloc_count.load();
  EXPECT_EQ(after, before) << "steady-state symbol path allocated "
                           << (after - before) << " times in 400 kernel calls";
}

// ------------------------------------------------------------ resampler ---

std::vector<float> random_audio(Rng& rng, std::size_t n, double amp) {
  std::vector<float> out(n);
  for (auto& s : out) s = static_cast<float>(rng.uniform(-amp, amp));
  return out;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b, std::size_t n) {
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return worst;
}

class ResamplerOracleTest : public ::testing::TestWithParam<double> {};

// The table-driven resampler (exact rows for rational ratios, the
// interpolated grid for the rest) stays within 1e-6 of the per-tap kernel
// it replaced, edges included, with the same output count.
TEST_P(ResamplerOracleTest, TableMatchesPerTapKernel) {
  Rng rng(61);
  const auto input = random_audio(rng, 20000, 0.9);
  const auto expect = oracles::resample_reference(input, GetParam());
  const auto got = dsp::Resampler(GetParam()).process(input);
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_LE(max_abs_diff(got, expect, got.size()), 1e-6);
}

constexpr const char* kOracleRatioNames[] = {"FmUp5",   "FmDown5", "PhaseWrap", "Up217",
                                             "Down037", "SkewUp",  "SkewDown",  "Skew100ppm"};

INSTANTIATE_TEST_SUITE_P(Ratios, ResamplerOracleTest,
                         ::testing::Values(5.0, 0.2, 640.0 / 147.0, 2.17, 0.37, 1.0 + 30e-6,
                                           1.0 - 17e-6, 1.0001),
                         [](const auto& info) { return std::string(kOracleRatioNames[info.index]); });

// Tables are memoized process-wide behind a mutex; resamplers built on
// several threads at once (the pipeline's workers, the figure benches) must
// get the same output as one built alone. Run under TSan by
// scripts/tier1.sh.
TEST(ResamplerTables, ConcurrentConstructionMatchesSerial) {
  Rng rng(64);
  const auto input = random_audio(rng, 4000, 0.5);
  const double ratios[] = {5.0, 0.2, 1.0 + 30e-6, 1.0 - 17e-6};
  std::vector<std::vector<float>> expect;
  for (double r : ratios) expect.push_back(oracles::resample_reference(input, r));

  std::vector<std::vector<std::vector<float>>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      for (double r : ratios) got[t].push_back(dsp::Resampler(r).process(input));
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& per_thread : got) {
    ASSERT_EQ(per_thread.size(), expect.size());
    for (std::size_t k = 0; k < expect.size(); ++k) {
      ASSERT_EQ(per_thread[k], got[0][k]);
      EXPECT_LE(max_abs_diff(per_thread[k], expect[k], expect[k].size()), 1e-6);
    }
  }
}

// The FM demodulator's one decimating stage (low-pass folded into the 5:1
// kernel) against the old low-pass + Resampler(0.2) chain, on a noisy FM
// signal. Interior outputs agree to float rounding; only the last
// ceil(reach / 5) outputs of the flushed stream may differ, because the
// fused filter lets the low-pass ring on past the last input where the old
// chain cut the low-pass output off.
TEST(FmDecimatorEquivalence, FusedStageMatchesTwoStageOracle) {
  Rng rng(62);
  const fm::FmParams params;
  const auto audio = random_audio(rng, 30000, 0.8);
  fm::RfChannel rf(fm::RfChannelParams{}, Rng(63));
  const auto iq = rf.process(fm::FmModulator(params).modulate(audio));

  fm::FmDemodulator demod(params);
  auto got = demod.demodulate(iq);
  const auto tail = demod.finish();
  got.insert(got.end(), tail.begin(), tail.end());
  const auto expect = oracles::fm_demodulate_reference(iq, params);
  ASSERT_EQ(got.size(), expect.size());

  // The 5:1 kernel reaches 4 zero-crossings = 20 IQ samples past an
  // output's centre: ceil(20 / 5) outputs see past the end of the stream.
  const std::size_t tail_len = 4;
  ASSERT_GT(got.size(), tail_len);
  const std::size_t interior = got.size() - tail_len;
  EXPECT_LE(max_abs_diff(got, expect, interior), 1e-6);
}

// ---------------------------------------------- forged OFDM header bound ---

// A header that passes the magic and CRC16 checks but claims 65535 frames of
// 65535 bytes used to make decode_burst size its soft-bit buffer for the
// claim: tens of GB decided by bytes off the air. It is now rejected before
// anything is allocated for it.
TEST(OfdmHeaderBound, ForgedHugeClaimIsRejectedWithoutAllocatingForIt) {
  modem::OfdmModem modem(*modem::profiles::get("sonic-10k"));
  auto audio = modem::OfdmKernelProbe::burst_head(modem, 0xffff, 0xffff);
  audio.resize(audio.size() + 20000, 0.0f);

  (void)modem.decode_burst(audio, 0);  // warm the decoder scratch
  g_alloc_max.store(0);
  const auto burst = modem.decode_burst(audio, 0);
  EXPECT_FALSE(burst.has_value());
  EXPECT_LT(g_alloc_max.load(), std::size_t{1} << 20);

  // The streaming receiver reaches the same decode through its sync; it
  // resyncs past the forged burst without allocating for the claim either.
  std::vector<float> stream(1000, 0.0f);
  stream.insert(stream.end(), audio.begin(), audio.end());
  modem::StreamReceiver rx(modem);
  g_alloc_max.store(0);
  std::size_t bursts = 0;
  for (std::size_t pos = 0; pos < stream.size(); pos += 882) {
    const std::size_t len = std::min<std::size_t>(882, stream.size() - pos);
    bursts += rx.push(std::span<const float>(stream).subspan(pos, len)).size();
  }
  bursts += rx.flush().size();
  EXPECT_EQ(bursts, 0u);
  EXPECT_LT(g_alloc_max.load(), std::size_t{1} << 20);
}

// The bound sits at kMaxBurstSamples: a claim one frame past it is
// rejected, the largest claim within it still decodes (truncated, every
// frame an erasure) with allocations bounded by the limit, not the header.
TEST(OfdmHeaderBound, ClaimsAreBoundedByMaxBurstSamples) {
  modem::OfdmModem modem(*modem::profiles::get("sonic-10k"));
  const std::uint16_t frame_len = 4000;
  std::uint16_t fits = 1;
  while (modem.burst_samples(frame_len, fits + 1u) <= modem::OfdmModem::kMaxBurstSamples) ++fits;
  ASSERT_LT(fits, 0xffff);

  auto over = modem::OfdmKernelProbe::burst_head(modem, frame_len, static_cast<std::uint16_t>(fits + 1));
  over.resize(over.size() + 20000, 0.0f);
  EXPECT_FALSE(modem.decode_burst(over, 0).has_value());

  auto within = modem::OfdmKernelProbe::burst_head(modem, frame_len, fits);
  within.resize(within.size() + 20000, 0.0f);
  g_alloc_max.store(0);
  const auto burst = modem.decode_burst(within, 0);
  ASSERT_TRUE(burst.has_value());
  EXPECT_TRUE(burst->truncated);
  EXPECT_EQ(burst->frames.size(), fits);
  EXPECT_EQ(burst->frames_ok(), 0u);
  EXPECT_LE(g_alloc_max.load(), modem::OfdmModem::kMaxBurstSamples * sizeof(float));

  // The transmitter refuses to send what receivers reject.
  std::vector<util::Bytes> frames(fits + 1u, util::Bytes(frame_len, 0x5a));
  EXPECT_THROW((void)modem.modulate(frames), std::invalid_argument);
}

}  // namespace
}  // namespace sonic
