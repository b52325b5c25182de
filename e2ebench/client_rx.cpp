// client_rx: the phone alone.
//
// Set-up (untimed) renders a seed-chosen set of corpus pages at narrow
// widths, so that their source-frame counts k fall on both sides of the
// fountain code's k = 170 RS/MDS-vs-LT switch, appends 30 % fountain repair
// frames to each (the Carousel default, fec::FountainEncoder over
// bundle_fountain_blocks), modulates them in 16-frame OfdmModem bursts and
// plays each burst through its own fm::AcousticChannel trial at 0.96 m (5-8 %
// frame loss; the 10-20 % of Fig. 4(a) at 1 m leaves pages unrecovered in
// this channel model). The timed part is only SonicClient:
// on_audio in 20 ms chunks, then end_audio and flush. There is no FM work,
// and the lossy channel drives resync, Viterbi/RS work and fountain decoding.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fec/fountain.hpp"
#include "fm/acoustic.hpp"
#include "modem/ofdm.hpp"
#include "modem/profile.hpp"
#include "util/rng.hpp"
#include "web/corpus.hpp"
#include "web/layout.hpp"

namespace e2e {
namespace {

using namespace sonic;

constexpr std::size_t kBurstFrames = 16;
constexpr double kRepairOverhead = 0.3;  // Carousel::Params::repair_overhead default
constexpr double kDistanceM = 0.96;

struct Input {
  std::vector<const web::PageRef*> pages;
  std::vector<int> widths;
  double now_s = 0.0;
  std::uint64_t channel_seed = 0;
};

Input make_input(const Options& opt, const web::PkCorpus& corpus) {
  util::Rng rng(opt.seed ^ 0x43525843ull);  // "CRXC"
  Input in;
  std::vector<const web::PageRef*> all;
  for (const auto& ref : corpus.pages()) all.push_back(&ref);
  rng.shuffle(all);
  const std::size_t n = opt.smoke ? 2 : 8;
  for (std::size_t i = 0; i < n; ++i) {
    in.pages.push_back(all[i]);
    // Alternate narrow (k below the switch) and wide (k above it) pages.
    const int base = i % 2 == 0 ? 76 : 116;
    in.widths.push_back(opt.smoke ? 48 : base + 4 * static_cast<int>(rng.uniform_int(4)));
  }
  in.now_s = 3600.0 * static_cast<double>(rng.uniform_int(72)) + 1800.0;
  in.channel_seed = rng.next();
  return in;
}

struct Air {
  std::vector<core::PageBundle> bundles;     // source frames, as rendered
  std::vector<core::ReceivedPage> reference;  // assembled from all of them
  std::vector<util::Bytes> frames;            // everything aired, repair included
  std::vector<float> audio;                   // what the phone's microphone hears
  std::size_t pages_mds = 0;
  std::size_t pages_lt = 0;
  std::vector<std::size_t> ks;  // source frames per page
  std::uint64_t hash = 0;
};

Air make_air(const web::PkCorpus& corpus, const Input& in) {
  Air air;
  const modem::OfdmModem modem(*modem::profiles::get("sonic-10k"));
  const image::ColumnCodecParams codec{10, 94};
  const int epoch = static_cast<int>(in.now_s / 3600.0);
  util::Rng channel_rng(in.channel_seed);
  std::uint64_t trial = 0;
  for (std::size_t i = 0; i < in.pages.size(); ++i) {
    web::LayoutParams layout;
    layout.width = in.widths[i];
    layout.max_height = 10000 * layout.width / 1080;
    const auto page = web::render_html(corpus.html(*in.pages[i], epoch), layout);
    const auto page_id = static_cast<std::uint32_t>(i + 1);
    core::PageBundle bundle = core::make_bundle(page_id, in.pages[i]->url, page, codec);
    const auto k = static_cast<std::uint16_t>(bundle.frames.size());
    (k <= fec::FountainParams{}.mds_max_k ? air.pages_mds : air.pages_lt) += 1;
    air.ks.push_back(k);

    std::vector<util::Bytes> frames = bundle.frames;
    const fec::FountainEncoder encoder(page_id, core::bundle_fountain_blocks(bundle));
    const auto repairs = static_cast<std::size_t>(std::ceil(kRepairOverhead * k));
    for (std::size_t r = 0; r < repairs; ++r) {
      const auto seq = static_cast<std::uint16_t>(r);
      frames.push_back(core::serialize_repair_frame(page_id, seq, k, encoder.repair_symbol(seq)));
    }

    // One acoustic trial per burst, as FmLink::transmit draws one per call.
    fm::AcousticParams acoustic;
    acoustic.distance_m = kDistanceM;
    for (std::size_t first = 0; first < frames.size(); first += kBurstFrames) {
      const std::vector<util::Bytes> burst(
          frames.begin() + static_cast<std::ptrdiff_t>(first),
          frames.begin() + static_cast<std::ptrdiff_t>(std::min(frames.size(), first + kBurstFrames)));
      fm::AcousticChannel channel(acoustic, channel_rng.fork(++trial));
      auto heard = channel.process(modem.modulate(burst));
      const auto tail = channel.finish();
      heard.insert(heard.end(), tail.begin(), tail.end());
      air.audio.insert(air.audio.end(), heard.begin(), heard.end());
    }
    air.frames.insert(air.frames.end(), frames.begin(), frames.end());
    air.bundles.push_back(std::move(bundle));
  }
  air.reference = assemble_reference(air.bundles);
  air.hash = fnv1a(air.audio.data(), air.audio.size() * sizeof(float));
  return air;
}

struct Pass {
  double wall_s = 0.0;
  ClientOutcome outcome;
};

Pass run_pass(const Input& in, const Air& air, Tracer* tracer, ReferenceClock* clock,
              Result& out) {
  Pass pass;
  core::SonicClient::Params cp;
  if (clock != nullptr) clock->start();
  const auto t0 = Clock::now();
  core::SonicClient client(nullptr, cp);
  ClientFeed feed(client, cp, tracer, clock);
  feed.push(air.audio);
  feed.finish(in.now_s);
  pass.wall_s = clock != nullptr ? clock->stop() : seconds_since(t0);
  pass.outcome = check_client(client, air.bundles, air.reference, in.now_s, out);
  if (tracer != nullptr) check_kept_frames(feed.kept_frames(), air.frames, out);
  return pass;
}

}  // namespace

Result run_client_rx(const Options& opt) {
  Result out;
  constexpr int kSetupReps = 3;  // each builds ~150 s of audio
  std::vector<double> setup_s;
  std::unique_ptr<web::PkCorpus> corpus;
  Input in;
  Air air;
  for (int i = 0; i < kSetupReps; ++i) {
    ReferenceClock clock;
    clock.start();
    auto c = std::make_unique<web::PkCorpus>();
    Input next_in = make_input(opt, *c);
    Air next = make_air(*c, next_in);
    setup_s.push_back(clock.stop());
    out.check(i == 0 || next.hash == air.hash, "set-up is not deterministic");
    corpus = std::move(c);
    in = std::move(next_in);
    air = std::move(next);
  }
  const double audio_s = static_cast<double>(air.audio.size()) / kAudioRate;
  std::printf("client_rx: %zu pages (%zu with k <= 170 in RS/MDS mode, %zu LT), %zu frames "
              "aired, %.1f s of audio at %.2f m\n",
              air.bundles.size(), air.pages_mds, air.pages_lt, air.frames.size(), audio_s,
              kDistanceM);
  std::printf("  k per page:");
  for (const std::size_t k : air.ks) std::printf(" %zu", k);
  std::printf("\n");

  ClientOutcome first;
  bool have_first = false;
  const auto same_outcome = [&](const Pass& pass) {
    if (!have_first) {
      first = pass.outcome;
      have_first = true;
    }
    out.check(pass.outcome.fingerprint == first.fingerprint,
              "client outcome differs between reps of the same input");
  };

  if (!opt.trace) {
    std::vector<double> rt_x, pages_s;
    ReferenceClock clock;
    const int reps = repeat_for(opt.seconds, [&] {
      const Pass pass = run_pass(in, air, nullptr, &clock, out);
      rt_x.push_back(audio_s / pass.wall_s);
      pages_s.push_back(static_cast<double>(air.bundles.size()) / pass.wall_s);
      same_outcome(pass);
    });
    std::printf("client_rx: %d reps in %.2f wall s, frames ok %zu/%zu, pages full %zu/%zu (%llu "
                "fountain-decoded), resyncs %llu\n",
                reps, clock.raw_seconds(), first.source_frames_ok, first.source_frames_aired,
                first.pages_full, first.pages_aired,
                static_cast<unsigned long long>(first.pages_fountain_decoded),
                static_cast<unsigned long long>(first.rx_resyncs));
    out.add("setup_s", median(setup_s), "s");
    out.add("rt_x", median(rt_x), "x");
    out.add("pages_s", median(pages_s), "1/s");
    out.add("pages_ok_ratio",
            static_cast<double>(first.pages_full) / static_cast<double>(first.pages_aired), "ratio");
  } else {
    Tracer tracer(true);
    double traced_wall = 0.0;
    ReferenceClock chunk_clock;  // times the untraced passes' on_audio calls
    repeat_for(opt.seconds, [&] {
      const Pass plain = run_pass(in, air, nullptr, &chunk_clock, out);
      const Pass traced = run_pass(in, air, &tracer, nullptr, out);
      same_outcome(plain);
      same_outcome(traced);
      traced_wall += traced.wall_s;
    });
    const double untraced_wall = chunk_clock.raw_seconds();
    report_layers(tracer, traced_wall, untraced_wall, {"modem.rx", "sonic.rx_frame", "sonic.flush"},
                  out);
    report_on_audio(chunk_clock, out);
    out.add("modem.rx_resyncs", static_cast<double>(first.rx_resyncs), "count");
    out.add("modem.frames_ok_ratio", first.rx_frames_ok_ratio(), "ratio");
    out.add("sonic.repair_frames_received", static_cast<double>(first.repair_frames_received),
            "count");
    out.add("sonic.pages_fountain_decoded", static_cast<double>(first.pages_fountain_decoded),
            "count");
    out.add("fec.pages_mds", static_cast<double>(air.pages_mds), "count");
    out.add("fec.pages_lt", static_cast<double>(air.pages_lt), "count");
    print_layers(tracer, traced_wall);
  }
  out.attempted = first.source_frames_aired;
  out.failed = first.source_frames_missing;
  return out;
}

}  // namespace e2e
