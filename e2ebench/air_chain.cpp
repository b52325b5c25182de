// air_chain: the whole simulated downlink on one thread.
//
// BroadcastPipeline::prepare renders and frames the run's pages at the
// server's default 1080-px layout (a fresh pipeline per rep, so every page
// is a cache miss). Frames go out in 16-frame OfdmModem::modulate bursts,
// each burst through fm::FmLink::transmit (default RF, 20 cm acoustic hop),
// and SonicClient::on_audio takes the result in 20 ms chunks, followed by
// end_audio and flush. The channel is clean, so this workload measures the
// FM layer and the receiver's first-try path.
//
// The page is a fixed search-results page of the corpus model (PkCorpus::
// search_html): at 1080 px these are the smallest pages the corpus renders
// (~1600-2700 frames, 2-3 minutes of air), which keeps one whole-page rep
// at ~30 s of wall time. The seed drives the FM link's noise. A page drawn
// from the seed made set-up time, which renders it, spread by ~30 % from
// seed to seed.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fm/acoustic.hpp"
#include "fm/fm_modem.hpp"
#include "fm/link.hpp"
#include "modem/ofdm.hpp"
#include "modem/profile.hpp"
#include "sonic/pipeline.hpp"
#include "util/rng.hpp"
#include "web/corpus.hpp"
#include "web/layout.hpp"

namespace e2e {
namespace {

using namespace sonic;

constexpr std::size_t kBurstFrames = 16;

struct Input {
  std::vector<std::string> urls;
  double now_s = 0.0;
  core::BroadcastPipeline::Params pipeline;
  fm::FmLinkConfig link;
};

Input make_input(const Options& opt) {
  util::Rng rng(opt.seed ^ 0x41495243ull);  // "AIRC"
  Input in;
  in.urls.push_back("search:karachi news");  // 2128 frames
  in.now_s = 1800.0;
  if (opt.smoke) {
    in.pipeline.layout.width = 96;
    in.pipeline.layout.max_height = 400;
  }
  in.link.acoustic.distance_m = 0.2;
  in.link.seed = rng.next();
  return in;
}

// What the rep's checks compare against: the pipeline's bundles from a
// separate prepare() and the pages assembled from all of their frames.
struct Reference {
  std::vector<core::PageBundle> bundles;
  std::vector<core::ReceivedPage> pages;
  std::vector<util::Bytes> frames;
  std::uint64_t hash = 0;
};

Reference make_reference(const web::PkCorpus& corpus, const Input& in) {
  Reference ref;
  core::BroadcastPipeline pipeline(&corpus, in.pipeline);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& p : pipeline.prepare(in.urls, in.now_s)) {
    if (!p.bundle) throw std::runtime_error("unknown page " + p.url);
    ref.bundles.push_back(*p.bundle);
    for (const auto& f : p.bundle->frames) {
      ref.frames.push_back(f);
      h = fnv1a(f.data(), f.size(), h);
    }
  }
  ref.pages = assemble_reference(ref.bundles);
  ref.hash = h;
  return ref;
}

struct Pass {
  double wall_s = 0.0;
  double air_s = 0.0;
  std::uint64_t audio_hash = 0;
  ClientOutcome outcome;
};

// One rep. Untraced (tracer null): the opaque calls. Traced: FmLink::transmit
// is replaced by its four stages, seeded exactly as FmLink seeds them, and
// on_audio by StreamReceiver + on_burst (ClientFeed).
Pass run_pass(const web::PkCorpus& corpus, const Input& in, const Reference& ref, Tracer* tracer,
              ReferenceClock* clock, Result& out) {
  Tracer off(false);
  Tracer& tr = tracer != nullptr ? *tracer : off;
  Pass pass;
  pass.audio_hash = 0xcbf29ce484222325ull;
  if (clock != nullptr) clock->start();
  const auto t0 = Clock::now();

  core::BroadcastPipeline pipeline(&corpus, in.pipeline);
  std::vector<core::BroadcastPipeline::Prepared> prepared;
  {
    auto span = tr.span(tr.slot("sonic.prepare"));
    prepared = pipeline.prepare(in.urls, in.now_s);
  }

  const modem::OfdmModem modem(*modem::profiles::get("sonic-10k"));
  core::SonicClient::Params cp;
  core::SonicClient client(nullptr, cp);
  ClientFeed feed(client, cp, tracer, clock);

  fm::FmLink link(in.link);
  util::Rng link_rng(in.link.seed);  // FmLink's generator, for the traced stages
  Tracer::Slot& tx_slot = tr.slot("modem.tx");
  Tracer::Slot& mod_slot = tr.slot("fm.mod");
  Tracer::Slot& rf_slot = tr.slot("fm.rf");
  Tracer::Slot& demod_slot = tr.slot("fm.demod");
  Tracer::Slot& air_slot = tr.slot("fm.air");

  std::size_t samples = 0;
  for (const auto& p : prepared) {
    const auto& frames = p.bundle->frames;
    for (std::size_t first = 0; first < frames.size(); first += kBurstFrames) {
      const std::vector<util::Bytes> burst(
          frames.begin() + static_cast<std::ptrdiff_t>(first),
          frames.begin() + static_cast<std::ptrdiff_t>(std::min(frames.size(), first + kBurstFrames)));
      std::vector<float> audio;
      {
        auto span = tr.span(tx_slot);
        audio = modem.modulate(burst);
      }
      tx_slot.work += static_cast<double>(audio.size());
      samples += audio.size();

      std::vector<float> heard;
      if (tracer == nullptr) {
        heard = link.transmit(audio);
      } else {
        const double n = static_cast<double>(audio.size());
        std::vector<fm::cplx> iq;
        {
          auto span = tr.span(mod_slot);
          const fm::FmModulator mod(in.link.fm);
          iq = mod.modulate(audio);
        }
        {
          auto span = tr.span(rf_slot);
          fm::RfChannel rf(in.link.rf, link_rng.fork(1));
          iq = rf.process(iq);
        }
        std::vector<float> radio;
        {
          auto span = tr.span(demod_slot);
          fm::FmDemodulator demod(in.link.fm);
          radio = demod.demodulate(iq);
          const auto tail = demod.finish();
          radio.insert(radio.end(), tail.begin(), tail.end());
        }
        {
          auto span = tr.span(air_slot);
          fm::AcousticChannel air(in.link.acoustic, link_rng.fork(2));
          heard = air.process(radio);
          const auto tail = air.finish();
          heard.insert(heard.end(), tail.begin(), tail.end());
        }
        link_rng = link_rng.fork(3);
        mod_slot.work += n;
        rf_slot.work += n;
        demod_slot.work += n;
        air_slot.work += n;
      }
      pass.audio_hash = fnv1a(heard.data(), heard.size() * sizeof(float), pass.audio_hash);
      feed.push(heard);
      if (clock != nullptr) clock->tick();
    }
  }
  feed.finish(in.now_s);
  pass.wall_s = clock != nullptr ? clock->stop() : seconds_since(t0);
  pass.air_s = static_cast<double>(samples) / kAudioRate;

  // Checks, after the clock stops.
  out.check(pipeline.metrics().counter_value("render_cache_misses") == in.urls.size(),
            "air_chain pages must all be pipeline cache misses");
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& p : prepared) {
    for (const auto& f : p.bundle->frames) h = fnv1a(f.data(), f.size(), h);
  }
  out.check(h == ref.hash, "prepare() frames differ from the set-up reference");
  pass.outcome = check_client(client, ref.bundles, ref.pages, in.now_s, out);
  if (tracer != nullptr) check_kept_frames(feed.kept_frames(), ref.frames, out);
  return pass;
}

}  // namespace

Result run_air_chain(const Options& opt) {
  Result out;
  const Input in = make_input(opt);

  // Set-up: the corpus model and the reference bundles/pages the checks
  // use. It takes ~0.15 s, so setup_s is the median of several.
  constexpr int kSetupReps = 7;
  std::vector<double> setup_s;
  std::unique_ptr<web::PkCorpus> corpus;
  Reference ref;
  for (int i = 0; i < kSetupReps; ++i) {
    ReferenceClock clock;
    clock.start();
    auto c = std::make_unique<web::PkCorpus>();
    Reference r = make_reference(*c, in);
    setup_s.push_back(clock.stop());
    out.check(i == 0 || r.hash == ref.hash, "set-up is not deterministic");
    corpus = std::move(c);
    ref = std::move(r);
  }
  std::printf("air_chain: %s at epoch %.0f h, %zu frames, FM link seed %llu\n",
              in.urls.front().c_str(), in.now_s / 3600.0, ref.frames.size(),
              static_cast<unsigned long long>(in.link.seed));

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
    const int reps = repeat_for(opt.seconds, [&] {
      ReferenceClock clock;
      const Pass pass = run_pass(*corpus, in, ref, nullptr, &clock, out);
      rt_x.push_back(pass.air_s / pass.wall_s);
      pages_s.push_back(static_cast<double>(in.urls.size()) / pass.wall_s);
      same_outcome(pass);
      std::printf("  rep: %.1f s of air in %.2f reference s (%.2f wall s): %.2fx\n", pass.air_s,
                  pass.wall_s, clock.raw_seconds(), pass.air_s / pass.wall_s);
    });
    std::printf("air_chain: %d reps, frames ok %zu/%zu, pages full %zu/%zu\n", reps,
                first.source_frames_ok, first.source_frames_aired, first.pages_full,
                first.pages_aired);
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
      const Pass plain = run_pass(*corpus, in, ref, nullptr, &chunk_clock, out);
      const Pass traced = run_pass(*corpus, in, ref, &tracer, nullptr, out);
      same_outcome(plain);
      same_outcome(traced);
      out.check(traced.audio_hash == plain.audio_hash,
                "traced FM stages differ from FmLink::transmit");
      traced_wall += traced.wall_s;
    });
    const double untraced_wall = chunk_clock.raw_seconds();
    // Render and framing happened inside prepare(); re-time them on the
    // same pages and check the frames match.
    for (std::size_t i = 0; i < ref.bundles.size(); ++i) {
      replay_page(*corpus, in.pipeline, ref.bundles[i], static_cast<int>(in.now_s / 3600.0),
                  tracer, out);
    }
    report_layers(tracer, traced_wall, untraced_wall,
                  {"sonic.prepare", "modem.tx", "fm.mod", "fm.rf", "fm.demod", "fm.air",
                   "modem.rx", "sonic.rx_frame", "sonic.flush"},
                  out);
    report_on_audio(chunk_clock, out);
    out.add("modem.rx_resyncs", static_cast<double>(first.rx_resyncs), "count");
    out.add("modem.frames_ok_ratio", first.rx_frames_ok_ratio(), "ratio");
    print_layers(tracer, traced_wall);
  }
  out.attempted = first.source_frames_aired;
  out.failed = first.source_frames_missing;
  return out;
}

}  // namespace e2e
