// Broadcast pipeline, metrics registry, scheduler shards and the redesigned
// Params::validate() config API.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "sonic/pipeline.hpp"
#include "sonic/scheduler.hpp"
#include "sonic/server.hpp"
#include "sonic/client.hpp"
#include "util/metrics.hpp"
#include "web/corpus.hpp"

namespace sonic::core {
namespace {

BroadcastPipeline::Params small_pipeline_params() {
  BroadcastPipeline::Params pp;
  pp.layout = web::LayoutParams{240, 2000, 10};  // small, fast renders
  return pp;
}

// ---------------------------------------------------------------- Metrics ---

TEST(Metrics, CountersAccumulateAndReport) {
  Metrics m;
  m.counter("pages").add();
  m.counter("pages").add(4);
  EXPECT_EQ(m.counter("pages").value(), 5u);
  EXPECT_EQ(m.counter_value("pages"), 5u);
  EXPECT_EQ(m.counter_value("absent"), 0u);
  EXPECT_NE(m.report().find("pages"), std::string::npos);
  EXPECT_EQ(m.report().find("absent"), std::string::npos);
}

TEST(Metrics, HistogramTracksSummary) {
  Metrics m;
  auto& h = m.histogram("wait");
  h.observe(2.0);
  h.observe(6.0);
  h.observe(1.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 9.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_NE(m.report().find("wait"), std::string::npos);
}

// --------------------------------------------------------------- Pipeline ---

TEST(Pipeline, ParallelOutputIsByteIdenticalToSerial) {
  web::PkCorpus corpus;
  auto pp = small_pipeline_params();
  pp.cache_pages = 8;  // small enough that LRU evictions must also replay

  std::vector<std::string> urls;
  for (int i = 0; i < 12; ++i) urls.push_back(corpus.pages()[static_cast<std::size_t>(i)].url);
  urls.push_back("search:cricket score");
  urls.push_back(urls[0]);  // duplicate inside one batch
  urls.push_back("does-not-exist.pk/");

  BroadcastPipeline serial(&corpus, pp);
  pp.num_threads = 4;
  BroadcastPipeline parallel(&corpus, pp);
  EXPECT_EQ(serial.parallelism(), 0);
  EXPECT_EQ(parallel.parallelism(), 4);

  // Two passes: the second at a later hour, where part of the catalog has
  // churned, exercising version-guarded hits, re-renders and evictions.
  for (const double now_s : {0.0, 7 * 3600.0}) {
    const auto a = serial.prepare(urls, now_s);
    const auto b = parallel.prepare(urls, now_s);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].bundle != nullptr, b[i].bundle != nullptr) << urls[i];
      if (!a[i].bundle) continue;
      EXPECT_EQ(a[i].bundle->page_id, b[i].bundle->page_id) << urls[i];
      EXPECT_EQ(a[i].bundle->metadata.url, b[i].bundle->metadata.url);
      EXPECT_EQ(a[i].bundle->frames, b[i].bundle->frames) << urls[i];  // byte-identical
    }
  }
  EXPECT_EQ(serial.metrics().counter_value("pages_rendered"),
            parallel.metrics().counter_value("pages_rendered"));
  EXPECT_EQ(serial.metrics().counter_value("render_cache_hits"),
            parallel.metrics().counter_value("render_cache_hits"));
  EXPECT_EQ(serial.metrics().counter_value("frames_emitted"),
            parallel.metrics().counter_value("frames_emitted"));
}

TEST(Pipeline, SingleJobBatchesMatchSerial) {
  // One-miss batches render on the submitting thread, larger ones on the
  // workers, page after page of different heights.
  web::PkCorpus corpus;
  auto pp = small_pipeline_params();
  BroadcastPipeline serial(&corpus, pp);
  pp.num_threads = 2;
  BroadcastPipeline parallel(&corpus, pp);
  const auto& pages = corpus.pages();
  const std::vector<std::vector<std::string>> batches = {
      {pages[0].url}, {pages[1].url, pages[2].url, pages[3].url}, {pages[4].url},
      {"search:rain"}, {pages[5].url, pages[0].url}, {pages[6].url}};
  for (const auto& batch : batches) {
    const auto a = serial.prepare(batch, 0.0);
    const auto b = parallel.prepare(batch, 0.0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NE(a[i].bundle, nullptr);
      ASSERT_NE(b[i].bundle, nullptr);
      EXPECT_EQ(a[i].bundle->page_id, b[i].bundle->page_id) << batch[i];
      EXPECT_EQ(a[i].bundle->frames, b[i].bundle->frames) << batch[i];
    }
  }
  EXPECT_EQ(serial.metrics().counter_value("pages_rendered"),
            parallel.metrics().counter_value("pages_rendered"));
}

// The pipeline builds each page from its layout in 64-row bands, never
// holding the raster; its bundles equal the raster path's byte for byte on
// every corpus page at the broadcast layout. make_bundle from a layout,
// which the pipeline calls, also matches with UEP, whose boundary row
// falls inside a band.
TEST(Pipeline, BandBuiltBundlesEqualTheRasterPath) {
  web::PkCorpus corpus;
  BroadcastPipeline::Params pp;  // 1080 x PH10k
  pp.num_threads = 2;
  BroadcastPipeline pipeline(&corpus, pp);
  std::vector<std::string> urls;
  for (const web::PageRef& ref : corpus.pages()) urls.push_back(ref.url);
  urls.push_back("search:cricket score");
  const auto prepared = pipeline.prepare(urls, 0.0);
  ASSERT_EQ(prepared.size(), urls.size());
  const UepPolicy uep{true};
  for (std::size_t i = 0; i < urls.size(); ++i) {
    ASSERT_NE(prepared[i].bundle, nullptr) << urls[i];
    const PageBundle& bundle = *prepared[i].bundle;
    const web::PageRef* ref = corpus.find(urls[i]);
    const std::string html = ref ? corpus.html(*ref, 0) : corpus.search_html("cricket score", 0);
    const web::RenderResult page = web::render_html(html, pp.layout);
    const PageBundle want = make_bundle(bundle.page_id, urls[i], page, pp.codec, pp.page_expiry_s);
    EXPECT_TRUE(bundle.frames == want.frames) << urls[i];
    const web::PageLayout layout = web::layout_html(web::parse_html(html), pp.layout);
    EXPECT_TRUE(make_bundle(bundle.page_id, urls[i], layout, pp.codec, pp.page_expiry_s, uep).frames ==
                make_bundle(bundle.page_id, urls[i], page, pp.codec, pp.page_expiry_s, uep).frames)
        << urls[i] << " with UEP";
  }
}

TEST(Pipeline, CacheHitsWithinHourAndRerenderOnRotation) {
  web::PkCorpus corpus;
  BroadcastPipeline pipeline(&corpus, small_pipeline_params());

  // Search results rotate every 6 hours: same page within the window.
  ASSERT_NE(pipeline.prepare_one("search:mangoes", 0.0), nullptr);
  ASSERT_NE(pipeline.prepare_one("search:mangoes", 3600.0), nullptr);
  EXPECT_EQ(pipeline.metrics().counter_value("pages_rendered"), 1u);
  EXPECT_EQ(pipeline.metrics().counter_value("render_cache_hits"), 1u);

  // Past the rotation boundary the version changes: a fresh render.
  ASSERT_NE(pipeline.prepare_one("search:mangoes", 6 * 3600.0), nullptr);
  EXPECT_EQ(pipeline.metrics().counter_value("pages_rendered"), 2u);
}

TEST(Pipeline, LruEvictsLeastRecentlyUsed) {
  web::PkCorpus corpus;
  auto pp = small_pipeline_params();
  pp.cache_pages = 2;
  BroadcastPipeline pipeline(&corpus, pp);

  const std::string a = corpus.pages()[0].url;
  const std::string b = corpus.pages()[1].url;
  const std::string c = corpus.pages()[2].url;
  pipeline.prepare_one(a, 0.0);
  pipeline.prepare_one(b, 0.0);
  pipeline.prepare_one(a, 0.0);  // refresh a: b is now least recently used
  pipeline.prepare_one(c, 0.0);  // evicts b
  EXPECT_EQ(pipeline.cache_size(), 2u);
  EXPECT_EQ(pipeline.cache_evictions(), 1u);

  pipeline.prepare_one(a, 0.0);  // still cached
  EXPECT_EQ(pipeline.metrics().counter_value("render_cache_hits"), 2u);
  pipeline.prepare_one(b, 0.0);  // evicted: must re-render
  EXPECT_EQ(pipeline.metrics().counter_value("pages_rendered"), 4u);
}

TEST(Pipeline, MetricsCountFramesAndTimings) {
  web::PkCorpus corpus;
  BroadcastPipeline pipeline(&corpus, small_pipeline_params());
  const auto prepared =
      pipeline.prepare({corpus.pages()[0].url, corpus.pages()[1].url, "unknown.pk/"}, 0.0);
  ASSERT_EQ(prepared.size(), 3u);
  ASSERT_NE(prepared[0].bundle, nullptr);
  ASSERT_NE(prepared[1].bundle, nullptr);
  EXPECT_EQ(prepared[2].bundle, nullptr);
  EXPECT_FALSE(prepared[0].cache_hit);

  auto& m = pipeline.metrics();
  EXPECT_EQ(m.counter_value("pages_rendered"), 2u);
  EXPECT_EQ(m.counter_value("render_cache_misses"), 2u);
  EXPECT_EQ(m.counter_value("frames_emitted"),
            prepared[0].bundle->frames.size() + prepared[1].bundle->frames.size());
  EXPECT_EQ(m.histogram("render_s").snapshot().count, 2u);
  EXPECT_EQ(m.histogram("encode_s").snapshot().count, 2u);
}

TEST(Pipeline, ValidateRejectsNonsense) {
  BroadcastPipeline::Params pp;
  pp.cache_pages = 0;
  pp.num_threads = -2;
  pp.codec.quality = 0;
  const auto errors = pp.validate();
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_TRUE(small_pipeline_params().validate().empty());
}

// The pipeline refuses what its validate() names, as the server, carousel
// and client do: a zero-page cache would otherwise grow without bound, and
// a negative thread count would run serially.
TEST(Pipeline, ConstructorThrowsOnInvalidConfig) {
  const web::PkCorpus corpus;
  BroadcastPipeline::Params zero_cache = small_pipeline_params();
  zero_cache.cache_pages = 0;
  EXPECT_THROW(BroadcastPipeline(&corpus, zero_cache), std::invalid_argument);
  BroadcastPipeline::Params negative_threads = small_pipeline_params();
  negative_threads.num_threads = -2;
  EXPECT_THROW(BroadcastPipeline(&corpus, negative_threads), std::invalid_argument);
  EXPECT_NO_THROW(BroadcastPipeline(&corpus, small_pipeline_params()));
}

// ----------------------------------------------------- Per-transmitter shards ---

struct TwoCityWorld {
  web::PkCorpus corpus;
  sms::SmsGateway gateway{{2.0, 0.5, 0.0, 99}};
  SonicServer::Params server_params;
  TwoCityWorld() {
    server_params.layout = web::LayoutParams{240, 2000, 10};
    server_params.transmitters = {{"lahore", 93.7, 31.52, 74.35, 40.0},
                                  {"karachi", 101.1, 24.86, 67.0, 40.0}};
  }
};

TEST(ServerShards, TransmittersDrainIndependently) {
  TwoCityWorld w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);

  // Pile a backlog onto Lahore only.
  std::vector<std::string> lahore_catalog;
  for (int i = 0; i < 6; ++i) lahore_catalog.push_back(w.corpus.pages()[static_cast<std::size_t>(i)].url);
  ASSERT_EQ(server.push_pages_to("lahore", lahore_catalog, 0.0), 6);
  ASSERT_EQ(server.push_pages_to("karachi", {w.corpus.pages()[10].url}, 0.0), 1);
  ASSERT_EQ(server.push_pages_to("nowhere", {w.corpus.pages()[10].url}, 0.0), 0);

  const BroadcastScheduler* lahore = server.scheduler_for("lahore");
  const BroadcastScheduler* karachi = server.scheduler_for("karachi");
  ASSERT_NE(lahore, nullptr);
  ASSERT_NE(karachi, nullptr);
  EXPECT_EQ(server.scheduler_for("nowhere"), nullptr);
  EXPECT_GT(lahore->backlog_bytes(), karachi->backlog_bytes());
  EXPECT_NEAR(server.total_backlog_bytes(), lahore->backlog_bytes() + karachi->backlog_bytes(),
              1e-6);

  // Advance just far enough to finish Karachi's single page: it must not
  // wait behind Lahore's six (the legacy shared queue would have put it
  // seventh).
  const double karachi_drain_s = karachi->backlog_bytes() * 8.0 / karachi->aggregate_rate_bps();
  const auto done = server.advance(karachi_drain_s + 1.0);
  bool karachi_done = false;
  for (const auto& b : done) {
    if (b.transmitter.name == "karachi") karachi_done = true;
  }
  EXPECT_TRUE(karachi_done);
  EXPECT_NEAR(karachi->backlog_bytes(), 0.0, 1e-6);
  EXPECT_GT(lahore->backlog_bytes(), 0.0);
}

TEST(ServerShards, SmsEtaReflectsCoveringShardOnly) {
  TwoCityWorld w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);

  // Lahore carries a heavy backlog.
  std::vector<std::string> lahore_catalog;
  for (int i = 0; i < 8; ++i) lahore_catalog.push_back(w.corpus.pages()[static_cast<std::size_t>(i)].url);
  server.push_pages_to("lahore", lahore_catalog, 0.0);
  const double lahore_eta_floor =
      server.scheduler_for("lahore")->backlog_bytes() * 8.0 /
      server.scheduler_for("lahore")->aggregate_rate_bps();

  // A Karachi user's request is promised the idle Karachi shard's ETA.
  SonicClient::Params cp;
  cp.phone_number = "+923004443322";
  cp.lat = 24.86;
  cp.lon = 67.0;
  SonicClient client(&w.gateway, cp);
  client.request(w.corpus.pages()[12].url, 0.0);
  server.poll_sms(10.0);
  const auto acks = client.poll_acks(20.0);
  ASSERT_EQ(acks.size(), 1u);
  ASSERT_TRUE(acks[0].accepted);
  EXPECT_NEAR(acks[0].frequency_mhz, 101.1, 0.01);
  EXPECT_LT(acks[0].eta_s, lahore_eta_floor);

  // And the promise is kept: the broadcast completes within the ETA (the
  // SMS ACK encoding quantizes the ETA to whole seconds, hence the 1 s
  // slack).
  const auto done = server.advance(10.0 + acks[0].eta_s + 2.0);
  bool delivered = false;
  for (const auto& b : done) {
    if (b.transmitter.name == "karachi" && b.bundle.metadata.url == w.corpus.pages()[12].url) {
      delivered = true;
      EXPECT_LE(b.completed_at_s - 10.0, acks[0].eta_s + 1.0);
    }
  }
  EXPECT_TRUE(delivered);
}

// One url aired by both cities: each completion names the shard that aired
// it, not whichever push came last.
TEST(ServerShards, SameUrlOnTwoShardsReportsEachTransmitter) {
  TwoCityWorld w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  const std::string url = w.corpus.pages()[3].url;
  ASSERT_EQ(server.push_pages_to("lahore", {url}, 0.0), 1);
  ASSERT_EQ(server.push_pages_to("karachi", {url}, 0.0), 1);
  const auto done = server.advance(1e9);
  ASSERT_EQ(done.size(), 2u);
  std::vector<std::string> names;
  for (const auto& b : done) {
    EXPECT_EQ(b.bundle.metadata.url, url);
    names.push_back(b.transmitter.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"karachi", "lahore"}));
}

// A bundle must survive for broadcast even after the LRU evicts its cache
// entry while it waits for airtime.
TEST(ServerShards, QueuedBundleSurvivesCacheEviction) {
  TwoCityWorld w;
  w.server_params.render_cache_pages = 1;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  const std::string first = w.corpus.pages()[0].url;
  server.push_pages({first}, 0.0);
  // Evict `first` from the 1-entry cache before its airtime completes.
  server.push_pages({w.corpus.pages()[1].url}, 1.0);
  server.push_pages({w.corpus.pages()[2].url}, 2.0);
  const auto done = server.advance(1e9);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].bundle.metadata.url, first);
  EXPECT_GT(done[0].bundle.frames.size(), 0u);
}

// ---------------------------------------------------------- Config validate ---

TEST(ServerParams, ValidateReturnsDescriptiveErrors) {
  SonicServer::Params sp;
  EXPECT_TRUE(sp.validate().empty());

  sp.rate_bps = -10.0;
  sp.num_frequencies = 0;
  sp.transmitters.clear();
  sp.render_cache_pages = 0;
  const auto errors = sp.validate();
  EXPECT_EQ(errors.size(), 4u);
  auto mentions = [&](const std::string& needle) {
    return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
      return e.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(mentions("rate_bps"));
  EXPECT_TRUE(mentions("num_frequencies"));
  EXPECT_TRUE(mentions("transmitters"));
  EXPECT_TRUE(mentions("cache_pages"));
}

TEST(ServerParams, DuplicateTransmitterNamesRejected) {
  SonicServer::Params sp;
  sp.transmitters = {{"twin", 93.7, 0, 0, 30.0}, {"twin", 95.1, 1, 1, 30.0}};
  const auto errors = sp.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("duplicate"), std::string::npos);
}

TEST(ServerParams, ConstructorThrowsOnInvalidConfig) {
  web::PkCorpus corpus;
  sms::SmsGateway gateway({2.0, 0.5, 0.0, 99});
  SonicServer::Params sp;
  sp.num_frequencies = -3;
  EXPECT_THROW(SonicServer(&corpus, &gateway, sp), std::invalid_argument);
}

TEST(ClientParams, ValidateAndConstructorReject) {
  SonicClient::Params cp;
  EXPECT_TRUE(cp.validate().empty());
  cp.device_width = 0;
  cp.cache_pages = 0;
  cp.server_number.clear();
  EXPECT_EQ(cp.validate().size(), 3u);
  EXPECT_THROW(SonicClient(nullptr, cp), std::invalid_argument);
}

// ------------------------------------------------------------ ETA regression ---

// Regression for the promised-vs-actual ETA mismatch: eta_s must fold in the
// drain (including the in-flight head remainder) between the shard's last
// advance and the SMS poll, which the one-argument overload missed — an
// error multiplied by num_frequencies.
TEST(Scheduler, PromisedEtaMatchesActualCompletion) {
  for (const int freqs : {1, 2, 4}) {
    BroadcastScheduler sched({10000.0, freqs});
    sched.enqueue("backlog", 50000, 0.0);
    sched.advance(4.0);  // scheduler clock stops here; "backlog" in flight

    // An SMS poll at t=30 computes the promise without advancing first.
    const double promised = sched.eta_s(10000, 30.0);
    sched.enqueue("new", 10000, 30.0);
    double completed = -1.0;
    for (const auto& item : sched.advance(1000.0)) {
      if (item.url == "new") completed = item.completed_at_s;
    }
    ASSERT_GE(completed, 0.0) << freqs;
    EXPECT_NEAR(completed - 30.0, promised, 0.05) << "num_frequencies=" << freqs;
  }
}

TEST(Scheduler, TwoArgEtaNeverNegativeOnLongIdle) {
  BroadcastScheduler sched({10000.0, 4});
  sched.enqueue("only", 1000, 0.0);
  // Long after the queue has drained, the promise is just the item's own
  // airtime.
  EXPECT_NEAR(sched.eta_s(5000, 1e6), 5000.0 * 8.0 / 40000.0, 1e-9);
}

}  // namespace
}  // namespace sonic::core
