#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "fec/fountain.hpp"
#include "oracles/frame_forge.hpp"
#include "sonic/cache.hpp"
#include "sonic/carousel.hpp"
#include "sonic/client.hpp"
#include "sonic/framing.hpp"
#include "sonic/scheduler.hpp"
#include "sonic/server.hpp"
#include "util/rng.hpp"
#include "web/corpus.hpp"

namespace sonic::core {
namespace {

using oracles::serialize_frame;
using sonic::util::Rng;

web::RenderResult small_page(const std::string& link = "target.pk/") {
  return web::render_html(
      "<h1>Headline</h1><p>Some body text for the page that wraps across lines.</p>"
      "<p><a href=\"" + link + "\">read more</a></p><p>tail content</p>",
      web::LayoutParams{240, 1200, 10});
}

// ---------------------------------------------------------------- Framing ---

TEST(Framing, FrameRoundTrip) {
  util::Bytes payload{1, 2, 3, 4, 5};
  const auto frame = serialize_frame({42, 7, 100, 1}, payload);
  EXPECT_EQ(frame.size(), kFrameSize);
  const auto parsed = parse_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first.page_id, 42u);
  EXPECT_EQ(parsed->first.seq, 7);
  EXPECT_EQ(parsed->first.total, 100);
  EXPECT_EQ(parsed->first.type, 1);
  EXPECT_EQ(parsed->second, payload);
}

TEST(Framing, RejectsMalformedFrames) {
  EXPECT_FALSE(parse_frame(util::Bytes(50, 0)).has_value());   // wrong size
  EXPECT_FALSE(parse_frame(util::Bytes(200, 0)).has_value());  // wrong size
  auto frame = serialize_frame({1, 0, 1, 0}, {});
  frame[8] = 9;  // bad type
  EXPECT_FALSE(parse_frame(frame).has_value());
  auto frame2 = serialize_frame({1, 5, 3, 0}, {});  // seq >= total
  EXPECT_FALSE(parse_frame(frame2).has_value());
}

TEST(Framing, MetadataRoundTrip) {
  PageMetadata m;
  m.url = "khabar.pk/story-1";
  m.width = 1080;
  m.height = 9999;
  m.quality = 10;
  m.expiry_s = 7200;
  m.click_map = {{10, 20, 100, 16, "khabar.pk/"}, {10, 400, 220, 16, "khabar.pk/story-2"}};
  const auto parsed = parse_metadata(serialize_metadata(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->url, m.url);
  EXPECT_EQ(parsed->width, 1080);
  EXPECT_EQ(parsed->height, 9999);
  EXPECT_EQ(parsed->expiry_s, 7200u);
  ASSERT_EQ(parsed->click_map.size(), 2u);
  EXPECT_EQ(parsed->click_map[1].href, "khabar.pk/story-2");
}

TEST(Framing, TruncatedMetadataKeepsPrefixClickMap) {
  PageMetadata m;
  m.url = "x.pk/";
  m.width = 100;
  m.height = 100;
  for (int i = 0; i < 20; ++i) m.click_map.push_back({i, i, 10, 10, "x.pk/story-1"});
  auto blob = serialize_metadata(m);
  blob.resize(blob.size() / 2);  // lose the tail chunk
  const auto parsed = parse_metadata(blob);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->url, "x.pk/");
  EXPECT_LT(parsed->click_map.size(), 20u);
}

TEST(Framing, BundleFramesAreFixedSize) {
  const auto page = small_page();
  const auto bundle = make_bundle(5, "test.pk/", page, {10, 94});
  EXPECT_GT(bundle.frames.size(), 4u);
  for (const auto& f : bundle.frames) EXPECT_EQ(f.size(), kFrameSize);
  // Every frame parses and carries the right page id and total.
  for (const auto& f : bundle.frames) {
    const auto parsed = parse_frame(f);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first.page_id, 5u);
    EXPECT_EQ(parsed->first.total, bundle.frames.size());
  }
}

TEST(Assembler, FullDeliveryReconstructsPage) {
  const auto page = small_page();
  const auto bundle = make_bundle(9, "full.pk/", page, {50, 94});
  PageAssembler assembler;
  for (const auto& f : bundle.frames) assembler.push(f);
  EXPECT_TRUE(assembler.complete(9));
  const auto received = assembler.assemble(9, image::InterpolationMode::kLeft);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->metadata.url, "full.pk/");
  EXPECT_EQ(received->image.width(), page.image.width());
  EXPECT_EQ(received->image.height(), page.image.height());
  EXPECT_EQ(received->coverage, 1.0);
  EXPECT_EQ(received->frame_loss_rate(), 0.0);
  EXPECT_EQ(received->metadata.click_map.size(), page.click_map.size());
  EXPECT_GT(image::psnr(page.image, received->image), 18.0);
}

TEST(Assembler, ToleratesLossDuplicatesAndReordering) {
  const auto page = small_page();
  const auto bundle = make_bundle(3, "messy.pk/", page, {10, 94});
  Rng rng(5);
  std::vector<util::Bytes> frames = bundle.frames;
  rng.shuffle(frames);
  PageAssembler assembler;
  std::size_t dropped = 0;
  for (const auto& f : frames) {
    if (rng.bernoulli(0.10)) {
      ++dropped;
      continue;
    }
    assembler.push(f);
    if (rng.bernoulli(0.3)) assembler.push(f);  // duplicate delivery
  }
  ASSERT_GT(dropped, 0u);
  const auto received = assembler.assemble(3, image::InterpolationMode::kLeft);
  ASSERT_TRUE(received.has_value());
  EXPECT_LT(received->coverage, 1.0 + 1e-9);
  EXPECT_GT(received->coverage, 0.6);
  EXPECT_NEAR(received->frame_loss_rate(), 0.10, 0.08);
  // Interpolation fills the image fully.
  EXPECT_EQ(received->image.width(), page.image.width());
}

TEST(Assembler, MetadataRedundancySurvivesFirstCopyLoss) {
  const auto page = small_page();
  const auto bundle = make_bundle(4, "meta.pk/", page, {10, 94});
  PageAssembler assembler;
  // Drop every metadata frame in the first half of the stream; the tail
  // copy must still provide the geometry.
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < bundle.frames.size(); ++i) {
    const auto parsed = parse_frame(bundle.frames[i]);
    ASSERT_TRUE(parsed.has_value());
    if (parsed->first.type == 0 && i < bundle.frames.size() / 2) {
      ++skipped;
      continue;
    }
    assembler.push(bundle.frames[i]);
  }
  ASSERT_GT(skipped, 0u);
  const auto received = assembler.assemble(4, image::InterpolationMode::kLeft);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->metadata.url, "meta.pk/");
  EXPECT_EQ(received->metadata.click_map.size(), page.click_map.size());
}

TEST(Assembler, NoMetadataMeansNoPage) {
  const auto page = small_page();
  const auto bundle = make_bundle(6, "lost.pk/", page, {10, 94});
  PageAssembler assembler;
  for (const auto& f : bundle.frames) {
    const auto parsed = parse_frame(f);
    if (parsed->first.type == 0) continue;  // all metadata lost
    assembler.push(f);
  }
  EXPECT_FALSE(assembler.assemble(6, image::InterpolationMode::kLeft).has_value());
}

TEST(Assembler, TracksMultiplePagesIndependently) {
  const auto bundle_a = make_bundle(1, "a.pk/", small_page(), {10, 94});
  const auto bundle_b = make_bundle(2, "b.pk/", small_page(), {10, 94});
  PageAssembler assembler;
  // Interleave the two pages' frames.
  for (std::size_t i = 0; i < std::max(bundle_a.frames.size(), bundle_b.frames.size()); ++i) {
    if (i < bundle_a.frames.size()) assembler.push(bundle_a.frames[i]);
    if (i < bundle_b.frames.size()) assembler.push(bundle_b.frames[i]);
  }
  EXPECT_EQ(assembler.known_pages().size(), 2u);
  EXPECT_TRUE(assembler.complete(1));
  EXPECT_TRUE(assembler.complete(2));
  EXPECT_EQ(assembler.assemble(1, image::InterpolationMode::kLeft)->metadata.url, "a.pk/");
  EXPECT_EQ(assembler.assemble(2, image::InterpolationMode::kLeft)->metadata.url, "b.pk/");
  assembler.drop(1);
  EXPECT_EQ(assembler.known_pages().size(), 1u);
}

// -------------------------------------------------------------- Scheduler ---

TEST(Scheduler, DrainsAtAggregateRate) {
  BroadcastScheduler sched({10000.0, 1});  // 1250 B/s
  sched.enqueue("a", 12500, 0.0);
  EXPECT_NEAR(sched.backlog_bytes(), 12500.0, 1.0);
  auto done = sched.advance(5.0);
  EXPECT_TRUE(done.empty());
  EXPECT_NEAR(sched.backlog_bytes(), 12500.0 - 6250.0, 1.0);
  done = sched.advance(10.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].url, "a");
  EXPECT_NEAR(done[0].completed_at_s, 10.0, 0.01);
  EXPECT_NEAR(sched.backlog_bytes(), 0.0, 1e-6);
}

TEST(Scheduler, MultiFrequencyMultipliesRate) {
  BroadcastScheduler one({10000.0, 1});
  BroadcastScheduler four({10000.0, 4});
  one.enqueue("x", 100000, 0.0);
  four.enqueue("x", 100000, 0.0);
  EXPECT_TRUE(one.advance(40.0).empty());   // needs 80 s at 1.25 kB/s
  EXPECT_EQ(four.advance(40.0).size(), 1u); // needs 20 s at 5 kB/s
}

TEST(Scheduler, PriorityOutranksFifoButNotInFlight) {
  BroadcastScheduler sched({8000.0, 1});  // 1000 B/s
  sched.enqueue("slow", 5000, 0.0, 0);
  sched.advance(1.0);  // "slow" is now in flight
  sched.enqueue("bulk", 3000, 1.0, 0);
  sched.enqueue("urgent", 1000, 1.5, 1);
  const auto done = sched.advance(20.0);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].url, "slow");    // not preempted
  EXPECT_EQ(done[1].url, "urgent");  // jumps the bulk refresh
  EXPECT_EQ(done[2].url, "bulk");
}

TEST(Scheduler, EtaAccountsForBacklog) {
  BroadcastScheduler sched({10000.0, 1});
  EXPECT_NEAR(sched.eta_s(1250, sched.now()), 1.0, 0.01);
  sched.enqueue("a", 12500, 0.0);
  EXPECT_NEAR(sched.eta_s(1250, sched.now()), 11.0, 0.01);
}

TEST(Scheduler, BacklogAccumulatesWhenRateInsufficient) {
  // The Fig. 4(c) phenomenon: at 10 kbps the queue never drains.
  BroadcastScheduler sched({10000.0, 1});
  double backlog_peak = 0;
  for (int hour = 0; hour < 24; ++hour) {
    // 2 MB of fresh content per hour > 4.5 MB/h of capacity? 10kbps =
    // 4.5 MB/h, so push 6 MB to exceed it.
    sched.enqueue("refresh" + std::to_string(hour), 6000000, hour * 3600.0);
    sched.advance((hour + 1) * 3600.0);
    backlog_peak = std::max(backlog_peak, sched.backlog_bytes());
  }
  EXPECT_GT(sched.backlog_bytes(), 1000000.0);  // still backlogged
  BroadcastScheduler fast({40000.0, 1});
  for (int hour = 0; hour < 24; ++hour) {
    fast.enqueue("refresh" + std::to_string(hour), 6000000, hour * 3600.0);
    fast.advance((hour + 1) * 3600.0);
  }
  EXPECT_NEAR(fast.backlog_bytes(), 0.0, 1.0);  // 18 MB/h capacity drains
}

// ------------------------------------------------------------------ Cache ---

ReceivedPage fake_page(const std::string& url, std::uint32_t expiry_s) {
  ReceivedPage page;
  page.metadata.url = url;
  page.metadata.width = 10;
  page.metadata.height = 10;
  page.metadata.expiry_s = expiry_s;
  page.image = image::Raster(10, 10);
  page.coverage = 1.0;
  return page;
}

TEST(Cache, StoresAndExpires) {
  PageCache cache;
  cache.put(fake_page("a.pk/", 100), 0.0);
  EXPECT_NE(cache.get("a.pk/", 50.0), nullptr);
  EXPECT_EQ(cache.get("a.pk/", 150.0), nullptr);  // expired
  EXPECT_EQ(cache.size(), 0u);                     // lazily evicted
}

TEST(Cache, CatalogListsUnexpired) {
  PageCache cache;
  cache.put(fake_page("a.pk/", 100), 0.0);
  cache.put(fake_page("b.pk/", 1000), 0.0);
  EXPECT_EQ(cache.catalog(50.0).size(), 2u);
  const auto later = cache.catalog(500.0);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0].url, "b.pk/");
}

TEST(Cache, BoundedEvictsOldest) {
  PageCache cache(2);
  cache.put(fake_page("old.pk/", 10000), 0.0);
  cache.put(fake_page("mid.pk/", 10000), 10.0);
  cache.put(fake_page("new.pk/", 10000), 20.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get("old.pk/", 21.0), nullptr);
  EXPECT_NE(cache.get("new.pk/", 21.0), nullptr);
}

TEST(Cache, PutOverwritesSameUrl) {
  PageCache cache;
  cache.put(fake_page("a.pk/", 100), 0.0);
  auto updated = fake_page("a.pk/", 100000);
  updated.coverage = 0.5;
  cache.put(std::move(updated), 50.0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.get("a.pk/", 5000.0), nullptr);
}

// ----------------------------------------------- Server/client integration ---

struct World {
  web::PkCorpus corpus;
  sms::SmsGateway gateway{{2.0, 0.5, 0.0, 99}};
  SonicServer::Params server_params;
  World() {
    server_params.layout = web::LayoutParams{240, 2000, 10};  // small, fast renders
    server_params.transmitters = {{"lahore", 93.7, 31.52, 74.35, 40.0}};
  }
};

TEST(ServerClient, SmsRequestAckAndBroadcastRoundTrip) {
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient::Params cp;
  cp.phone_number = "+923001234567";
  cp.lat = 31.52;
  cp.lon = 74.35;
  SonicClient client(&w.gateway, cp);

  const std::string url = w.corpus.pages()[0].url;
  EXPECT_EQ(client.request(url, 0.0), SonicClient::TapResult::kRequestedViaSms);

  server.poll_sms(10.0);  // request delivered by now
  const auto acks = client.poll_acks(20.0);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].accepted);
  EXPECT_EQ(acks[0].url, url);
  EXPECT_NEAR(acks[0].frequency_mhz, 93.7, 0.01);
  EXPECT_GT(acks[0].eta_s, 0.0);

  // Let the broadcast complete and deliver the frames losslessly.
  const auto broadcasts = server.advance(20.0 + acks[0].eta_s + 5.0);
  ASSERT_EQ(broadcasts.size(), 1u);
  EXPECT_EQ(broadcasts[0].bundle.metadata.url, url);
  for (const auto& frame : broadcasts[0].bundle.frames) client.on_frame(frame);
  const auto cached = client.flush(100.0);
  ASSERT_EQ(cached.size(), 1u);
  EXPECT_EQ(cached[0], url);

  const auto view = client.open(url, 101.0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->image.width(), cp.device_width);
}

TEST(ServerClient, NackForUnknownPageAndNoCoverage) {
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient::Params cp;
  cp.phone_number = "+923009999999";
  cp.lat = 31.52;
  cp.lon = 74.35;
  SonicClient client(&w.gateway, cp);

  client.request("does-not-exist.pk/", 0.0);
  server.poll_sms(10.0);
  auto acks = client.poll_acks(20.0);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_FALSE(acks[0].accepted);
  EXPECT_EQ(acks[0].reason, "unknown-page");

  // A user outside every transmitter's range.
  SonicClient::Params far;
  far.phone_number = "+923008888888";
  far.lat = 24.86;  // Karachi, ~1000 km from the Lahore transmitter
  far.lon = 67.0;
  SonicClient remote(&w.gateway, far);
  remote.request(w.corpus.pages()[0].url, 30.0);
  server.poll_sms(40.0);
  acks = remote.poll_acks(50.0);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_FALSE(acks[0].accepted);
  EXPECT_EQ(acks[0].reason, "no-coverage");
}

TEST(ServerClient, DownlinkOnlyUserReceivesBroadcastsButCannotRequest) {
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient user_a(nullptr, SonicClient::Params{});  // no SMS (user A/B)
  EXPECT_FALSE(user_a.has_uplink());

  const std::string url = w.corpus.pages()[4].url;
  server.push_pages({url}, 0.0);
  const auto broadcasts = server.advance(100000.0);
  ASSERT_EQ(broadcasts.size(), 1u);
  for (const auto& frame : broadcasts[0].bundle.frames) user_a.on_frame(frame);
  user_a.flush(10.0);
  EXPECT_TRUE(user_a.open(url, 11.0).has_value());
  EXPECT_EQ(user_a.request("anything.pk/", 12.0), SonicClient::TapResult::kNoUplink);
}

TEST(ServerClient, TapOnLinkNavigatesOrRequests) {
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient::Params cp;
  cp.phone_number = "+923001111111";
  cp.lat = 31.52;
  cp.lon = 74.35;
  cp.device_width = 240;  // same as transmitted width: 1:1 coordinates
  SonicClient client(&w.gateway, cp);

  // Deliver the landing page of site 0.
  const std::string url = w.corpus.pages()[0].url;
  server.push_pages({url}, 0.0);
  for (const auto& b : server.advance(100000.0)) {
    for (const auto& frame : b.bundle.frames) client.on_frame(frame);
  }
  client.flush(10.0);
  const ReceivedPage* page = client.cache().get(url, 11.0);
  ASSERT_NE(page, nullptr);
  ASSERT_FALSE(page->metadata.click_map.empty());
  const auto& region = page->metadata.click_map.front();

  // Tap in the middle of the first link: target is not cached, so the
  // client must fall back to an SMS request.
  const auto result = client.tap(url, region.x + region.w / 2, region.y + region.h / 2, 12.0);
  EXPECT_EQ(result, SonicClient::TapResult::kRequestedViaSms);
  // Tap on empty space does nothing.
  EXPECT_EQ(client.tap(url, 1, 1, 13.0), SonicClient::TapResult::kNoLink);
}

TEST(ServerClient, ServerRenderCacheAvoidsRerendering) {
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  const std::string url = w.corpus.pages()[8].url;
  server.push_pages({url}, 0.0);
  server.push_pages({url}, 60.0);  // same hour: cached render
  EXPECT_EQ(server.renders(), 1u);
  EXPECT_EQ(server.render_cache_hits(), 1u);
}

TEST(ServerClient, LossyDeliveryStillYieldsReadablePage) {
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient client(nullptr, SonicClient::Params{});
  const std::string url = w.corpus.pages()[12].url;
  server.push_pages({url}, 0.0);
  const auto broadcasts = server.advance(1e9);
  ASSERT_EQ(broadcasts.size(), 1u);
  Rng rng(21);
  std::size_t delivered = 0;
  for (const auto& frame : broadcasts[0].bundle.frames) {
    if (rng.bernoulli(0.10)) continue;  // 10% frame loss
    client.on_frame(frame);
    ++delivered;
  }
  ASSERT_LT(delivered, broadcasts[0].bundle.frames.size());
  const auto cached = client.flush(10.0);
  ASSERT_EQ(cached.size(), 1u);
  const ReceivedPage* page = client.cache().get(url, 11.0);
  ASSERT_NE(page, nullptr);
  EXPECT_GT(page->coverage, 0.75);
  EXPECT_NEAR(page->frame_loss_rate(), 0.10, 0.07);
}

// ------------------------------------------------- Scheduler: preemption ---

TEST(Scheduler, UserRequestPreemptsCarouselAtFrameBoundary) {
  BroadcastScheduler sched({8000.0, 1});  // 1000 B/s = 10 frames/s
  sched.enqueue("carousel:page", 1000, 0.0, 0, /*preemptible=*/true);
  sched.advance(0.25);  // 250 B sent: frame 3 is on the air
  sched.enqueue("urgent", 300, 0.25, 1);
  EXPECT_EQ(sched.preemptions(), 1u);
  const auto done = sched.advance(10.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].url, "urgent");
  EXPECT_EQ(done[1].url, "carousel:page");
  // The in-flight frame (bytes 200..300) still went out; the carousel
  // resumed with exactly its 7 unsent frames — nothing re-transmitted.
  EXPECT_EQ(done[1].bytes, 700u);
  EXPECT_NEAR(done[0].completed_at_s, 0.55, 0.01);
  EXPECT_NEAR(done[1].completed_at_s, 1.25, 0.01);
}

TEST(Scheduler, EqualPriorityDoesNotPreemptCarousel) {
  BroadcastScheduler sched({8000.0, 1});
  sched.enqueue("carousel:page", 1000, 0.0, 0, /*preemptible=*/true);
  sched.advance(0.25);
  sched.enqueue("refresh", 300, 0.25, 0);  // same lane: waits its turn
  EXPECT_EQ(sched.preemptions(), 0u);
  const auto done = sched.advance(10.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].url, "carousel:page");
  EXPECT_EQ(done[1].url, "refresh");
}

// --------------------------------------------------------------- Carousel ---

std::size_t count_repair_frames(const PageBundle& bundle) {
  std::size_t repairs = 0;
  for (const auto& frame : bundle.frames) {
    if (frame[8] == kFrameTypeRepair) ++repairs;
  }
  return repairs;
}

TEST(Carousel, PopularityCatalogAndPersistentRepairStream) {
  World w;
  w.server_params.carousel_enabled = true;
  w.server_params.carousel.max_pages = 2;
  w.server_params.carousel.repair_overhead = 0.25;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  const std::string hot = w.corpus.pages()[0].url;
  const std::string warm = w.corpus.pages()[1].url;
  const std::string cold = w.corpus.pages()[2].url;

  auto make_client = [&](const std::string& phone) {
    SonicClient::Params cp;
    cp.phone_number = phone;
    cp.lat = 31.52;
    cp.lon = 74.35;
    return SonicClient(&w.gateway, cp);
  };
  auto a = make_client("+923001111100");
  auto b = make_client("+923001111101");
  a.request(hot, 0.0);
  b.request(hot, 0.0);
  a.request(warm, 1.0);
  // `cold` gets no hits at all and must stay out of the catalog.
  server.poll_sms(10.0);

  // First advance: the user broadcasts drain and the first carousel cycle
  // is enqueued (its airtime starts at the next advance).
  server.advance(10000.0);
  ASSERT_NE(server.carousel(), nullptr);
  const auto catalog = server.carousel()->catalog();
  ASSERT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog[0].first, hot);
  EXPECT_EQ(catalog[0].second, 2u);
  EXPECT_EQ(catalog[1].first, warm);
  for (const auto& [url, hits] : catalog) EXPECT_NE(url, cold);

  // Cycle 1 completes; each page carries its 25 % repair tail.
  const auto cycle1 = server.advance(30000.0);
  ASSERT_EQ(cycle1.size(), 2u);
  EXPECT_EQ(server.carousel()->cycles_completed(), 1u);
  std::map<std::string, PageBundle> first;
  for (const auto& done : cycle1) first[done.bundle.metadata.url] = done.bundle;
  ASSERT_TRUE(first.count(hot) == 1 && first.count(warm) == 1);
  const std::size_t repairs1 = count_repair_frames(first[hot]);
  const std::size_t sources1 = first[hot].frames.size() - repairs1;
  EXPECT_EQ(repairs1, static_cast<std::size_t>(std::ceil(sources1 * 0.25)));

  // Cycle 2: same catalog, but the repair stream continues where cycle 1
  // stopped — fresh equations, not a replay.
  server.advance(30001.0);  // enqueue cycle 2
  const auto cycle2 = server.advance(60000.0);
  ASSERT_EQ(cycle2.size(), 2u);
  EXPECT_EQ(server.carousel()->cycles_completed(), 2u);
  std::map<std::string, PageBundle> second;
  for (const auto& done : cycle2) second[done.bundle.metadata.url] = done.bundle;
  const std::size_t repairs2 = count_repair_frames(second[hot]);
  // Cycle 2's repair tail continues the stream where cycle 1 stopped (the
  // wire seq of its first repair frame is cycle 1's count), so receivers
  // accumulate fresh equations instead of a replay.
  const auto parsed =
      parse_frame(*(second[hot].frames.end() - static_cast<long>(repairs2)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first.type, kFrameTypeRepair);
  EXPECT_EQ(parsed->first.seq, repairs1);
}

// An MDS page has only 255 - k distinct repair symbols (evaluation point
// k + seq mod (255 - k)). At overhead 1.0 a page with k > 127 would need
// more, so its cycle's tail stops at 255 - k instead of airing duplicates.
TEST(Carousel, RepairTailCapsAtDistinctSymbols) {
  const web::PkCorpus corpus;
  BroadcastPipeline::Params pp;
  pp.layout = web::LayoutParams{150, 200, 10};  // narrow and short: ~150 frames
  BroadcastPipeline pipeline(&corpus, pp);
  const std::string url = corpus.pages()[0].url;
  const std::size_t k = pipeline.prepare({url}, 0.0).front().bundle->frames.size();
  ASSERT_GT(k, 127u);
  ASSERT_LE(k, fec::FountainParams::mds_max_k);

  Carousel carousel(pipeline, pipeline.metrics(), Carousel::Params{1, 1.0});
  carousel.record_hit(url);
  const auto cycle = carousel.drive(0.0);
  ASSERT_EQ(cycle.size(), 1u);
  std::vector<std::size_t> points;
  for (const auto& frame : cycle[0]->frames) {
    const auto parsed = parse_frame(frame);
    ASSERT_TRUE(parsed.has_value());
    if (parsed->first.type != kFrameTypeRepair) continue;
    points.push_back(k + parsed->first.seq % (255 - k));
  }
  EXPECT_EQ(cycle[0]->frames.size(), k + points.size());
  EXPECT_EQ(points.size(), 255 - k) << "k=" << k;
  std::sort(points.begin(), points.end());
  EXPECT_TRUE(std::adjacent_find(points.begin(), points.end()) == points.end());
  // The next cycle's tail resumes the stream where this one stopped.
  carousel.on_broadcast_complete(1.0);
  const auto next = carousel.drive(2.0);
  ASSERT_EQ(next.size(), 1u);
  ASSERT_GT(next[0]->frames.size(), k);
  const auto first_repair = parse_frame(next[0]->frames[k]);
  ASSERT_TRUE(first_repair.has_value());
  EXPECT_EQ(first_repair->first.type, kFrameTypeRepair);
  EXPECT_EQ(first_repair->first.seq, 255 - k);
}

TEST(Carousel, UserRequestCutsInMidCycle) {
  World w;
  w.server_params.carousel_enabled = true;
  w.server_params.carousel.max_pages = 1;
  w.server_params.rate_bps = 1000.0;  // 125 B/s: a page stays on the air for minutes
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient::Params cp;
  cp.phone_number = "+923001112222";
  cp.lat = 31.52;
  cp.lon = 74.35;
  SonicClient client(&w.gateway, cp);

  const std::string popular = w.corpus.pages()[0].url;
  const std::string wanted = w.corpus.pages()[5].url;
  client.request(popular, 0.0);
  server.poll_sms(5.0);
  server.advance(100000.0);  // user broadcast done; carousel cycle enqueued
  ASSERT_EQ(server.carousel()->pages_in_flight(), 1u);
  server.advance(100001.0);  // a second of cycle airtime: mid-page

  client.request(wanted, 100001.0);
  server.poll_sms(100010.0);  // SMS delivered; preempts the carousel at a frame boundary
  EXPECT_GE(server.scheduler().preemptions(), 1u);
  const auto done = server.advance(200000.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].bundle.metadata.url, wanted);  // the user page cut in
  EXPECT_EQ(done[1].bundle.metadata.url, popular);
  EXPECT_LT(done[0].completed_at_s, done[1].completed_at_s);
  EXPECT_EQ(server.carousel()->cycles_completed(), 1u);
}

// -------------------------------------------- Wire compatibility (v1/v2) ---

TEST(Framing, SeedReceiverIgnoresRepairFramesGracefully) {
  // Repair frames ahead of a full source reception must be harmless: no
  // crash, no state corruption, and the page decodes from its sources with
  // only source frames counted.
  const auto page = small_page();
  const auto bundle = make_bundle(31, "compat.pk/", page, {10, 94});
  fec::FountainEncoder encoder(31, bundle_fountain_blocks(bundle));
  PageAssembler assembler;
  const auto k = static_cast<std::uint16_t>(bundle.frames.size());
  for (std::uint16_t r = 0; r < 8; ++r) {  // repair tail interleaved up front
    assembler.push(serialize_repair_frame(31, r, k, encoder.repair_symbol(r)));
  }
  for (const auto& frame : bundle.frames) assembler.push(frame);
  EXPECT_TRUE(assembler.complete(31));
  const auto received = assembler.assemble(31, image::InterpolationMode::kLeft);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->coverage, 1.0);
  EXPECT_EQ(received->frames_received, static_cast<std::size_t>(k));  // repairs not counted
}

// A page small enough that its bundle stays in the MDS regime with room for
// k repair points (small_page() is past the MDS limit).
web::RenderResult tiny_page() {
  return web::render_html("<h1>Tiny</h1><p>a short page</p>", web::LayoutParams{96, 200, 4});
}

TEST(Framing, RepairOnlyReceptionAssemblesTheSamePage) {
  // A receiver that caught no source frame at all rebuilds the page from
  // repair frames alone, identical to a full source reception.
  for (const bool mds : {true, false}) {
    const std::uint32_t page_id = mds ? 41 : 42;
    const auto bundle =
        make_bundle(page_id, "repair-only.pk/", mds ? tiny_page() : small_page(), {10, 94});
    const auto k = static_cast<std::uint16_t>(bundle.frames.size());
    if (mds) {
      ASSERT_LE(k, 127) << "an MDS page needs k distinct repair points";
    } else {
      ASSERT_GT(k, fec::FountainParams::mds_max_k) << "the LT page must exceed the MDS limit";
    }
    SCOPED_TRACE("k=" + std::to_string(k));

    PageAssembler sources;
    for (const auto& frame : bundle.frames) sources.push(frame);
    const auto truth = sources.assemble(page_id, image::InterpolationMode::kNone);
    ASSERT_TRUE(truth.has_value());

    // MDS needs exactly k symbols; the dense LT code a few more.
    const std::size_t repairs = mds ? k : k + 16u;
    fec::FountainEncoder encoder(page_id, bundle_fountain_blocks(bundle));
    PageAssembler repaired;
    for (std::uint16_t r = 0; r < repairs; ++r) {
      ASSERT_TRUE(repaired.push(serialize_repair_frame(page_id, r, k, encoder.repair_symbol(r))));
    }
    const auto got = repaired.assemble(page_id, image::InterpolationMode::kNone);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->fountain_decoded);
    EXPECT_EQ(got->fountain_repairs, repairs);
    EXPECT_EQ(got->coverage, 1.0);
    EXPECT_EQ(got->frames_received, static_cast<std::size_t>(k));
    EXPECT_EQ(got->metadata.url, truth->metadata.url);
    EXPECT_EQ(got->metadata.width, truth->metadata.width);
    EXPECT_EQ(got->metadata.height, truth->metadata.height);
    EXPECT_EQ(got->metadata.click_map.size(), truth->metadata.click_map.size());
    EXPECT_TRUE(got->image.pixels() == truth->image.pixels());
  }
}

// ------------------------------------------------- Client: v2 + hardening ---

TEST(ServerClient, MalformedFramesAreDroppedAndCounted) {
  SonicClient client(nullptr, SonicClient::Params{});

  client.on_frame(util::Bytes(50, 0));   // short
  client.on_frame(util::Bytes(101, 0));  // oversized
  auto bad_type = serialize_frame({1, 0, 4, 1}, util::Bytes{1, 2, 3});
  bad_type[8] = 9;  // unknown type
  client.on_frame(bad_type);
  client.on_frame(serialize_frame({1, 5, 3, 1}, util::Bytes{1}));  // seq >= total
  auto bad_len = serialize_frame({1, 0, 4, 1}, util::Bytes{1, 2, 3});
  bad_len[9] = 0xff;  // payload_len runs past the frame end
  client.on_frame(bad_len);
  auto zero_total_repair = serialize_repair_frame(1, 0, 4, util::Bytes(kFountainBlockSize, 0));
  zero_total_repair[6] = 0;  // total (k) = 0
  zero_total_repair[7] = 0;
  client.on_frame(zero_total_repair);
  EXPECT_EQ(client.frames_dropped_malformed(), 6u);
  EXPECT_EQ(client.frames_received(), 0u);

  // A valid repair frame establishes k = 4 for page 1; a later repair frame
  // claiming k = 7, or a source frame claiming total 3, contradicts it and
  // is dropped, not believed.
  client.on_frame(serialize_repair_frame(1, 0, 4, util::Bytes(kFountainBlockSize, 0)));
  client.on_frame(serialize_repair_frame(1, 1, 7, util::Bytes(kFountainBlockSize, 0)));
  client.on_frame(serialize_frame({1, 0, 3, 1}, util::Bytes{1}));
  EXPECT_EQ(client.frames_dropped_malformed(), 8u);
  EXPECT_EQ(client.frames_received(), 1u);
  EXPECT_EQ(client.repair_frames_received(), 1u);
  EXPECT_EQ(client.metrics().counter_value("frames_dropped_malformed"), 8u);

  // Valid source frames still flow after all that garbage, and pin their
  // page's k just as a repair frame does.
  client.on_frame(serialize_frame({2, 0, 1, 1}, util::Bytes{42}));
  EXPECT_EQ(client.frames_received(), 2u);
  client.on_frame(serialize_repair_frame(2, 0, 5, util::Bytes(kFountainBlockSize, 0)));
  EXPECT_EQ(client.frames_dropped_malformed(), 9u);
  EXPECT_EQ(client.frames_received(), 2u);
  client.flush(0.0);  // and nothing above corrupted flushable state
}

TEST(ServerClient, ForgedRepairBlockWithNonzeroPaddingIsNotCached) {
  // At k = 1 the MDS repair symbol is the source block itself, so one
  // repair frame converges the page's decoder to whatever block it carries.
  // A block holding a well-formed metadata chunk becomes a page; the same
  // block with nonzero bytes past its payload length is malformed and must
  // not.
  PageMetadata meta;
  meta.url = "forged.pk/";
  meta.width = 8;
  meta.height = 8;
  util::ByteWriter chunk;
  chunk.u8(0);  // chunk 0 of 1
  chunk.u8(1);
  chunk.raw(serialize_metadata(meta));
  util::Bytes symbol(kFountainBlockSize, 0);
  ASSERT_LT(chunk.bytes().size() + 1, symbol.size());
  symbol[0] = static_cast<std::uint8_t>(chunk.bytes().size());  // type 0, payload_len
  std::copy(chunk.bytes().begin(), chunk.bytes().end(), symbol.begin() + 1);

  SonicClient honest(nullptr, SonicClient::Params{});
  honest.on_frame(serialize_repair_frame(5, 0, 1, symbol));
  ASSERT_EQ(honest.flush(0.0), std::vector<std::string>{"forged.pk/"});

  symbol.back() = 0x5a;  // nonzero padding
  SonicClient client(nullptr, SonicClient::Params{});
  client.on_frame(serialize_repair_frame(5, 0, 1, symbol));
  EXPECT_EQ(client.frames_received(), 1u);
  EXPECT_TRUE(client.flush(0.0).empty());
  EXPECT_EQ(client.cache().size(), 0u);
}

TEST(ServerClient, StationReportsTheBundleItAired) {
  // With a one-page render cache, X, Y, X renders X twice: each completion
  // must report the bundle that was queued, not the url's latest render.
  World w;
  w.server_params.render_cache_pages = 1;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  const std::string x = w.corpus.pages()[0].url;
  const std::string y = w.corpus.pages()[1].url;
  ASSERT_EQ(server.push_pages({x}, 0.0), 1);
  ASSERT_EQ(server.push_pages({y}, 1.0), 1);
  ASSERT_EQ(server.push_pages({x}, 2.0), 1);
  const auto done = server.advance(1e9);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].bundle.metadata.url, x);
  EXPECT_EQ(done[1].bundle.metadata.url, y);
  EXPECT_EQ(done[2].bundle.metadata.url, x);
  EXPECT_EQ(done[0].bundle.page_id, 1u);
  EXPECT_EQ(done[1].bundle.page_id, 2u);
  EXPECT_EQ(done[2].bundle.page_id, 3u);
}

TEST(ServerClient, DownlinkOnlyClientConvergesViaCarouselRepair) {
  World w;
  w.server_params.carousel_enabled = true;
  w.server_params.carousel.max_pages = 1;
  w.server_params.carousel.repair_overhead = 0.5;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient::Params cp;
  cp.phone_number = "+923001113333";
  cp.lat = 31.52;
  cp.lon = 74.35;
  SonicClient requester(&w.gateway, cp);
  const std::string url = w.corpus.pages()[3].url;
  requester.request(url, 0.0);
  server.poll_sms(5.0);

  // User B: downlink only, 35 % frame loss — beyond what interpolation can
  // paper over, but the cyclic repair stream keeps supplying fresh symbols.
  SonicClient listener(nullptr, SonicClient::Params{});
  SonicClient reference(nullptr, SonicClient::Params{});
  Rng rng(77);
  // Short rounds, all inside one render epoch, so every cycle rebroadcasts
  // the same bundle (a re-render would legitimately mint a new page).
  double now = 10.0;
  for (int round = 0; round < 6; ++round) {
    now += 300.0;
    for (const auto& done : server.advance(now)) {
      for (const auto& frame : done.bundle.frames) {
        reference.on_frame(frame);
        if (!rng.bernoulli(0.35)) listener.on_frame(frame);
      }
    }
  }
  const auto cached = listener.flush(now);
  ASSERT_EQ(cached.size(), 1u);
  EXPECT_EQ(cached[0], url);
  EXPECT_EQ(listener.pages_fountain_decoded(), 1u);

  const ReceivedPage* page = listener.cache().get(url, now);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->coverage, 1.0);  // every pixel received, none interpolated

  // Byte-identical to a lossless reception of the same broadcast.
  reference.flush(now);
  const ReceivedPage* truth = reference.cache().get(url, now);
  ASSERT_NE(truth, nullptr);
  ASSERT_EQ(page->image.width(), truth->image.width());
  ASSERT_EQ(page->image.height(), truth->image.height());
  EXPECT_TRUE(page->image.pixels() == truth->image.pixels());
}

}  // namespace
}  // namespace sonic::core
