// Tests for the paper's proposed extensions implemented here: unequal
// error protection (§4's "higher error protection for important parts"),
// search queries over SMS (§3.1), and the PRBS scrambler that whitens
// low-entropy payloads before OFDM mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "image/column_codec.hpp"
#include "modem/packet.hpp"
#include "sonic/client.hpp"
#include "sonic/framing.hpp"
#include "sonic/server.hpp"
#include "util/rng.hpp"
#include "web/corpus.hpp"
#include "web/html.hpp"
#include "web/layout.hpp"

namespace sonic {
namespace {

using sonic::util::Bytes;
using sonic::util::Rng;

web::RenderResult small_page() {
  return web::render_html(
      "<h1>Top Headline</h1><p>important masthead content up here</p>"
      "<p>body body body body body body body body body body body body</p>"
      "<p>more body text further down the page that matters less</p>",
      web::LayoutParams{200, 1200, 10});
}

// -------------------------------------------------------------------- UEP ---

TEST(Uep, DisabledPolicyMatchesBaseline) {
  const auto page = small_page();
  const auto base = core::make_bundle(1, "x.pk/", page, {10, 94});
  const auto off = core::make_bundle(1, "x.pk/", page, {10, 94}, 24 * 3600, core::UepPolicy{});
  EXPECT_EQ(base.frames.size(), off.frames.size());
}

TEST(Uep, AddsFramesOnlyForTopRegion) {
  const auto page = small_page();
  const auto base = core::make_bundle(1, "x.pk/", page, {10, 94});
  const auto protected_bundle = core::make_bundle(1, "x.pk/", page, {10, 94}, 24 * 3600, core::UepPolicy{true});
  EXPECT_GT(protected_bundle.frames.size(), base.frames.size());
  // On this short test page every column is a single RLE segment, so the
  // region split plus the top copies roughly triples the count; on real
  // 10k-px pages (many segments per column) the overhead is ~kUepTopFraction.
  EXPECT_LT(protected_bundle.frames.size(), base.frames.size() * 35 / 10);
}

// UEP encodes the rows above the boundary and those below it as two pages:
// the segment frames carry column_encode of the top rows, each kUepCopies
// times, then column_encode of the bottom rows as a raster of their own,
// shifted down past the boundary.
TEST(Uep, SegmentsAreTheTwoRegionsEncodedAlone) {
  const web::PkCorpus corpus;
  for (const auto& page : {small_page(), web::render_html(corpus.html(corpus.pages()[3], 0), web::LayoutParams{360, 3000, 12})}) {
    const int boundary = static_cast<int>(page.image.height() * core::kUepTopFraction);
    image::Raster bottom(page.image.width(), page.image.height() - boundary);
    std::copy(page.image.pixels().begin() + static_cast<std::ptrdiff_t>(page.image.width()) * boundary,
              page.image.pixels().end(), bottom.pixels().begin());
    const image::ColumnCodecParams codec{10, 84};  // make_bundle's cut for the 6-byte segment header
    std::vector<image::ColumnSegment> want;
    for (const auto& seg : image::column_encode(page.image.cropped_to_height(boundary), codec)) {
      want.insert(want.end(), core::kUepCopies, seg);
    }
    for (auto seg : image::column_encode(bottom, codec)) {
      seg.row0 = static_cast<std::uint16_t>(seg.row0 + boundary);
      want.push_back(seg);
    }
    std::vector<image::ColumnSegment> got;
    for (const auto& frame : core::make_bundle(1, "x.pk/", page, {10, 94}, 3600, core::UepPolicy{true}).frames) {
      const auto parsed = core::parse_frame(frame);
      ASSERT_TRUE(parsed.has_value());
      if (parsed->first.type != core::kFrameTypeSegment) continue;
      const auto seg = image::segment_parse(parsed->second);
      ASSERT_TRUE(seg.has_value());
      got.push_back(*seg);
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].col == want[i].col && got[i].row0 == want[i].row0 && got[i].rows == want[i].rows &&
                  got[i].data == want[i].data)
          << "segment " << i;
    }
  }
}

// A page built from its layout pushes each distinct row with the count of
// rows that repeat it. A UEP boundary inside such a repeat splits it: the
// top region takes the rows above the boundary, and the bottom region
// starts with the same row as a full row with none above, as the raster
// path gives it (Uep.SegmentsAreTheTwoRegionsEncodedAlone). The boundary is
// a fixed fraction of the page height, so the PH cap places it: a page cut
// to `height` rows has its boundary at int(height * kUepTopFraction).
TEST(Uep, BoundaryOnARepeatedRowMatchesTheRasterPath) {
  const web::PkCorpus corpus;
  for (const std::size_t page : {3, 58}) {
    const std::string html = corpus.html(corpus.pages()[page], 0);
    const web::Node root = web::parse_html(html);
    const web::PageLayout full = web::layout_html(root, web::LayoutParams{360, 0, 12});
    // The page height whose boundary is row `boundary`.
    auto height_for = [](int boundary) {
      int height = static_cast<int>(boundary / core::kUepTopFraction);
      while (static_cast<int>(height * core::kUepTopFraction) < boundary) ++height;
      return height;
    };
    // The longest repeat that a boundary on its first repeated row leaves
    // on the page, with a line of text to spare: its first, second and last
    // repeated rows, then the distinct row below it.
    const std::vector<int>& distinct = full.distinct_rows();
    auto gap = [&](std::size_t i) { return distinct[i + 1] - distinct[i]; };
    std::size_t longest = distinct.size();
    for (std::size_t i = 0; i + 1 < distinct.size(); ++i) {
      const bool on_page = distinct[i + 1] + 40 < std::min(height_for(distinct[i] + 1), full.height());
      if (on_page && (longest == distinct.size() || gap(i) > gap(longest))) longest = i;
    }
    ASSERT_LT(longest, distinct.size()) << "page " << page;
    ASSERT_GE(gap(longest), 4) << "page " << page;
    const int top = distinct[longest], below = distinct[longest + 1];
    for (const int boundary : {top + 1, top + 2, below - 1, below}) {
      const int height = height_for(boundary);
      ASSERT_EQ(static_cast<int>(height * core::kUepTopFraction), boundary);
      const web::LayoutParams params{360, height, 12};
      const web::PageLayout layout = web::layout_html(root, params);
      ASSERT_EQ(layout.height(), height);
      // The cap leaves the repeat as it was.
      const std::vector<int>& capped = layout.distinct_rows();
      const auto at = std::lower_bound(capped.begin(), capped.end(), top);
      ASSERT_TRUE(at != capped.end() && *at == top && at + 1 != capped.end() && *(at + 1) == below)
          << "page " << page << " boundary " << boundary;
      EXPECT_TRUE(core::make_bundle(1, "x.pk/", layout, {10, 94}, 3600, core::UepPolicy{true}).frames ==
                  core::make_bundle(1, "x.pk/", web::render_html(html, params), {10, 94}, 3600,
                                    core::UepPolicy{true}).frames)
          << "page " << page << " boundary " << boundary;
    }
  }
}

TEST(Uep, RejectsPagesTallerThanSixteenBitRows) {
  // Both UEP halves of a 70000-row page fit in u16, but shifting the bottom
  // half's row0 past the boundary would wrap.
  web::RenderResult tall;
  tall.image = image::Raster(1, 70000);
  EXPECT_THROW(core::make_bundle(1, "tall.pk/", tall, {10, 94}, 3600, core::UepPolicy{true}),
               std::invalid_argument);
  EXPECT_THROW(core::make_bundle(1, "tall.pk/", tall, {10, 94}), std::invalid_argument);
}

TEST(Uep, DuplicateFramesStillReassembleExactly) {
  const auto page = small_page();
  const auto bundle = core::make_bundle(2, "y.pk/", page, {50, 94}, 3600, core::UepPolicy{true});
  core::PageAssembler assembler;
  for (const auto& frame : bundle.frames) assembler.push(frame);
  const auto received = assembler.assemble(2, image::InterpolationMode::kLeft);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->coverage, 1.0);
  EXPECT_EQ(received->image.width(), page.image.width());
  EXPECT_EQ(received->image.height(), page.image.height());
}

TEST(Uep, TopRegionSurvivesLossBetter) {
  const auto page = small_page();
  const auto bundle = core::make_bundle(3, "z.pk/", page, {10, 94}, 3600, core::UepPolicy{true});

  double top_cov = 0, bottom_cov = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    Rng rng(100 + static_cast<std::uint64_t>(t));
    core::PageAssembler assembler;
    for (const auto& frame : bundle.frames) {
      // Drop only segment frames: this test measures pixel coverage, not
      // metadata robustness (covered elsewhere).
      const auto parsed = core::parse_frame(frame);
      ASSERT_TRUE(parsed.has_value());
      if (parsed->first.type == 1 && rng.bernoulli(0.25)) continue;
      assembler.push(frame);
    }
    const auto received = assembler.assemble(3, image::InterpolationMode::kNone);
    ASSERT_TRUE(received.has_value());
    const int w = page.image.width();
    const int top_rows = static_cast<int>(page.image.height() * core::kUepTopFraction);
    std::size_t top = 0, bottom = 0;
    for (int y = 0; y < page.image.height(); ++y) {
      for (int x = 0; x < w; ++x) {
        const bool got = received->mask[static_cast<std::size_t>(y) * w + x];
        (y < top_rows ? top : bottom) += got;
      }
    }
    top_cov += static_cast<double>(top) / (static_cast<double>(top_rows) * w);
    bottom_cov += static_cast<double>(bottom) /
                  (static_cast<double>(page.image.height() - top_rows) * w);
  }
  // 25% loss with 2x repetition -> ~6% residual in the top region vs ~25%
  // below; demand a clear separation.
  EXPECT_GT(top_cov / trials, bottom_cov / trials + 0.10);
}

// ---------------------------------------------------------- search queries ---

TEST(Search, QueryWireFormatRoundTrip) {
  sms::QueryRequest req{"cricket score lahore", 31.5, 74.3};
  const auto parsed = sms::parse_query(sms::encode_query(req));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->query, "cricket score lahore");
  EXPECT_NEAR(parsed->lat, 31.5, 1e-3);
  EXPECT_FALSE(sms::parse_query("SONIC GET url @1,2").has_value());
  EXPECT_FALSE(sms::parse_query("SONIC ASK  @1,2").has_value());
}

TEST(Search, ResultsPageRendersWithLinksIntoCorpus) {
  web::PkCorpus corpus;
  const std::string html = corpus.search_html("cricket", 0);
  const auto page = web::render_html(html, web::LayoutParams{360, 4000, 12});
  ASSERT_GE(page.click_map.size(), 6u);
  // Every result must link to a real corpus page.
  for (const auto& region : page.click_map) {
    EXPECT_NE(corpus.find(region.href), nullptr) << region.href;
  }
  // Deterministic per (query, epoch window).
  EXPECT_EQ(corpus.search_html("cricket", 0), corpus.search_html("cricket", 1));
  EXPECT_NE(corpus.search_html("cricket", 0), corpus.search_html("weather", 0));
}

TEST(Search, EndToEndAskFlow) {
  web::PkCorpus corpus;
  sms::SmsGateway gateway({2.0, 0.5, 0.0, 42});
  core::SonicServer::Params sp;
  sp.layout = web::LayoutParams{240, 2000, 10};
  sp.transmitters = {{"lahore", 93.7, 31.52, 74.35, 40.0}};
  core::SonicServer server(&corpus, &gateway, sp);

  core::SonicClient::Params cp;
  cp.phone_number = "+923001230000";
  cp.lat = 31.52;
  cp.lon = 74.35;
  core::SonicClient client(&gateway, cp);

  EXPECT_EQ(client.ask("election results", 0.0), core::SonicClient::TapResult::kRequestedViaSms);
  server.poll_sms(10.0);
  const auto acks = client.poll_acks(20.0);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].accepted);
  EXPECT_EQ(acks[0].url, "search:election results");

  const auto broadcasts = server.advance(20.0 + acks[0].eta_s + 5.0);
  ASSERT_EQ(broadcasts.size(), 1u);
  for (const auto& frame : broadcasts[0].bundle.frames) client.on_frame(frame);
  client.flush(100.0);

  const auto view = client.open("search:election results", 101.0);
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->click_map.empty());
  // Tapping a result that is not cached falls back to a page request.
  const auto& first = view->click_map.front();
  EXPECT_EQ(client.tap("search:election results", first.x + 1, first.y + 1, 102.0),
            core::SonicClient::TapResult::kRequestedViaSms);
  // Repeating the same query within the results window hits the cache.
  EXPECT_EQ(client.ask("election results", 103.0), core::SonicClient::TapResult::kOpenedCached);
}

TEST(Search, ServerCachesResultsPages) {
  web::PkCorpus corpus;
  sms::SmsGateway gateway({1.0, 0.0, 0.0, 43});
  core::SonicServer::Params sp;
  sp.layout = web::LayoutParams{240, 2000, 10};
  core::SonicServer server(&corpus, &gateway, sp);

  auto send_query = [&](const std::string& from, double now) {
    gateway.send({from, sp.phone_number, sms::encode_query({"mango prices", 0.0, 0.0}), now, 0},
                 now);
    server.poll_sms(now + 5.0);
  };
  send_query("+92300111", 0.0);
  server.advance(15000.0);  // results page leaves the air
  // A *different* user asking in the same 6-hour window reuses the cached
  // render (the same user repeating would hit the uplink dedup table and
  // never reach the pipeline at all).
  send_query("+92300222", 16000.0);
  EXPECT_EQ(server.renders(), 1u);
  EXPECT_EQ(server.render_cache_hits(), 1u);
  EXPECT_EQ(server.metrics().counter_value("requests_served"), 2u);
}

// -------------------------------------------------------------- scrambler ---

TEST(Scrambler, SequenceIsBalancedAndDeterministic) {
  const auto seq = modem::scrambler_sequence();
  int ones = 0;
  const int n = 100000;
  ASSERT_GE(seq.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ones += seq[static_cast<std::size_t>(i)];
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.02);
  // Built once: every call sees the same sequence.
  EXPECT_EQ(modem::scrambler_sequence().data(), seq.data());
}

TEST(Scrambler, WhitensZeroPayloads) {
  // An all-zero payload must produce a roughly balanced coded bitstream —
  // the property that keeps the OFDM crest factor in check.
  modem::PacketCodec codec(modem::PacketSpec{});
  const Bytes zeros(100, 0x00);
  const auto coded = codec.encode(zeros);
  int ones = 0;
  util::BitReader br(coded);
  const std::size_t nbits = codec.encoded_bits(100);
  for (std::size_t i = 0; i < nbits; ++i) ones += br.bit();
  EXPECT_GT(static_cast<double>(ones) / static_cast<double>(nbits), 0.35);
  EXPECT_LT(static_cast<double>(ones) / static_cast<double>(nbits), 0.65);
}

TEST(Scrambler, ScrambledRoundTripStillDecodes) {
  modem::PacketCodec codec(modem::PacketSpec{});
  for (const Bytes& payload : {Bytes(100, 0x00), Bytes(100, 0xff), Bytes(64, 0xaa)}) {
    const auto coded = codec.encode(payload);
    std::vector<float> llr(codec.encoded_bits(payload.size()));
    util::BitReader br(coded);
    for (auto& l : llr) l = br.bit() ? std::numeric_limits<float>::infinity() : -std::numeric_limits<float>::infinity();
    std::vector<std::uint8_t> frame(llr.size(), fec::ConvolutionalCodec::kSoftErasure);
    modem::PacketCodec::place_soft(llr, 0, frame);
    const auto decoded = codec.decode(frame, payload.size());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, payload);
  }
}

}  // namespace
}  // namespace sonic
