// Full-stack integration: the paper's testbed in software. A SONIC server
// renders a page, frames it, the frames ride an OFDM burst through the FM
// transmitter + RF channel + acoustic hop, and the client reassembles what
// its modem decodes.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "fm/link.hpp"
#include "modem/ofdm.hpp"
#include "modem/profile.hpp"
#include "sonic/client.hpp"
#include "sonic/framing.hpp"
#include "sonic/server.hpp"
#include "util/rng.hpp"
#include "web/corpus.hpp"

namespace sonic {
namespace {

// Transmits a bundle over the real PHY in bursts of `frames_per_burst`.
// Returns the client-observed frame loss rate.
double transmit_over_phy(const core::PageBundle& bundle, core::SonicClient& client,
                         fm::FmLinkConfig link_cfg, int frames_per_burst = 16) {
  modem::OfdmModem ofdm(*modem::profiles::get("sonic-10k"));
  std::size_t sent = 0, received = 0;
  for (std::size_t off = 0; off < bundle.frames.size(); off += static_cast<std::size_t>(frames_per_burst)) {
    std::vector<util::Bytes> burst_frames(
        bundle.frames.begin() + static_cast<std::ptrdiff_t>(off),
        bundle.frames.begin() +
            static_cast<std::ptrdiff_t>(std::min(off + static_cast<std::size_t>(frames_per_burst),
                                                 bundle.frames.size())));
    const auto audio = ofdm.modulate(burst_frames);
    link_cfg.seed += 1;
    fm::FmLink link(link_cfg);
    const auto rx_audio = link.transmit(audio);
    const auto burst = ofdm.receive_one(rx_audio);
    sent += burst_frames.size();
    if (burst) {
      client.on_burst(*burst);
      received += burst->frames_ok();
    }
  }
  return 1.0 - static_cast<double>(received) / static_cast<double>(sent);
}

TEST(FullStack, PageOverFmCableArrivesIntact) {
  web::PkCorpus corpus;
  sms::SmsGateway gateway({2.0, 0.5, 0.0, 1});
  core::SonicServer::Params sp;
  sp.layout = web::LayoutParams{200, 600, 10};  // small page: PHY is slow
  core::SonicServer server(&corpus, &gateway, sp);
  const std::string url = corpus.pages()[0].url;
  server.push_pages({url}, 0.0);
  const auto broadcasts = server.advance(1e9);
  ASSERT_EQ(broadcasts.size(), 1u);

  core::SonicClient client(nullptr, core::SonicClient::Params{});
  fm::FmLinkConfig cfg;
  cfg.rf.rssi_db = -70.0;            // high RSSI, as in the paper's §4 setup
  cfg.acoustic.distance_m = 0.0;     // cable mode
  cfg.seed = 100;
  const double loss = transmit_over_phy(broadcasts[0].bundle, client, cfg);
  EXPECT_EQ(loss, 0.0);  // paper Fig. 4(a): no loss over cable

  client.flush(10.0);
  const core::ReceivedPage* page = client.cache().get(url, 11.0);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->coverage, 1.0);
  EXPECT_EQ(page->metadata.url, url);
}

TEST(FullStack, OneMeterAirHopLosesSomeFramesButPageRemainsUsable) {
  web::PkCorpus corpus;
  sms::SmsGateway gateway({2.0, 0.5, 0.0, 2});
  core::SonicServer::Params sp;
  sp.layout = web::LayoutParams{200, 600, 10};
  core::SonicServer server(&corpus, &gateway, sp);
  const std::string url = corpus.pages()[8].url;
  server.push_pages({url}, 0.0);
  const auto broadcasts = server.advance(1e9);
  ASSERT_EQ(broadcasts.size(), 1u);

  core::SonicClient client(nullptr, core::SonicClient::Params{});
  fm::FmLinkConfig cfg;
  cfg.enable_rf = false;  // isolate the acoustic hop (high-RSSI radio)
  cfg.acoustic.distance_m = 1.0;
  cfg.seed = 7;
  const double loss = transmit_over_phy(broadcasts[0].bundle, client, cfg);
  EXPECT_GT(loss, 0.0);   // 1 m over the air is lossy...
  EXPECT_LT(loss, 0.9);   // ...but not dead (Fig. 4(a))

  client.flush(10.0);
  const core::ReceivedPage* page = client.cache().get(url, 11.0);
  ASSERT_NE(page, nullptr);
  EXPECT_GT(page->coverage, 0.3);
  EXPECT_EQ(page->image.width(), 200);  // geometry survived via metadata redundancy
}

// ------------------------------------------------ reliable uplink e2e ------

// Client <-> server over an SMS network dropping 30 % of messages silently,
// duplicating 20 % and reordering 30 % by up to 20 s. The retry state
// machine plus the server's dedup table must deliver every request exactly
// once to the air.
TEST(FullStack, UplinkSurvivesLossDuplicationAndReordering) {
  web::PkCorpus corpus;
  sms::SmsGatewayParams gp{2.0, 1.0, 0.3, 1234};
  gp.duplication_rate = 0.2;
  gp.reorder_rate = 0.3;
  gp.reorder_delay_s = 20.0;
  sms::SmsGateway gateway(gp);

  core::SonicServer::Params sp;
  sp.layout = web::LayoutParams{240, 2000, 10};
  sp.transmitters = {{"lahore", 93.7, 31.52, 74.35, 40.0}};
  core::SonicServer server(&corpus, &gateway, sp);

  core::SonicClient::Params cp;
  cp.phone_number = "+923001119999";
  cp.lat = 31.52;
  cp.lon = 74.35;
  cp.uplink.ack_timeout_s = 30.0;
  cp.uplink.max_attempts = 10;
  cp.uplink.backoff_factor = 2.0;
  cp.uplink.backoff_cap_s = 120.0;
  cp.uplink.jitter_frac = 0.1;
  core::SonicClient client(&gateway, cp);

  std::vector<std::string> urls;
  for (int i = 0; i < 6; ++i) urls.push_back(corpus.pages()[static_cast<std::size_t>(i * 7)].url);
  for (const auto& url : urls) {
    ASSERT_EQ(client.request(url, 0.0), core::SonicClient::TapResult::kRequestedViaSms);
  }

  std::map<std::string, int> broadcasts;
  for (double t = 0.0; t <= 3000.0; t += 5.0) {
    client.poll_acks(t);  // drives tick(): timeouts, backoff, resends
    server.poll_sms(t);
    for (const auto& done : server.advance(t)) ++broadcasts[done.bundle.metadata.url];
  }

  // Every request reached the air exactly once — retries and SMSC
  // duplicates never became a second broadcast.
  for (const auto& url : urls) {
    EXPECT_EQ(broadcasts[url], 1) << url;
  }
  EXPECT_EQ(broadcasts.size(), urls.size());
  EXPECT_EQ(client.metrics().counter_value("uplink_acked"), urls.size());
  EXPECT_EQ(client.metrics().counter_value("uplink_gave_up"), 0u);
  EXPECT_EQ(client.uplink_pending(), 0u);
  // At 30 % loss across ~12+ messages the machine must actually have
  // retried (deterministic under the gateway seed).
  EXPECT_GE(client.metrics().counter_value("uplink_retries"), 1u);
  EXPECT_GE(server.metrics().counter_value("requests_deduped"), 1u);
  EXPECT_EQ(server.metrics().counter_value("requests_served"), urls.size());
}

// With loss as the only fault, a long ACK-await window, and no jitter,
// every silently lost message (request or response) costs the client
// exactly one timeout: retry count and gateway drop count must agree
// message for message.
TEST(FullStack, UplinkRetryCountMatchesGatewayDropCount) {
  web::PkCorpus corpus;
  sms::SmsGateway gateway({2.0, 0.5, 0.25, 77});

  core::SonicServer::Params sp;
  sp.layout = web::LayoutParams{240, 2000, 10};
  sp.transmitters = {{"lahore", 93.7, 31.52, 74.35, 40.0}};
  core::SonicServer server(&corpus, &gateway, sp);

  core::SonicClient::Params cp;
  cp.phone_number = "+923002228888";
  cp.lat = 31.52;
  cp.lon = 74.35;
  cp.uplink.ack_timeout_s = 30.0;  // >> worst-case round trip (~15 s)
  cp.uplink.max_attempts = 30;
  cp.uplink.backoff_factor = 1.0;  // constant spacing: one timeout per loss
  cp.uplink.jitter_frac = 0.0;
  core::SonicClient client(&gateway, cp);

  std::vector<std::string> urls;
  for (int i = 0; i < 4; ++i) urls.push_back(corpus.pages()[static_cast<std::size_t>(i * 11)].url);
  for (const auto& url : urls) client.request(url, 0.0);

  for (double t = 0.0; t <= 1500.0; t += 5.0) {
    client.poll_acks(t);
    server.poll_sms(t);
    server.advance(t);
  }

  EXPECT_EQ(client.metrics().counter_value("uplink_acked"), urls.size());
  EXPECT_EQ(client.metrics().counter_value("uplink_gave_up"), 0u);
  EXPECT_EQ(client.metrics().counter_value("uplink_retries"), gateway.messages_lost());
  EXPECT_GE(gateway.messages_lost(), 1u);  // the channel really did drop some
}

}  // namespace
}  // namespace sonic
