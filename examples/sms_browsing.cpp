// User-C's session from Figure 3: a phone with an FM receiver on the
// downlink and a paid SMS uplink. The user requests a page by SMS, gets an
// ACK with an ETA and a frequency, receives the broadcast, then taps a
// hyperlink — served instantly when cached, via a new SMS request when not.
//
//   ./sms_browsing
#include <cstdio>

#include "sonic/client.hpp"
#include "sonic/server.hpp"
#include "web/corpus.hpp"

using namespace sonic;

int main() {
  // --- infrastructure -------------------------------------------------------
  web::PkCorpus corpus;
  sms::SmsGateway gateway({3.0, 1.0, 0.0, 77});

  core::SonicServer::Params sp;
  sp.layout = web::LayoutParams{360, 2400, 12};
  sp.rate_bps = 10000.0;  // the verified sonic-10k rate
  sp.transmitters = {{"lahore-fm", 93.7, 31.52, 74.35, 40.0}};
  core::SonicServer server(&corpus, &gateway, sp);

  core::SonicClient::Params cp;
  cp.phone_number = "+923001234567";
  cp.lat = 31.53;  // a user in Lahore
  cp.lon = 74.34;
  cp.device_width = 360;
  core::SonicClient user_c(&gateway, cp);

  double now = 0.0;
  const std::string url = corpus.pages()[0].url;

  // --- 1: request by SMS ----------------------------------------------------
  std::printf("[%6.1fs] user-C texts: %s\n", now, sms::encode_request({url, cp.lat, cp.lon}).c_str());
  user_c.request(url, now);

  now += 6.0;  // carrier store-and-forward
  server.poll_sms(now);

  now += 6.0;
  const auto acks = user_c.poll_acks(now);
  if (acks.empty() || !acks[0].accepted) {
    std::fprintf(stderr, "no ACK received\n");
    return 1;
  }
  std::printf("[%6.1fs] server ACK: tune to FM %.1f MHz, page in ~%.0f s\n", now,
              acks[0].frequency_mhz, acks[0].eta_s);

  // --- 2: broadcast ---------------------------------------------------------
  now += acks[0].eta_s + 10.0;
  const auto broadcasts = server.advance(now);
  if (broadcasts.empty()) {
    std::fprintf(stderr, "broadcast never completed\n");
    return 1;
  }
  const auto& bundle = broadcasts[0].bundle;
  std::printf("[%6.1fs] %s broadcasts %s: %zu frames (%zu bytes)\n", now,
              broadcasts[0].transmitter.name.c_str(), bundle.metadata.url.c_str(),
              bundle.frames.size(), bundle.total_bytes());

  // Frames reach user-C over the cable-connected radio: lossless (Fig 4a).
  for (const auto& frame : bundle.frames) user_c.on_frame(frame);
  user_c.flush(now);

  const auto view = user_c.open(url, now);
  std::printf("[%6.1fs] user-C opens %s: %dx%d on screen, %zu tappable links\n", now, url.c_str(),
              view->image.width(), view->image.height(), view->click_map.size());

  // --- 3: tap a link --------------------------------------------------------
  const auto& link = view->click_map.front();
  const int tap_x = link.x + link.w / 2;
  const int tap_y = link.y + link.h / 2;
  const auto result = user_c.tap(url, tap_x, tap_y, now);
  std::printf("[%6.1fs] user-C taps (%d,%d) -> %s: %s\n", now, tap_x, tap_y, link.href.c_str(),
              result == core::SonicClient::TapResult::kOpenedCached ? "already cached, instant load"
                                                                    : "not cached, requested via SMS");

  if (result == core::SonicClient::TapResult::kRequestedViaSms) {
    now += 8.0;
    server.poll_sms(now);
    now += 8.0;
    const auto acks2 = user_c.poll_acks(now);
    if (!acks2.empty() && acks2[0].accepted) {
      std::printf("[%6.1fs] server ACK for %s (ETA %.0f s)\n", now, acks2[0].url.c_str(),
                  acks2[0].eta_s);
      now += acks2[0].eta_s + 10.0;
      for (const auto& b : server.advance(now)) {
        for (const auto& frame : b.bundle.frames) user_c.on_frame(frame);
      }
      user_c.flush(now);
      const auto second = user_c.open(acks2[0].url, now);
      if (second) {
        std::printf("[%6.1fs] internal page %s delivered and opened\n", now, acks2[0].url.c_str());
      }
    }
  }

  // --- 4: the catalog -------------------------------------------------------
  std::printf("\nuser-C's catalog:\n");
  for (const auto& entry : user_c.catalog(now)) {
    std::printf("  %-40s coverage %5.1f%%  expires in %.0f h\n", entry.url.c_str(),
                100.0 * entry.coverage, (entry.expires_at_s - now) / 3600.0);
  }
  std::printf("\nSMS segments carried by the network: %d\n", gateway.segments_carried());
  return 0;
}
