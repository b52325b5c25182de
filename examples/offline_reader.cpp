// Users A and B from Figure 3: no SMS uplink at all. They passively listen
// to the SONIC broadcast, build a catalog of whatever pages fly by, and
// browse them offline — hyperlinks work when the target happens to be
// cached, and simply cannot be requested otherwise.
//
//   ./offline_reader
#include <cstdio>

#include "sonic/client.hpp"
#include "sonic/server.hpp"
#include "web/corpus.hpp"

using namespace sonic;

int main() {
  web::PkCorpus corpus;
  sms::SmsGateway gateway({3.0, 1.0, 0.0, 13});

  core::SonicServer::Params sp;
  sp.layout = web::LayoutParams{360, 2000, 12};
  core::SonicServer server(&corpus, &gateway, sp);

  // A downlink-only client (no phone number, no gateway).
  core::SonicClient reader(nullptr, core::SonicClient::Params{});
  std::printf("offline reader: uplink available? %s\n\n", reader.has_uplink() ? "yes" : "no");

  // The station pushes one site's landing page plus its internal pages —
  // the "properly curated catalog" of §3.4.
  std::vector<std::string> push;
  for (int p = 0; p < 4; ++p) push.push_back(corpus.pages()[static_cast<std::size_t>(p)].url);
  server.push_pages(push, 0.0);

  double now = 0.0;
  for (const auto& broadcast : server.advance(1e9)) {
    now = broadcast.completed_at_s;
    for (const auto& frame : broadcast.bundle.frames) reader.on_frame(frame);
    std::printf("[%7.0fs] received broadcast of %-36s (%zu frames)\n", now,
                broadcast.bundle.metadata.url.c_str(), broadcast.bundle.frames.size());
  }
  reader.flush(now);

  std::printf("\ncatalog after the broadcast window:\n");
  for (const auto& entry : reader.catalog(now)) {
    std::printf("  %-40s coverage %5.1f%%\n", entry.url.c_str(), 100.0 * entry.coverage);
  }

  // Browse: open the landing page, follow its first link.
  const std::string home = corpus.pages()[0].url;
  const auto view = reader.open(home, now);
  if (!view) {
    std::fprintf(stderr, "landing page missing\n");
    return 1;
  }
  std::printf("\nopened %s (%dx%d, %zu links)\n", home.c_str(), view->image.width(),
              view->image.height(), view->click_map.size());

  int cached_hits = 0, dead_ends = 0;
  for (const auto& link : view->click_map) {
    const auto result = reader.tap(home, link.x + link.w / 2, link.y + link.h / 2, now);
    if (result == core::SonicClient::TapResult::kOpenedCached) {
      ++cached_hits;
    } else if (result == core::SonicClient::TapResult::kNoUplink) {
      ++dead_ends;
    }
  }
  std::printf("tapping every link: %d instant loads from cache, %d dead ends (no uplink)\n",
              cached_hits, dead_ends);
  std::printf("\n(downlink-only users browse whatever their area's listeners requested —\n");
  std::printf(" and leak nothing: §3.4, no privacy violation is possible for them)\n");
  return 0;
}
