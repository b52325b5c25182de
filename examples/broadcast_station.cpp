// A SONIC-enabled radio station's day (§3.1): the server preemptively
// pushes the popular-page catalog every morning and re-broadcasts pages as
// their content changes, while user requests jump the queue. Prints an
// hourly log of the broadcast schedule — a miniature of Figure 4(c) — and
// the pipeline's metrics registry at the end (renders, cache hit rate,
// render/encode wall time, queue waits).
//
//   ./broadcast_station [hours] [rate_kbps] [num_pages] [render_threads]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sonic/server.hpp"
#include "web/corpus.hpp"

using namespace sonic;

int main(int argc, char** argv) {
  const int hours = argc > 1 ? std::atoi(argv[1]) : 24;
  const double rate_kbps = argc > 2 ? std::atof(argv[2]) : 10.0;
  const int num_pages = argc > 3 ? std::atoi(argv[3]) : 40;
  const int threads = argc > 4 ? std::atoi(argv[4]) : 0;

  web::PkCorpus corpus;
  sms::SmsGateway gateway({3.0, 1.0, 0.0, 5});

  core::SonicServer::Params sp;
  sp.rate_bps = rate_kbps * 1000.0;
  sp.layout = web::LayoutParams{360, 3000, 12};  // scaled-down renders
  sp.render_threads = threads;
  core::SonicServer server(&corpus, &gateway, sp);

  std::vector<std::string> catalog;
  for (int i = 0; i < num_pages && i < static_cast<int>(corpus.pages().size()); ++i) {
    catalog.push_back(corpus.pages()[static_cast<std::size_t>(i)].url);
  }

  std::printf("SONIC broadcast station: %d pages, %.0f kbps, %d hours, %d render threads\n",
              num_pages, rate_kbps, hours, threads);
  std::printf("%5s %10s %12s %10s %8s\n", "hour", "refreshed", "backlog(KB)", "sent", "queue");

  std::size_t total_sent = 0;
  for (int hour = 0; hour < hours; ++hour) {
    const double now = hour * 3600.0;
    // Hourly refresh: re-broadcast pages whose content changed (§3.1:
    // popular pages pushed preemptively; news churns fastest). The whole
    // changed set renders as one pipeline batch.
    std::vector<std::string> changed;
    for (const std::string& url : catalog) {
      const web::PageRef* ref = corpus.find(url);
      if (ref && corpus.changed_at(*ref, hour)) changed.push_back(url);
    }
    server.push_pages(changed, now);

    const auto done = server.advance((hour + 1) * 3600.0);
    total_sent += done.size();
    std::printf("%5d %10zu %12.0f %10zu %8zu\n", hour, changed.size(),
                server.total_backlog_bytes() / 1024.0, done.size(),
                server.total_queue_length());
  }

  std::printf("\nbroadcast complete: %zu page transmissions, final backlog %.0f KB\n", total_sent,
              server.total_backlog_bytes() / 1024.0);
  const std::size_t lookups = server.renders() + server.render_cache_hits();
  std::printf("render cache: %zu renders, %zu hits (%.0f%% hit rate)\n", server.renders(),
              server.render_cache_hits(),
              lookups ? 100.0 * static_cast<double>(server.render_cache_hits()) /
                            static_cast<double>(lookups)
                      : 0.0);
  std::printf("\npipeline metrics:\n%s", server.metrics().report().c_str());
  std::printf("(10 kbps keeps a backlog all day; rerun with 20 or 40 kbps to see it drain,\n");
  std::printf(" as in Figure 4(c) of the paper)\n");
  return 0;
}
