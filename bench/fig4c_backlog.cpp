// Figure 4(c): evolution of the amount of data waiting to be broadcast as
// a function of transmission rate and catalog size.
//
// Paper setup: the 100-page corpus re-rendered hourly for 3 days; every
// page whose content changed is queued for re-broadcast (Q10/PH10k WebP
// sizes); the queue drains at 10/20/40 kbps (multi-frequency). N=200 doubles
// the catalog. Expected shape: at 10 kbps the backlog rarely reaches zero
// (broadcast-only mode); 20/40 kbps drain; daily pattern repeats.
//
// Per-page sizes are measured by actually rendering+encoding each page once;
// subsequent versions jitter the measured size (content churn changes page
// length a little, not its scale).
//
//   ./fig4c_backlog [--hours 48] [--width 1080] [--seed 9]
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "image/dct_codec.hpp"
#include "sonic/scheduler.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "web/corpus.hpp"
#include "web/layout.hpp"

using namespace sonic;

namespace {

// Measured Q10/PH10k size of every page in a corpus at epoch 0.
std::vector<std::size_t> measure_sizes(const web::PkCorpus& corpus, int width) {
  web::LayoutParams layout;
  layout.width = width;
  layout.max_height = 10000 * width / 1080;
  std::vector<std::size_t> sizes;
  const double upscale = 1080.0 / width;  // report sizes at paper scale
  for (const auto& ref : corpus.pages()) {
    const auto page = web::render_html(corpus.html(ref, 0), layout);
    const double kb = static_cast<double>(image::swebp_encode(page.image, 10).size());
    sizes.push_back(static_cast<std::size_t>(kb * upscale * upscale));
  }
  return sizes;
}

struct Series {
  const char* label;
  double rate_bps;
  bool paper_drains;  // does the paper's corresponding curve reach zero?
  const web::PkCorpus* corpus;
  const std::vector<std::size_t>* sizes;
  core::BroadcastScheduler sched;
  std::vector<double> backlog_mb;
};

}  // namespace

int main(int argc, char** argv) {
  const int hours = bench::arg_int(argc, argv, "--hours", 48);
  const int width = bench::arg_int(argc, argv, "--width", 1080);
  const std::uint64_t seed = static_cast<std::uint64_t>(bench::arg_int(argc, argv, "--seed", 9));

  std::printf("Figure 4(c): data to broadcast over time (render width %d)\n", width);
  std::printf("measuring per-page Q10/PH10k sizes...\n");

  web::PkCorpus corpus100;  // 25 sites x 4 pages
  web::PkCorpus::Params big;
  big.num_sites = 50;  // N=200
  big.seed = 2024;
  web::PkCorpus corpus200(big);

  const auto sizes100 = measure_sizes(corpus100, width);
  const auto sizes200 = measure_sizes(corpus200, width);
  double total100 = 0;
  for (auto s : sizes100) total100 += static_cast<double>(s);
  std::printf("N=100 catalog: %.1f MB total, mean %.0f KB/page\n\n", total100 / 1e6,
              total100 / 100.0 / 1024.0);

  std::vector<Series> series;
  series.push_back({"Rate:10kbps N:100", 10000.0, false, &corpus100, &sizes100,
                    core::BroadcastScheduler({10000.0, 1}), {}});
  series.push_back({"Rate:20kbps N:100", 20000.0, true, &corpus100, &sizes100,
                    core::BroadcastScheduler({10000.0, 2}), {}});
  series.push_back({"Rate:40kbps N:100", 40000.0, true, &corpus100, &sizes100,
                    core::BroadcastScheduler({10000.0, 4}), {}});
  // Doubling the catalog at 20 kbps restores the 10 kbps/N:100 regime: the
  // paper's N:200 curve also hovers above zero.
  series.push_back({"Rate:20kbps N:200", 20000.0, false, &corpus200, &sizes200,
                    core::BroadcastScheduler({10000.0, 2}), {}});

  core::Metrics metrics;
  util::Rng jitter_rng(seed);
  for (int hour = 0; hour < hours; ++hour) {
    for (auto& s : series) {
      const auto& pages = s.corpus->pages();
      for (std::size_t i = 0; i < pages.size(); ++i) {
        if (!s.corpus->changed_at(pages[i], hour)) continue;
        // Version-to-version size jitter around the measured base.
        const int ver = s.corpus->version(pages[i], hour);
        util::Rng rng(seed ^ (i * 0x9e3779b97f4a7c15ull) ^ (static_cast<std::uint64_t>(ver) << 20));
        const double factor = std::exp(rng.normal(0.0, 0.10));
        const auto bytes = static_cast<std::size_t>(static_cast<double>((*s.sizes)[i]) * factor);
        s.sched.enqueue(pages[i].url, bytes, hour * 3600.0);
        metrics.counter(std::string(s.label) + " pages").add();
        metrics.counter(std::string(s.label) + " bytes").add(bytes);
      }
      for (const auto& item : s.sched.advance((hour + 1) * 3600.0)) {
        metrics.histogram(std::string(s.label) + " queue_wait_s")
            .observe(item.completed_at_s - item.enqueued_at_s);
      }
      s.backlog_mb.push_back(s.sched.backlog_bytes() / 1e6);
    }
  }

  std::printf("%5s", "hour");
  for (const auto& s : series) std::printf(" %18s", s.label);
  std::printf("\n");
  for (int hour = 0; hour < hours; ++hour) {
    std::printf("%5d", hour);
    for (const auto& s : series) std::printf(" %15.2f MB", s.backlog_mb[static_cast<std::size_t>(hour)]);
    std::printf("\n");
  }

  std::printf("\nchecks against the paper:\n");
  for (const auto& s : series) {
    int zero_hours = 0;
    double peak = 0;
    for (double b : s.backlog_mb) {
      zero_hours += b < 0.01;
      peak = std::max(peak, b);
    }
    const bool drains = zero_hours > hours / 4;
    std::printf("  %-18s peak %6.2f MB, drained in %2d/%d hours  [paper: %s — %s]\n", s.label,
                peak, zero_hours, hours, s.paper_drains ? "drains" : "rarely reaches zero",
                drains == s.paper_drains ? "ok" : "MISMATCH");
  }
  std::printf("  the amount of data does not grow indefinitely: SONIC is scalable (§4)\n");
  std::printf("\nscheduler metrics (per series):\n%s", metrics.report().c_str());
  return 0;
}
