// Parallel render→encode→frame stage for the broadcast server.
//
// The follow-up paper ("SONIC: Cost-Effective Web Access for Developing
// Countries") scales one station to a national catalog of popular pages;
// there, re-rendering the whole catalog synchronously on the SMS-polling
// thread is the bottleneck. BroadcastPipeline prepares page bundles on a
// worker pool instead, with an LRU cache keyed on (url, layout fingerprint,
// codec fingerprint) and guarded by the page's content version, so hourly
// refreshes and repeat requests skip work entirely.
//
// Determinism: page ids are assigned sequentially in request order on the
// submitting thread *before* any job is dispatched, and cache
// insertions/evictions replay in request order after the pool drains, so a
// parallel pipeline produces byte-identical bundles (and identical cache
// state) to a serial one given the same request sequence.
//
// A batch of one job (the SMS request path's usual cache miss) renders on
// the submitting thread, which would otherwise only wait for it: no thread
// handoff.
//
// A page is built without a page-sized raster. web::layout_html lays it out
// once into a draw list (the `render_s` histogram); make_bundle then paints
// it in 64-row bands (1080 x 64 x 3 B = 207 KB, cache-resident), pushes
// each band's rows straight into the row-fed column encoder and frames the
// segments (`encode_s`). The bundle is byte-identical to
// make_bundle(render_html(...)).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "image/column_codec.hpp"
#include "sonic/cache.hpp"
#include "sonic/framing.hpp"
#include "util/metrics.hpp"
#include "web/corpus.hpp"
#include "web/layout.hpp"

namespace sonic::core {

class BroadcastPipeline {
 public:
  struct Params {
    web::LayoutParams layout;                // 1080 x PH10k by default
    image::ColumnCodecParams codec{10, 94};  // §3.2: quality 10
    std::uint32_t page_expiry_s = 24 * 3600;
    std::size_t cache_pages = 256;  // LRU capacity of the render/encode cache
    int num_threads = 0;            // worker threads; 0 = serial in the caller

    // Descriptive configuration errors; empty when the params are sane.
    std::vector<std::string> validate() const;
  };

  struct Prepared {
    std::string url;
    std::shared_ptr<const PageBundle> bundle;  // null for unknown urls
    bool cache_hit = false;
  };

  // `metrics` may be shared with the owning server; when null the pipeline
  // owns a private registry (reachable via metrics()). Throws
  // std::invalid_argument when params do not validate.
  BroadcastPipeline(const web::PkCorpus* corpus, Params params, Metrics* metrics = nullptr);
  ~BroadcastPipeline();

  BroadcastPipeline(const BroadcastPipeline&) = delete;
  BroadcastPipeline& operator=(const BroadcastPipeline&) = delete;

  // Prepares every url as of now_s (render + encode + frame on the pool for
  // cache misses) and returns bundles in request order. Unknown urls yield a
  // null bundle. Safe to call from multiple threads; batches serialize.
  std::vector<Prepared> prepare(const std::vector<std::string>& urls, double now_s);

  // Single-page convenience used by the SMS request path.
  std::shared_ptr<const PageBundle> prepare_one(const std::string& url, double now_s);

  int parallelism() const { return static_cast<int>(workers_.size()); }
  Metrics& metrics() { return *metrics_; }
  const Metrics& metrics() const { return *metrics_; }
  std::size_t cache_size() const { return cache_.size(); }
  std::size_t cache_evictions() const { return cache_.evictions(); }
  const Params& params() const { return params_; }

 private:
  struct Job {
    std::size_t slot = 0;
    std::string url;
    std::string key;
    std::uint32_t page_id = 0;
    int version = 0;
    int epoch = 0;
    const web::PageRef* ref = nullptr;  // null for search pages
    std::string query;                  // search pages only
    std::shared_ptr<PageBundle> out;
  };

  // Lays one page out, then paints it band by band into its bundle.
  void render_job(Job& job);
  void run_jobs(std::vector<Job>& jobs);
  void worker_loop();
  std::string cache_key(const std::string& url) const;

  const web::PkCorpus* corpus_;
  Params params_;
  std::unique_ptr<Metrics> owned_metrics_;
  Metrics* metrics_;

  // Hot-path instrument references (resolved once; registry stays lockless
  // per observation).
  Counter* rendered_counter_;
  Counter* hits_counter_;
  Counter* misses_counter_;
  Counter* frames_counter_;
  Counter* evictions_counter_;
  Histogram* render_hist_;
  Histogram* encode_hist_;

  std::mutex prepare_mu_;  // serializes whole batches
  BundleCache cache_;
  std::uint32_t next_page_id_ = 1;

  // Worker pool.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable done_cv_;
  std::deque<Job*> queue_;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sonic::core
