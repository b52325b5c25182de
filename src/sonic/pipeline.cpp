#include "sonic/pipeline.hpp"

#include <chrono>
#include <map>
#include <utility>

#include "sonic/validated.hpp"

namespace sonic::core {
namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

std::vector<std::string> BroadcastPipeline::Params::validate() const {
  std::vector<std::string> errors;
  if (layout.width <= 0) errors.push_back("layout.width must be positive");
  if (layout.max_height < 0) errors.push_back("layout.max_height must be >= 0 (0 = uncapped)");
  if (codec.quality < 1 || codec.quality > 100) errors.push_back("codec.quality must be in [1, 100]");
  if (codec.payload_budget <= 0) errors.push_back("codec.payload_budget must be positive");
  if (page_expiry_s == 0) errors.push_back("page_expiry_s must be nonzero");
  if (cache_pages == 0) errors.push_back("cache_pages must be nonzero (the LRU cannot hold 0 pages)");
  if (num_threads < 0) errors.push_back("num_threads must be >= 0 (0 = serial)");
  return errors;
}

BroadcastPipeline::BroadcastPipeline(const web::PkCorpus* corpus, Params params, Metrics* metrics)
    : corpus_(corpus),
      params_(validated(std::move(params), "BroadcastPipeline::Params")),
      owned_metrics_(metrics ? nullptr : std::make_unique<Metrics>()),
      metrics_(metrics ? metrics : owned_metrics_.get()),
      rendered_counter_(&metrics_->counter("pages_rendered")),
      hits_counter_(&metrics_->counter("render_cache_hits")),
      misses_counter_(&metrics_->counter("render_cache_misses")),
      frames_counter_(&metrics_->counter("frames_emitted")),
      evictions_counter_(&metrics_->counter("render_cache_evictions")),
      render_hist_(&metrics_->histogram("render_s")),
      encode_hist_(&metrics_->histogram("encode_s")),
      cache_(params_.cache_pages) {
  for (int i = 0; i < params_.num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

BroadcastPipeline::~BroadcastPipeline() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    stop_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::string BroadcastPipeline::cache_key(const std::string& url) const {
  return url + "|" + params_.layout.fingerprint() + "|" + params_.codec.fingerprint();
}

std::vector<BroadcastPipeline::Prepared> BroadcastPipeline::prepare(
    const std::vector<std::string>& urls, double now_s) {
  std::lock_guard<std::mutex> batch_lock(prepare_mu_);
  const int epoch = static_cast<int>(now_s / 3600.0);

  std::vector<Prepared> results(urls.size());
  std::vector<Job> jobs;
  jobs.reserve(urls.size());
  // url -> slot already being rendered in this batch, so a url requested
  // twice renders once and the second occurrence counts as a hit.
  std::map<std::string, std::size_t> in_batch;

  for (std::size_t i = 0; i < urls.size(); ++i) {
    const std::string& url = urls[i];
    results[i].url = url;

    const bool is_search = url.rfind("search:", 0) == 0;
    const web::PageRef* ref = nullptr;
    int version = 0;
    if (is_search) {
      // Search results rotate every 6 hours in the corpus model.
      version = epoch / 6;
    } else {
      ref = corpus_->find(url);
      if (!ref) continue;  // unknown page: null bundle
      version = corpus_->version(*ref, epoch);
    }
    const std::string canonical = is_search ? url : ref->url;

    if (const auto dup = in_batch.find(canonical); dup != in_batch.end()) {
      // Same url earlier in this batch: render once, share the bundle. It
      // may still be null here (the duplicate is a pending job); the fix-up
      // pass after run_jobs copies the rendered bundle over.
      results[i].url = canonical;
      results[i].cache_hit = true;
      hits_counter_->add(1);
      results[i].bundle = results[dup->second].bundle;
      continue;
    }

    const std::string key = cache_key(canonical);
    if (auto cached = cache_.get(key, version)) {
      results[i].url = canonical;
      results[i].bundle = std::move(cached);
      results[i].cache_hit = true;
      hits_counter_->add(1);
      in_batch[canonical] = i;
      continue;
    }

    misses_counter_->add(1);
    Job job;
    job.slot = i;
    job.url = canonical;
    job.key = key;
    job.page_id = next_page_id_++;  // assigned in request order: deterministic
    job.version = version;
    job.epoch = epoch;
    job.ref = ref;
    if (is_search) job.query = url.substr(7);
    jobs.push_back(std::move(job));
    results[i].url = canonical;
    in_batch[canonical] = i;
  }

  run_jobs(jobs);

  // Publish in request order so cache insertion (and thus LRU eviction)
  // order matches the serial path exactly.
  const std::size_t evictions_before = cache_.evictions();
  for (Job& job : jobs) {
    std::shared_ptr<const PageBundle> bundle = std::move(job.out);
    frames_counter_->add(bundle->frames.size());
    cache_.put(job.key, job.version, bundle);
    results[job.slot].bundle = std::move(bundle);
  }
  evictions_counter_->add(cache_.evictions() - evictions_before);

  // Resolve duplicate urls that pointed at a slot whose render finished
  // after the alias was recorded.
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].bundle || results[i].url.empty()) continue;
    const auto src = in_batch.find(results[i].url);
    if (src != in_batch.end() && src->second != i) results[i].bundle = results[src->second].bundle;
  }
  return results;
}

std::shared_ptr<const PageBundle> BroadcastPipeline::prepare_one(const std::string& url,
                                                                 double now_s) {
  auto prepared = prepare({url}, now_s);
  return prepared.empty() ? nullptr : std::move(prepared.front().bundle);
}

void BroadcastPipeline::render_job(Job& job) {
  const auto t0 = std::chrono::steady_clock::now();
  const web::PageLayout layout = web::layout_html(
      web::parse_html(job.ref ? corpus_->html(*job.ref, job.epoch) : corpus_->search_html(job.query, job.epoch)),
      params_.layout);
  const auto t1 = std::chrono::steady_clock::now();
  job.out = std::make_shared<PageBundle>(
      make_bundle(job.page_id, job.url, layout, params_.codec, params_.page_expiry_s));
  const auto t2 = std::chrono::steady_clock::now();
  render_hist_->observe(seconds_between(t0, t1));
  encode_hist_->observe(seconds_between(t1, t2));
  rendered_counter_->add(1);
}

void BroadcastPipeline::run_jobs(std::vector<Job>& jobs) {
  if (jobs.empty()) return;
  if (workers_.empty() || jobs.size() == 1) {
    for (Job& job : jobs) render_job(job);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pending_ = jobs.size();
    for (Job& job : jobs) queue_.push_back(&job);
  }
  pool_cv_.notify_all();
  std::unique_lock<std::mutex> lock(pool_mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

void BroadcastPipeline::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = queue_.front();
      queue_.pop_front();
    }
    render_job(*job);
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace sonic::core
