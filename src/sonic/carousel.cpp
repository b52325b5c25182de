#include "sonic/carousel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fec/fountain.hpp"

namespace sonic::core {
namespace {

// Catalog recomputation cadence: hourly, the pipeline's render epoch.
constexpr double kRefreshIntervalS = 3600.0;

Carousel::Params validated(Carousel::Params params) {
  const auto errors = params.validate();
  if (!errors.empty()) {
    std::string msg = "invalid Carousel::Params:";
    for (const auto& e : errors) msg += "\n  - " + e;
    throw std::invalid_argument(msg);
  }
  return params;
}

}  // namespace

std::vector<std::string> Carousel::Params::validate() const {
  std::vector<std::string> errors;
  if (max_pages == 0) errors.push_back("max_pages must be nonzero (an empty carousel broadcasts nothing)");
  if (!(repair_overhead >= 0.0 && repair_overhead <= 4.0)) {
    errors.push_back("repair_overhead must be in [0, 4] (got " + std::to_string(repair_overhead) + ")");
  }
  return errors;
}

Carousel::Carousel(BroadcastPipeline* pipeline, Metrics* metrics, Params params)
    : pipeline_(pipeline), metrics_(metrics), params_(validated(std::move(params))) {
  if (pipeline_ == nullptr) throw std::invalid_argument("Carousel needs a pipeline");
}

void Carousel::record_hit(const std::string& url) { ++hits_[url]; }

void Carousel::refresh_catalog(double now_s) {
  catalog_.clear();
  for (const auto& [url, hits] : hits_) catalog_.emplace_back(url, hits);
  std::sort(catalog_.begin(), catalog_.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (catalog_.size() > params_.max_pages) catalog_.resize(params_.max_pages);
  refreshed_once_ = true;
  next_refresh_s_ = now_s + kRefreshIntervalS;
  if (metrics_ != nullptr) {
    metrics_->counter("carousel_refreshes").add(1);
    metrics_->histogram("carousel_catalog_pages").observe(static_cast<double>(catalog_.size()));
  }
}

std::vector<std::shared_ptr<const PageBundle>> Carousel::drive(double now_s) {
  if (!refreshed_once_ || now_s >= next_refresh_s_) refresh_catalog(now_s);
  if (in_flight_ > 0 || catalog_.empty()) return {};

  // Next cycle: render/encode the whole catalog as one pipeline batch
  // (cache hits within the render epoch make steady-state cycles cheap),
  // then extend each page with this cycle's slice of its repair stream.
  std::vector<std::string> urls;
  urls.reserve(catalog_.size());
  for (const auto& [url, hits] : catalog_) urls.push_back(url);

  std::vector<std::shared_ptr<const PageBundle>> out;
  for (auto& prepared : pipeline_->prepare(urls, now_s)) {
    if (!prepared.bundle) continue;  // url fell out of the corpus
    const PageBundle& src = *prepared.bundle;
    const auto k = static_cast<std::uint16_t>(src.frames.size());
    // A page has only so many distinct repair symbols (255 - k evaluation
    // points in MDS mode, the wire's seq space in LT mode); a longer tail
    // would air duplicates every receiver discards.
    const std::size_t distinct =
        k <= fec::FountainParams::mds_max_k ? 255 - std::size_t{k} : kRepairSeqSpace;
    const auto repair_frames = std::min(
        distinct,
        static_cast<std::size_t>(std::ceil(static_cast<double>(k) * params_.repair_overhead)));

    auto air = std::make_shared<PageBundle>(src);
    if (repair_frames > 0) {
      std::uint32_t& seq = repair_seq_[prepared.url];
      std::vector<std::uint32_t> seqs(repair_frames);
      for (std::uint32_t& wire_seq : seqs) {
        wire_seq = seq;
        seq = (seq + 1) % kRepairSeqSpace;
      }
      const fec::FountainEncoder encoder(src.page_id, bundle_fountain_blocks(src));
      const auto symbols = encoder.repair_symbols(seqs);
      for (std::size_t i = 0; i < repair_frames; ++i) {
        air->frames.push_back(serialize_repair_frame(
            src.page_id, static_cast<std::uint16_t>(seqs[i]), k, symbols[i]));
      }
    }
    if (metrics_ != nullptr) {
      metrics_->counter("carousel_repair_frames").add(repair_frames);
    }
    out.push_back(std::move(air));
  }
  if (out.empty()) return out;

  in_flight_ = out.size();
  cycle_started_s_ = now_s;
  if (metrics_ != nullptr) metrics_->counter("carousel_cycles_started").add(1);
  return out;
}

void Carousel::on_broadcast_complete(double completed_at_s) {
  if (in_flight_ == 0) return;
  if (--in_flight_ == 0) {
    ++cycles_completed_;
    if (metrics_ != nullptr) {
      metrics_->counter("carousel_cycles").add(1);
      metrics_->histogram("carousel_cycle_s").observe(completed_at_s - cycle_started_s_);
    }
  }
}

}  // namespace sonic::core
