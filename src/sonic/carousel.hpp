// Popularity-driven broadcast carousel (the journal version's catalog
// broadcast; ROADMAP "one station serving millions of receivers").
//
// SONIC's downlink is a true broadcast, and the paper's users A and B have
// no SMS uplink: they can only consume what the station repeats. The
// carousel is the station-side loop that serves them. It keeps a
// popularity-weighted catalog (hit counts fed by SonicServer request
// handling), re-renders it on the pipeline at a fixed refresh cadence
// (hourly, matching the pipeline's render epoch), and cyclically broadcasts
// every catalog page with a configurable budget of fountain repair frames
// appended. Each cycle continues the page's rateless repair stream where
// the previous cycle stopped, so a receiver that keeps missing different
// frames accumulates *fresh* equations every cycle and converges even at
// loss rates where the interpolation-only path never would.
//
// Carousel airtime rides the BroadcastScheduler's lowest-priority lane and
// is preemptible: a user-requested page cuts in at the next frame boundary
// and the carousel resumes without re-sending what already aired.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sonic/framing.hpp"
#include "sonic/pipeline.hpp"
#include "util/metrics.hpp"

namespace sonic::core {

class Carousel {
 public:
  struct Params {
    std::size_t max_pages = 16;   // catalog capacity per cycle
    double repair_overhead = 0.3; // repair frames per page, as a fraction of its source frames

    // Descriptive configuration errors; empty when sane.
    std::vector<std::string> validate() const;
  };

  // `metrics` may be shared with the owning server. Both must outlive the
  // carousel. Throws std::invalid_argument when params do not validate.
  Carousel(BroadcastPipeline& pipeline, Metrics& metrics, Params params);

  // Popularity accounting: one broadcast-worthy request for `url`.
  void record_hit(const std::string& url);

  // The current catalog, most popular first (hits, then url for ties).
  // Recomputed from hit counts every hour of simulated time.
  std::vector<std::pair<std::string, std::size_t>> catalog() const { return catalog_; }

  // Advances refresh/cycle state. Returns the next cycle's pages, each its
  // source frames plus this cycle's repair-frame tail, when the previous
  // cycle has fully aired (empty while a cycle is in flight or the catalog
  // is empty). The owner enqueues them on the preemptible lowest-priority
  // lane and reports completions back through on_broadcast_complete().
  std::vector<std::shared_ptr<const PageBundle>> drive(double now_s);

  // Owner callback: one of drive()'s pages finished transmitting.
  void on_broadcast_complete(double completed_at_s);

  std::size_t cycles_completed() const { return cycles_completed_; }
  std::size_t pages_in_flight() const { return in_flight_; }

 private:
  void refresh_catalog(double now_s);

  BroadcastPipeline& pipeline_;
  Metrics& metrics_;
  Params params_;

  std::map<std::string, std::size_t> hits_;
  std::vector<std::pair<std::string, std::size_t>> catalog_;
  double next_refresh_s_ = 0.0;
  bool refreshed_once_ = false;

  // Per-url repair stream position, persistent across cycles (wraps at
  // kRepairSeqSpace with receiver-side dedup).
  std::map<std::string, std::uint32_t> repair_seq_;

  std::size_t in_flight_ = 0;
  double cycle_started_s_ = 0.0;
  std::size_t cycles_completed_ = 0;
};

}  // namespace sonic::core
