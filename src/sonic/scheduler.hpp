// Broadcast scheduler — the server-side queue whose backlog dynamics are
// Figure 4(c). Pages to broadcast (hourly re-renders of the popular catalog
// plus user requests) accumulate in a priority FIFO and drain at the
// transmission rate; multiple frequencies multiply the drain rate (§4:
// "20 and 40 kbps can be achieved via multi-frequency").
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sonic/framing.hpp"

namespace sonic::core {

struct ScheduledItem {
  std::string url;
  // The bundle this item airs, held until it completes so a render-cache
  // eviction cannot drop a page still waiting for airtime; null for callers
  // that only model bytes.
  std::shared_ptr<const PageBundle> bundle;
  std::size_t bytes = 0;  // bytes still to send (reduced when a preempted item resumes)
  double enqueued_at_s = 0.0;
  int priority = 0;  // higher first; user requests outrank refreshes
  // Carousel lane (only the carousel sets it): a preemptible in-flight item
  // yields to a newly enqueued higher-priority item at the next frame
  // boundary and later resumes without re-sending the frames already
  // transmitted.
  bool preemptible = false;
  double completed_at_s = 0.0;
};

class BroadcastScheduler {
 public:
  struct Params {
    double rate_bps = 10000.0;  // per frequency
    int num_frequencies = 1;
  };

  explicit BroadcastScheduler(Params params);

  void enqueue(std::string url, std::size_t bytes, double now_s, int priority = 0,
               bool preemptible = false, std::shared_ptr<const PageBundle> bundle = nullptr);

  // Advances the wall clock, draining the queue at the aggregate rate.
  // Returns items whose transmission completed in (previous now, until_s].
  std::vector<ScheduledItem> advance(double until_s);

  // Bytes still waiting (including the in-flight remainder) — the Fig. 4(c)
  // "Data to Broadcast" series.
  double backlog_bytes() const;

  // Estimated seconds until a new item of `bytes` would finish, as promised
  // in the SMS ACK (§3.1), evaluated at `now_s`: accounts for the drain
  // advance() will have performed by then — including the in-flight head
  // remainder at the full multi-frequency aggregate rate — so the promise
  // matches the completion time advance() actually reports, even when the
  // scheduler's own clock lags the caller's.
  double eta_s(std::size_t bytes, double now_s) const;

  double aggregate_rate_bps() const { return params_.rate_bps * params_.num_frequencies; }
  double now() const { return now_s_; }
  std::size_t queue_length() const { return queue_.size(); }
  // Times an in-flight preemptible item was displaced by a higher-priority
  // enqueue (each resumes later from its frame boundary).
  std::size_t preemptions() const { return preemptions_; }

 private:
  Params params_;
  double now_s_ = 0.0;
  std::deque<ScheduledItem> queue_;  // kept sorted: priority desc, then FIFO
  double head_remaining_bytes_ = 0.0;
  std::size_t preemptions_ = 0;
  // Items whose transmission completed during an enqueue's internal drain;
  // handed out by the next advance() so no completion is ever swallowed.
  std::vector<ScheduledItem> pending_done_;
};

}  // namespace sonic::core
