#include "sonic/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace sonic::core {

BroadcastScheduler::BroadcastScheduler(Params params) : params_(params) {}

void BroadcastScheduler::enqueue(std::string url, std::size_t bytes, double now_s, int priority,
                                 bool preemptible, std::shared_ptr<const PageBundle> bundle) {
  // Drain up to the enqueue time first. Anything that completes here is
  // buffered and returned by the next advance() — enqueue must not swallow
  // completions (the carousel enqueues at the top of the server's advance,
  // right before it collects them).
  auto finished = advance(std::max(now_s, now_s_));
  std::move(finished.begin(), finished.end(), std::back_inserter(pending_done_));
  ScheduledItem item;
  item.url = std::move(url);
  item.bundle = std::move(bundle);
  item.bytes = bytes;
  item.enqueued_at_s = now_s;
  item.priority = priority;
  item.preemptible = preemptible;
  if (queue_.empty()) {
    queue_.push_back(std::move(item));
    head_remaining_bytes_ = static_cast<double>(queue_.front().bytes);
    return;
  }
  // A preemptible in-flight head (the carousel lane) yields to a strictly
  // higher-priority arrival at the next kFrameSize boundary: the frame
  // being modulated still goes out, then the head re-queues with only its
  // unsent whole frames, so nothing is transmitted twice when it resumes.
  if (queue_.front().preemptible && item.priority > queue_.front().priority) {
    const auto frame = static_cast<double>(kFrameSize);
    const double sent = static_cast<double>(queue_.front().bytes) - head_remaining_bytes_;
    const double boundary = std::ceil(sent / frame - 1e-9) * frame;
    const double resume_bytes = static_cast<double>(queue_.front().bytes) - boundary;
    if (resume_bytes >= frame - 1e-9) {
      ScheduledItem resumed = std::move(queue_.front());
      queue_.pop_front();
      resumed.bytes = static_cast<std::size_t>(std::llround(resume_bytes));
      ++preemptions_;
      queue_.push_front(std::move(item));
      head_remaining_bytes_ = static_cast<double>(queue_.front().bytes);
      // Re-queue the remainder at the front of its own priority class — it
      // was in flight, so it resumes before anything queued behind it.
      auto pos = queue_.begin() + 1;
      while (pos != queue_.end() && pos->priority > resumed.priority) ++pos;
      queue_.insert(pos, std::move(resumed));
      return;
    }
  }
  // Insert after the last item with >= priority (stable priority FIFO).
  // Never preempt a non-preemptible in-flight head.
  auto pos = queue_.begin();
  ++pos;  // skip head if transmitting
  while (pos != queue_.end() && pos->priority >= item.priority) ++pos;
  queue_.insert(pos, std::move(item));
}

std::vector<ScheduledItem> BroadcastScheduler::advance(double until_s) {
  std::vector<ScheduledItem> done = std::move(pending_done_);
  pending_done_.clear();
  if (until_s <= now_s_) return done;
  double budget_bytes = (until_s - now_s_) * aggregate_rate_bps() / 8.0;
  double clock = now_s_;
  while (!queue_.empty() && budget_bytes > 0) {
    if (head_remaining_bytes_ <= 0) head_remaining_bytes_ = static_cast<double>(queue_.front().bytes);
    const double chunk = std::min(budget_bytes, head_remaining_bytes_);
    head_remaining_bytes_ -= chunk;
    budget_bytes -= chunk;
    clock += chunk * 8.0 / aggregate_rate_bps();
    if (head_remaining_bytes_ <= 1e-9) {
      ScheduledItem item = std::move(queue_.front());
      queue_.pop_front();
      item.completed_at_s = clock;
      done.push_back(std::move(item));
      head_remaining_bytes_ = queue_.empty() ? 0.0 : static_cast<double>(queue_.front().bytes);
    }
  }
  now_s_ = until_s;
  return done;
}

double BroadcastScheduler::backlog_bytes() const {
  double total = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    total += i == 0 ? head_remaining_bytes_ : static_cast<double>(queue_[i].bytes);
  }
  return total;
}

double BroadcastScheduler::eta_s(std::size_t bytes, double now_s) const {
  // advance() is work-conserving at the aggregate rate, so by now_s it will
  // have moved (now_s - now_s_) * rate bytes of the current backlog
  // (in-flight remainder included), clamped at empty.
  double backlog = backlog_bytes();
  if (now_s > now_s_) {
    backlog = std::max(0.0, backlog - (now_s - now_s_) * aggregate_rate_bps() / 8.0);
  }
  return (backlog + static_cast<double>(bytes)) * 8.0 / aggregate_rate_bps();
}

}  // namespace sonic::core
