#include "sonic/server.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "sonic/validated.hpp"

namespace sonic::core {
namespace {

// Rough great-circle distance; fine at city scale.
double distance_km(double lat1, double lon1, double lat2, double lon2) {
  const double kKmPerDegree = 111.32;
  const double dlat = (lat1 - lat2) * kKmPerDegree;
  const double dlon = (lon1 - lon2) * kKmPerDegree * std::cos(lat1 * 3.14159265 / 180.0);
  return std::sqrt(dlat * dlat + dlon * dlon);
}

BroadcastPipeline::Params pipeline_params(const SonicServer::Params& p) {
  BroadcastPipeline::Params pp;
  pp.layout = p.layout;
  pp.codec = p.codec;
  pp.page_expiry_s = p.page_expiry_s;
  pp.cache_pages = p.render_cache_pages;
  pp.num_threads = p.render_threads;
  return pp;
}

}  // namespace

std::vector<std::string> SonicServer::Params::validate() const {
  std::vector<std::string> errors;
  if (phone_number.empty()) errors.push_back("phone_number must not be empty");
  if (!(rate_bps > 0.0)) errors.push_back("rate_bps must be positive (got " + std::to_string(rate_bps) + ")");
  if (num_frequencies <= 0) {
    errors.push_back("num_frequencies must be >= 1 (got " + std::to_string(num_frequencies) + ")");
  }
  if (transmitters.empty()) errors.push_back("transmitters must not be empty (nothing to broadcast from)");
  std::set<std::string> names;
  for (const Transmitter& t : transmitters) {
    if (t.name.empty()) errors.push_back("every transmitter needs a name (shard key)");
    if (!names.insert(t.name).second) errors.push_back("duplicate transmitter name '" + t.name + "'");
    if (!(t.range_km > 0.0)) errors.push_back("transmitter '" + t.name + "' range_km must be positive");
  }
  if (page_expiry_s == 0) errors.push_back("page_expiry_s must be nonzero");
  if (shed_backlog_bytes < 0.0) errors.push_back("shed_backlog_bytes must be >= 0 (0 disables shedding)");
  for (const auto& e : pipeline_params(*this).validate()) errors.push_back(e);
  if (carousel_enabled) {
    for (const auto& e : carousel.validate()) errors.push_back(e);
  }
  return errors;
}

SonicServer::SonicServer(const web::PkCorpus* corpus, sms::SmsGateway* gateway, Params params)
    : corpus_(corpus),
      gateway_(gateway),
      params_(validated(std::move(params), "SonicServer::Params")),
      metrics_(std::make_unique<Metrics>()),
      pipeline_(corpus_, pipeline_params(params_), metrics_.get()) {
  if (params_.carousel_enabled) {
    carousel_ = std::make_unique<Carousel>(pipeline_, *metrics_, params_.carousel);
  }
  shards_.reserve(params_.transmitters.size());
  for (std::size_t i = 0; i < params_.transmitters.size(); ++i) {
    shards_.emplace_back(BroadcastScheduler::Params{params_.rate_bps, params_.num_frequencies});
  }
}

const Transmitter* SonicServer::route(double lat, double lon) const {
  const Transmitter* best = nullptr;
  double best_dist = 1e18;
  for (const Transmitter& t : params_.transmitters) {
    const double d = distance_km(lat, lon, t.lat, t.lon);
    if (d <= t.range_km && d < best_dist) {
      best = &t;
      best_dist = d;
    }
  }
  return best;
}

std::size_t SonicServer::shard_of(const Transmitter& tx) const {
  for (std::size_t i = 0; i < params_.transmitters.size(); ++i) {
    if (params_.transmitters[i].name == tx.name) return i;
  }
  return 0;  // unreachable for transmitters returned by route()
}

const BroadcastScheduler* SonicServer::scheduler_for(const std::string& transmitter) const {
  for (std::size_t i = 0; i < params_.transmitters.size(); ++i) {
    if (params_.transmitters[i].name == transmitter) return &shards_[i];
  }
  return nullptr;
}

double SonicServer::total_backlog_bytes() const {
  double total = 0;
  for (const BroadcastScheduler& s : shards_) total += s.backlog_bytes();
  return total;
}

std::size_t SonicServer::total_queue_length() const {
  std::size_t total = 0;
  for (const BroadcastScheduler& s : shards_) total += s.queue_length();
  return total;
}

void SonicServer::purge_dedup(double now_s) {
  for (auto it = dedup_.begin(); it != dedup_.end();) {
    if (it->second.last_seen_s + kDedupTtlS <= now_s) {
      it = dedup_.erase(it);
    } else {
      ++it;
    }
  }
}

void SonicServer::answer(const std::string& to, const sms::RequestAck& ack, double now_s) {
  metrics_->counter(ack.accepted ? "acks_sent" : "nacks_sent").add(1);
  gateway_->send({params_.phone_number, to, sms::encode_ack(ack), now_s, 0}, now_s);
}

void SonicServer::poll_sms(double now_s) {
  purge_dedup(now_s);
  for (const sms::SmsMessage& msg : gateway_->deliver_due(params_.phone_number, now_s)) {
    auto request = sms::parse_request(msg.body);
    if (!request) {
      // Search queries map onto the same flow under a synthetic URL.
      if (const auto query = sms::parse_query(msg.body)) {
        request = sms::PageRequest{"search:" + query->query, query->lat, query->lon, query->id};
      }
    }
    if (!request) {
      metrics_->counter("requests_malformed").add(1);
      continue;
    }
    metrics_->counter("requests_received").add(1);
    sms::RequestAck ack;
    ack.url = request->url;
    ack.id = request->id;  // echoed so the client can match retransmissions

    // Idempotency: a retransmission or SMSC duplicate replays the recorded
    // outcome — re-ACK with a fresh ETA, never a second broadcast.
    const std::string dedup_key =
        msg.from + '\x1f' + std::to_string(request->id) + '\x1f' + request->url;
    if (const auto seen = dedup_.find(dedup_key); seen != dedup_.end()) {
      metrics_->counter("requests_deduped").add(1);
      DedupEntry& entry = seen->second;
      // Sliding TTL: every duplicate renews the entry, so it expires only
      // once the client's retry schedule has gone quiet — a backoff cap
      // longer than the TTL cannot resurrect the request as a second
      // broadcast.
      entry.last_seen_s = now_s;
      ack.accepted = entry.accepted;
      if (entry.accepted) {
        ack.frequency_mhz = entry.frequency_mhz;
        ack.eta_s = std::max(0.0, entry.expected_complete_at_s - now_s);
      } else {
        ack.reason = entry.reason;
      }
      answer(msg.from, ack, now_s);
      continue;
    }

    const Transmitter* tx = route(request->lat, request->lon);
    if (!tx) {
      ack.accepted = false;
      ack.reason = "no-coverage";
      dedup_[dedup_key] = {request->url, now_s, 0.0, 0.0, false, ack.reason};
      metrics_->counter("requests_rejected").add(1);
      answer(msg.from, ack, now_s);
      continue;
    }
    const std::size_t shard_idx = shard_of(*tx);
    BroadcastScheduler& shard = shards_[shard_idx];

    // Overload shedding: past the backlog bound, answer "RETRY <sec>"
    // (derived from the drain time) without rendering. No dedup entry —
    // the client's resend after the wait must be served, not replayed.
    if (params_.shed_backlog_bytes > 0.0 && shard.backlog_bytes() > params_.shed_backlog_bytes) {
      const double drain_s = shard.backlog_bytes() * 8.0 / shard.aggregate_rate_bps();
      const double retry_s = std::clamp(drain_s, kShedRetryFloorS, kShedRetryCapS);
      ack.accepted = false;
      ack.reason = "RETRY " + std::to_string(static_cast<int>(std::ceil(retry_s)));
      metrics_->counter("requests_shed").add(1);
      answer(msg.from, ack, now_s);
      continue;
    }

    // Same page already on the air for this shard (another user asked
    // first): the one broadcast serves both — ACK with its ETA.
    const std::string inflight_key = std::to_string(shard_idx) + '\x1f' + request->url;
    if (const auto flying = inflight_.find(inflight_key); flying != inflight_.end()) {
      ack.accepted = true;
      ack.frequency_mhz = tx->frequency_mhz;
      ack.eta_s = std::max(0.0, flying->second - now_s);
      dedup_[dedup_key] = {request->url, now_s, flying->second, tx->frequency_mhz, true, ""};
      if (carousel_) carousel_->record_hit(request->url);
      metrics_->counter("requests_coalesced").add(1);
      answer(msg.from, ack, now_s);
      continue;
    }

    std::shared_ptr<const PageBundle> bundle = pipeline_.prepare_one(request->url, now_s);
    if (!bundle) {
      ack.accepted = false;
      ack.reason = "unknown-page";
      dedup_[dedup_key] = {request->url, now_s, 0.0, 0.0, false, ack.reason};
      metrics_->counter("requests_rejected").add(1);
      answer(msg.from, ack, now_s);
      continue;
    }
    ack.accepted = true;
    ack.frequency_mhz = tx->frequency_mhz;
    // eta evaluated at now_s so the promise matches the shard's actual
    // completion time even when the shard clock lags the SMS poll.
    ack.eta_s = shard.eta_s(bundle->total_bytes(), now_s);
    shard.enqueue(bundle->metadata.url, bundle->total_bytes(), now_s, /*priority=*/1,
                  /*preemptible=*/false, bundle);
    if (carousel_) carousel_->record_hit(bundle->metadata.url);
    inflight_[inflight_key] = now_s + ack.eta_s;
    dedup_[dedup_key] = {request->url, now_s, now_s + ack.eta_s, tx->frequency_mhz, true, ""};
    metrics_->counter("requests_served").add(1);
    answer(msg.from, ack, now_s);
  }
}

int SonicServer::push_to_shard(std::size_t shard, const std::vector<std::string>& urls,
                               double now_s, int priority) {
  int enqueued = 0;
  // One batch: cache misses render/encode in parallel on the pipeline pool.
  for (auto& prepared : pipeline_.prepare(urls, now_s)) {
    if (!prepared.bundle) continue;
    const auto& bundle = prepared.bundle;
    shards_[shard].enqueue(bundle->metadata.url, bundle->total_bytes(), now_s, priority,
                           /*preemptible=*/false, bundle);
    ++enqueued;
  }
  return enqueued;
}

int SonicServer::push_pages(const std::vector<std::string>& urls, double now_s, int priority) {
  return push_to_shard(0, urls, now_s, priority);
}

int SonicServer::push_pages_to(const std::string& transmitter,
                               const std::vector<std::string>& urls, double now_s, int priority) {
  for (std::size_t i = 0; i < params_.transmitters.size(); ++i) {
    if (params_.transmitters[i].name == transmitter) {
      return push_to_shard(i, urls, now_s, priority);
    }
  }
  return 0;
}

std::vector<CompletedBroadcast> SonicServer::advance(double now_s) {
  // Refill the carousel lane first so the next cycle competes for the
  // airtime this advance is about to drain. Carousel pages ride shard 0
  // (the first transmitter) at low priority, preemptible at frame
  // boundaries by user requests.
  if (carousel_) {
    for (const auto& bundle : carousel_->drive(now_s)) {
      shards_[0].enqueue(bundle->metadata.url, bundle->total_bytes(), now_s, /*priority=*/0,
                         /*preemptible=*/true, bundle);
    }
  }
  std::vector<CompletedBroadcast> out;
  Histogram& queue_wait = metrics_->histogram("queue_wait_s");
  Counter& pages_broadcast = metrics_->counter("pages_broadcast");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (ScheduledItem& item : shards_[i].advance(now_s)) {
      if (item.preemptible) {
        carousel_->on_broadcast_complete(item.completed_at_s);
      } else {
        // A user page left the air: close the coalescing window and pin
        // every dedup entry's ETA to the actual completion, so late
        // duplicates are re-ACKed with "already broadcast" (ETA 0) instead
        // of a stale guess.
        inflight_.erase(std::to_string(i) + '\x1f' + item.url);
        for (auto& [key, entry] : dedup_) {
          if (entry.url == item.url && entry.accepted) {
            entry.expected_complete_at_s = std::min(entry.expected_complete_at_s, item.completed_at_s);
          }
        }
      }
      CompletedBroadcast done;
      done.transmitter = params_.transmitters[i];
      done.bundle = *item.bundle;
      done.completed_at_s = item.completed_at_s;
      queue_wait.observe(item.completed_at_s - item.enqueued_at_s);
      pages_broadcast.add(1);
      out.push_back(std::move(done));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CompletedBroadcast& a, const CompletedBroadcast& b) {
                     return a.completed_at_s < b.completed_at_s;
                   });
  return out;
}

}  // namespace sonic::core
