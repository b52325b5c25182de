// SONIC server (§3.1): accepts SMS page requests, renders simplified
// webpages, routes them to the FM transmitter covering the requester, and
// drives the broadcast schedule (user requests + preemptive popular-page
// pushes). The "web" it fetches from is the synthetic corpus.
//
// Rendering/encoding/framing runs through a BroadcastPipeline (worker pool
// + LRU render cache); each transmitter drains its own BroadcastScheduler
// shard, so a backlog at one station no longer delays the others.
//
// poll_sms() is idempotent against the SMS network's faults: a TTL'd dedup
// table keyed on (sender, request id, url) re-ACKs retransmissions and
// duplicate deliveries with a fresh ETA instead of re-enqueueing; same-url
// requests from different users coalesce onto the in-flight broadcast; and
// when a shard's backlog exceeds a configurable bound, new requests are
// shed with "RETRY <sec>" NACKs that the client honors as scheduled
// resends.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "image/column_codec.hpp"
#include "sms/sms.hpp"
#include "sonic/carousel.hpp"
#include "sonic/framing.hpp"
#include "sonic/pipeline.hpp"
#include "sonic/scheduler.hpp"
#include "util/metrics.hpp"
#include "web/corpus.hpp"
#include "web/layout.hpp"

namespace sonic::core {

// An FM transmitter with Internet access (§3.1: "the FM radio
// infrastructure consists of multiple transmitters ... at different
// locations").
struct Transmitter {
  std::string name = "default";
  double frequency_mhz = 93.7;  // §4: unused frequency at the paper's site
  double lat = 0.0;
  double lon = 0.0;
  double range_km = 30.0;
};

struct CompletedBroadcast {
  Transmitter transmitter;
  PageBundle bundle;
  double completed_at_s = 0.0;
};

class SonicServer {
 public:
  // Uplink idempotency: a request whose last copy (same sender, id, url)
  // arrived less than kDedupTtlS ago is re-ACKed, never re-served; each
  // duplicate renews the window (sliding TTL), so the entry outlives any
  // retry schedule with gaps below the TTL.
  static constexpr double kDedupTtlS = 900.0;
  // A shed request's "RETRY <sec>": the backlog's drain time, clamped to
  // [kShedRetryFloorS, kShedRetryCapS].
  static constexpr double kShedRetryFloorS = 15.0;
  static constexpr double kShedRetryCapS = 600.0;

  struct Params {
    std::string phone_number = "+92-SONIC";
    double rate_bps = 10000.0;  // the verified sonic-10k rate, per frequency
    int num_frequencies = 1;
    image::ColumnCodecParams codec{10, 94};  // §3.2: quality 10
    web::LayoutParams layout;                // 1080 x PH10k by default
    std::uint32_t page_expiry_s = 24 * 3600;
    std::vector<Transmitter> transmitters{Transmitter{}};
    std::size_t render_cache_pages = 256;  // LRU capacity of the pipeline cache
    int render_threads = 0;                // pipeline workers; 0 = serial

    // Cyclic popular-catalog broadcast with fountain repair frames, on the
    // preemptible low-priority lane of the first transmitter's shard.
    // Off by default: a station that only answers requests behaves exactly
    // like the seed-era server.
    bool carousel_enabled = false;
    Carousel::Params carousel;

    // Overload control: when a shard's backlog exceeds shed_backlog_bytes
    // (> 0 enables shedding), new requests are NACKed "RETRY <sec>".
    double shed_backlog_bytes = 0.0;  // 0 = shedding disabled

    // Descriptive configuration errors (negative rate, zero frequencies,
    // empty transmitter list, zero cache, ...); empty when sane. The
    // constructor calls this and throws std::invalid_argument instead of
    // silently accepting nonsense.
    std::vector<std::string> validate() const;
  };

  SonicServer(const web::PkCorpus* corpus, sms::SmsGateway* gateway, Params params);

  const std::string& phone_number() const { return params_.phone_number; }

  // Polls the SMS gateway for page requests and search queries; ACKs (with
  // ETA + frequency) or NACKs each one and enqueues accepted pages for
  // broadcast on the covering transmitter's shard. Search queries
  // ("SONIC ASK ...") produce a results page broadcast under the url
  // "search:<query>". Idempotent: duplicates within kDedupTtlS are
  // re-ACKed with a fresh ETA and never enqueue a second broadcast;
  // requests beyond the shard's shed bound are NACKed "RETRY <sec>".
  // Registry counters: requests_received / served / deduped / coalesced /
  // shed / rejected / malformed.
  void poll_sms(double now_s);

  // Preemptively pushes pages (e.g. the popular-news morning push, §3.1) on
  // the first transmitter's shard; the whole batch renders in parallel on
  // the pipeline. Unknown URLs are skipped; returns how many were enqueued.
  int push_pages(const std::vector<std::string>& urls, double now_s, int priority = 0);

  // Same, targeted at one transmitter's shard (unknown name: returns 0).
  int push_pages_to(const std::string& transmitter, const std::vector<std::string>& urls,
                    double now_s, int priority = 0);

  // Advances every shard's broadcast schedule; returns the page bundles
  // whose transmission completed since the last call (sorted by completion
  // time), ready for the modem.
  std::vector<CompletedBroadcast> advance(double now_s);

  // The first transmitter's shard — the whole schedule when only one
  // transmitter is configured.
  const BroadcastScheduler& scheduler() const { return shards_.front(); }
  // Per-transmitter shard, or null for an unknown name.
  const BroadcastScheduler* scheduler_for(const std::string& transmitter) const;

  // Aggregates across all shards.
  double total_backlog_bytes() const;
  std::size_t total_queue_length() const;

  std::size_t render_cache_hits() const { return metrics_->counter_value("render_cache_hits"); }
  std::size_t renders() const { return metrics_->counter_value("pages_rendered"); }

  Metrics& metrics() { return *metrics_; }
  const Metrics& metrics() const { return *metrics_; }
  const BroadcastPipeline& pipeline() const { return pipeline_; }
  // Null when Params::carousel_enabled is false.
  const Carousel* carousel() const { return carousel_.get(); }

  // Finds the transmitter covering a location (§3.1: the request carries
  // the user's location so the proper transmitter can be informed).
  const Transmitter* route(double lat, double lon) const;

  // Requests currently deduplicated (live TTL window); exposed for tests.
  std::size_t dedup_entries() const { return dedup_.size(); }

 private:
  // Outcome of a request's first processing, replayed for duplicates.
  struct DedupEntry {
    std::string url;
    double last_seen_s = 0.0;  // renewed on every duplicate (sliding TTL)
    double expected_complete_at_s = 0.0;  // refreshed to actual on completion
    double frequency_mhz = 0.0;
    bool accepted = false;
    std::string reason;  // when !accepted
  };

  std::size_t shard_of(const Transmitter& tx) const;
  int push_to_shard(std::size_t shard, const std::vector<std::string>& urls, double now_s,
                    int priority);
  void purge_dedup(double now_s);
  void answer(const std::string& to, const sms::RequestAck& ack, double now_s);

  const web::PkCorpus* corpus_;
  sms::SmsGateway* gateway_;
  Params params_;
  std::unique_ptr<Metrics> metrics_;  // stable address for the pipeline
  BroadcastPipeline pipeline_;
  std::unique_ptr<Carousel> carousel_;      // null unless carousel_enabled
  std::vector<BroadcastScheduler> shards_;  // parallel to params_.transmitters
  // Uplink idempotency: "<sender>\x1f<id>\x1f<url>" -> first outcome.
  std::map<std::string, DedupEntry> dedup_;
  // User-requested broadcasts on the air: "<shard>\x1f<url>" -> expected
  // completion, so same-url requests coalesce instead of re-enqueueing.
  std::map<std::string, double> inflight_;
};

}  // namespace sonic::core
