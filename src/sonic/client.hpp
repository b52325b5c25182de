// SONIC client (§3.1): the user-space application on the phone. Receives
// frames from the FM downlink, reassembles pages into a cache with
// server-set expiry, exposes the catalog, renders pages scaled to the
// device, and navigates hyperlinks through the click map — instantly when
// the target is cached, via an SMS request when an uplink is available.
//
// The downlink path feeds every frame, repair frames (wire format v2)
// included, into one PageAssembler, which rebuilds lost source frames byte
// for byte once a page's fountain decoder converges (flush() prefers that
// over interpolation, which fills any pixel still lost from its left
// neighbour, §3.2); the client only counts and caches. Malformed frames
// — wrong size, unknown type, seq past total, payload length past the
// frame end, a total contradicting the page's — are dropped and counted,
// never interpreted.
//
// The uplink path is a per-request retry state machine: every request gets
// a wire-format id, an ACK-await deadline, and capped exponential backoff
// with jitter. Silent SMS loss therefore costs a timeout, not the page;
// a server "RETRY <sec>" shed is honored as a scheduled resend; requests
// that exhaust max_attempts land in a terminal give-up state surfaced via
// the client Metrics registry.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "modem/ofdm.hpp"
#include "modem/stream_receiver.hpp"
#include "sms/sms.hpp"
#include "sonic/cache.hpp"
#include "sonic/framing.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace sonic::core {

// Retry/backoff knobs for the SMS uplink state machine. Attempt k waits
// min(backoff_cap_s, ack_timeout_s * backoff_factor^(k-1)) for its ACK,
// jittered by ±jitter_frac, before the next resend; after max_attempts
// unanswered sends the request gives up.
struct UplinkPolicy {
  double ack_timeout_s = 30.0;   // first ACK-await window
  int max_attempts = 6;          // total sends (1 original + retries)
  double backoff_factor = 2.0;
  double backoff_cap_s = 240.0;
  double jitter_frac = 0.1;      // uniform ± fraction on every wait
  std::uint64_t seed = 0x534d5355ull;  // jitter stream ("SMSU")
};

// Lifecycle of one uplink request. kAwaitingAck and kBackoff are live
// (kBackoff = resend scheduled after a server RETRY shed); the rest are
// terminal.
enum class UplinkState { kAwaitingAck, kBackoff, kAccepted, kRejected, kGaveUp };

class SonicClient {
 public:
  struct Params {
    std::string phone_number;          // empty = downlink-only user (A/B in Fig. 3)
    std::string server_number = "+92-SONIC";
    double lat = 0.0;
    double lon = 0.0;
    int device_width = 360;            // Xiaomi Redmi Go class screen
    std::size_t cache_pages = 64;
    // Uplink retry/backoff state machine (ignored for downlink-only users).
    UplinkPolicy uplink;
    // Streaming downlink (on_audio): the OFDM profile the tuner audio was
    // modulated with, and the receive-buffer cap handed to StreamReceiver —
    // 0 means 2x the profile's min_decode_samples(), and an explicit cap
    // must be at least that. The receiver demodulates each symbol as it
    // arrives, so bursts of any length decode in full even at that minimum;
    // the cap only bounds an endless preamble plateau.
    std::string downlink_profile = "sonic-10k";
    std::size_t downlink_buffer_samples = 0;

    // Descriptive configuration errors; empty when sane. The constructor
    // calls this and throws std::invalid_argument on nonsense (zero-width
    // device, empty server number, cache that can hold no pages).
    std::vector<std::string> validate() const;
  };

  // `gateway` may be null for downlink-only users.
  SonicClient(sms::SmsGateway* gateway, Params params);

  bool has_uplink() const { return gateway_ != nullptr && !params_.phone_number.empty(); }

  // ---- downlink -----------------------------------------------------------

  // Feed one received frame; lost frames simply never arrive. The modem's
  // per-frame FEC/CRC catches channel corruption, but a hostile or buggy
  // station can still emit well-CRC'd garbage — anything that fails frame
  // validation is dropped (and counted), never interpreted.
  void on_frame(std::span<const std::uint8_t> frame);

  // Feed a whole modem burst (nullopt slots = frames lost to FEC/CRC).
  void on_burst(const modem::RxBurst& burst);

  // Feed raw tuner audio in arbitrary-sized chunks: the streaming receiver
  // (profile params_.downlink_profile, created on first use, recording into
  // this client's Metrics registry) completes bursts as enough audio arrives
  // and routes their frames through on_burst(). Returns the number of
  // bursts this chunk completed.
  std::size_t on_audio(std::span<const float> chunk);

  // End of the tuner stream: resolves any burst still pending (its missing
  // tail decodes as erasures) and rewinds, so the next on_audio() starts a
  // fresh stream. Call flush(now_s) afterwards to cache the pages.
  std::size_t end_audio();

  // Moves every fully- or partially-received page into the cache (called
  // when a broadcast window ends). Returns the URLs cached.
  std::vector<std::string> flush(double now_s);

  // ---- browsing -----------------------------------------------------------

  std::vector<CatalogEntry> catalog(double now_s) const { return cache_.catalog(now_s); }

  // Page scaled for this device (§3.2 scaling factor), or nullopt if not
  // cached / expired.
  std::optional<web::RenderResult> open(const std::string& url, double now_s);

  enum class TapResult {
    kNoLink,          // nothing clickable at those coordinates
    kOpenedCached,    // target was in the cache: instant load (§3.1)
    kRequestedViaSms, // uplink request sent; watch for the ACK
    kNoUplink,        // user has no SMS service (users A/B)
  };

  // Tap at device coordinates within `current_url`'s page.
  TapResult tap(const std::string& current_url, int device_x, int device_y, double now_s);

  // Explicit page request (catalog search, address bar).
  TapResult request(const std::string& url, double now_s);

  // Search-engine / chatbot query (§3.1). The results page is broadcast
  // under "search:<query>" and lands in the cache like any page.
  TapResult ask(const std::string& query, double now_s);

  // ---- uplink state machine ----------------------------------------------

  // Drives timeouts: resends requests whose ACK-await deadline passed
  // (capped exponential backoff with jitter) and retires requests that
  // exhausted max_attempts into the kGaveUp terminal state. poll_acks()
  // calls this too, so a client that polls regularly needs no extra driver.
  void tick(double now_s);

  // Delivered server responses that *settled* a request: accepted ACKs and
  // terminal NACKs. Flow-control traffic is consumed internally — duplicate
  // and stale ACKs are dropped (counted), "RETRY <sec>" sheds schedule a
  // resend, delivery reports are counted. Calls tick(now_s).
  std::vector<sms::RequestAck> poll_acks(double now_s);

  // Live (kAwaitingAck/kBackoff) uplink requests.
  std::size_t uplink_pending() const { return uplink_pending_.size(); }
  // State of a request id issued by this client, live or terminal.
  std::optional<UplinkState> uplink_state(std::uint32_t id) const;
  // The id of the most recently issued request (0 when none yet).
  std::uint32_t last_uplink_id() const { return next_request_id_ - 1; }

  const PageCache& cache() const { return cache_; }
  std::size_t frames_received() const { return frames_received_->value(); }
  // Frames rejected by validation (short/oversized frames, unknown types,
  // seq >= total, payload length past the frame end, frames of either type
  // whose total or k contradicts their page's).
  std::size_t frames_dropped_malformed() const { return frames_dropped_malformed_->value(); }
  std::size_t repair_frames_received() const { return repair_frames_received_->value(); }
  // Pages flush() reconstructed losslessly via fountain convergence.
  std::size_t pages_fountain_decoded() const {
    return metrics_->counter_value("pages_fountain_decoded");
  }

  // Client-side registry. Downlink: frames_received /
  // frames_dropped_malformed / repair_frames_received counters, fountain
  // convergence histograms (fountain_repairs_used,
  // fountain_reception_overhead), pages_fountain_decoded. Uplink: uplink_requests, uplink_retries,
  // uplink_server_retries (RETRY sheds honored), uplink_acked,
  // uplink_rejected, uplink_gave_up, uplink_stale_acks, uplink_coalesced
  // counters; uplink_ack_latency_s / uplink_attempts histograms.
  Metrics& metrics() { return *metrics_; }
  const Metrics& metrics() const { return *metrics_; }

 private:
  // One live uplink request: the same body (same id) is resent verbatim on
  // every attempt, so the server's dedup table can recognize it.
  struct PendingUplink {
    std::uint32_t id = 0;
    std::string url;
    std::string body;
    int attempts = 0;
    UplinkState state = UplinkState::kAwaitingAck;
    double deadline_s = 0.0;    // ACK-await timeout or scheduled resend time
    double first_sent_s = 0.0;
  };

  TapResult start_uplink_request(const std::string& url, std::string body, double now_s);
  void send_attempt(PendingUplink& p, double now_s);
  double jittered(double wait_s);

  // The streaming downlink receiver, created by the first on_audio() call.
  modem::StreamReceiver& stream_rx();

  sms::SmsGateway* gateway_;
  Params params_;
  std::unique_ptr<Metrics> metrics_;  // stable address; makes the client move-only
  Counter* frames_received_;
  Counter* frames_dropped_malformed_;
  Counter* repair_frames_received_;
  std::unique_ptr<modem::OfdmModem> downlink_modem_;
  std::unique_ptr<modem::StreamReceiver> stream_rx_;
  PageAssembler assembler_;
  PageCache cache_;
  // Uplink state machine: live requests by id, terminal outcomes kept for
  // uplink_state() queries and stale-ACK classification.
  std::map<std::uint32_t, PendingUplink> uplink_pending_;
  std::map<std::uint32_t, UplinkState> uplink_done_;
  std::uint32_t next_request_id_ = 1;
  util::Rng uplink_rng_{0};  // reseeded from params in the constructor
};

}  // namespace sonic::core
