// SMS network simulation — SONIC's uplink (§3.1).
//
// User-C requests webpages by texting a SONIC number; the server ACKs with
// an ETA. The simulation models what matters to SONIC: store-and-forward
// delivery latency (seconds), and the 160-char GSM-7 segment economics that
// make SMS a viable but narrow uplink.
//
// The gateway is a faithful adversary, not an oracle: send() always
// succeeds (the SMSC accepted the message) — whether it is *delivered* is
// decided silently inside the network. Messages can be lost per segment,
// duplicated and reordered by tens of seconds, all seeded and deterministic
// like the acoustic channel.
// End-to-end delivery is therefore the uplink protocol's problem (client
// retry state machine + idempotent server), exactly as over real GSM.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace sonic::sms {

struct SmsMessage {
  std::string from;
  std::string to;
  std::string body;
  double sent_at_s = 0.0;
  double deliver_at_s = 0.0;  // filled by the gateway
};

// Number of 160-char segments the body consumes (the billing unit);
// multi-segment messages use 153-char segments per GSM UDH rules.
int sms_segment_count(const std::string& body);

struct SmsGatewayParams {
  double latency_mean_s = 4.0;    // typical carrier store-and-forward delay
  double latency_jitter_s = 2.0;  // lognormal-ish spread
  double loss_rate = 0.005;       // silent *per-segment* delivery failure
  std::uint64_t seed = 7;
  // ---- fault injection (all deterministic under `seed`) -------------------
  double duplication_rate = 0.0;  // a delivered message arrives twice
  double reorder_rate = 0.0;      // a message picks up an extra delay ...
  double reorder_delay_s = 30.0;  // ... uniform in [0, reorder_delay_s)
};

// Discrete-event SMS carrier: send() stamps a delivery time; deliver_due()
// drains messages for one recipient whose time has come.
class SmsGateway {
 public:
  explicit SmsGateway(SmsGatewayParams params);

  // The SMSC accepts every message. Delivery is what can fail, and it fails
  // silently — a multi-segment body is lost whenever any one of its
  // segments is lost.
  void send(SmsMessage msg, double now_s);

  std::vector<SmsMessage> deliver_due(const std::string& to, double now_s);

  std::size_t in_flight() const { return queue_.size(); }
  int segments_carried() const { return segments_carried_; }

  // ---- fault bookkeeping (ground truth for tests and benches) -------------
  std::size_t messages_accepted() const { return messages_accepted_; }
  std::size_t messages_delivered() const { return messages_delivered_; }
  std::size_t messages_lost() const { return messages_lost_; }
  std::size_t messages_duplicated() const { return messages_duplicated_; }
  std::size_t messages_reordered() const { return messages_reordered_; }
  std::size_t segments_lost() const { return segments_lost_; }

  // Scripted fault control, so tests can flip network conditions
  // mid-scenario instead of hunting for seeds.
  void set_loss_rate(double p) { params_.loss_rate = p; }
  void set_duplication_rate(double p) { params_.duplication_rate = p; }
  const SmsGatewayParams& params() const { return params_; }

 private:
  double draw_latency_s();

  SmsGatewayParams params_;
  sonic::util::Rng rng_;
  std::deque<SmsMessage> queue_;
  int segments_carried_ = 0;
  std::size_t messages_accepted_ = 0;
  std::size_t messages_delivered_ = 0;
  std::size_t messages_lost_ = 0;
  std::size_t messages_duplicated_ = 0;
  std::size_t messages_reordered_ = 0;
  std::size_t segments_lost_ = 0;
};

// ---- SONIC request/ACK wire format (§3.1) ---------------------------------
//
// v1 (seed era, id-less):
//   request: "SONIC GET <url> @<lat>,<lon>"
//   query:   "SONIC ASK <query> @<lat>,<lon>"
//   ack:     "SONIC ACK <url> ETA <sec>s FM <mhz>"
//   nack:    "SONIC NACK <url> <reason>"
// v2 (reliable uplink): identical, with a numeric request id token right
// after the verb, echoed in the ACK/NACK so retransmissions are idempotent:
//   request: "SONIC GET <id> <url> @<lat>,<lon>"
//   ack:     "SONIC ACK <id> <url> ETA <sec>s FM <mhz>"
//   nack:    "SONIC NACK <id> <url> RETRY <sec>"   (overload shedding)
// Encoders emit v1 when id == 0, v2 otherwise; parsers accept both (a v1
// body whose URL's first token is purely numeric is the one documented
// ambiguity — real URLs contain a dot or scheme, so it does not arise).

// "Each request contains the URL ... and the geographic location of the
// user" — the location routes the request to the right FM transmitter.
struct PageRequest {
  std::string url;
  double lat = 0.0;
  double lon = 0.0;
  std::uint32_t id = 0;  // v2 request id; 0 = v1 id-less body
};

std::string encode_request(const PageRequest& req);
std::optional<PageRequest> parse_request(const std::string& body);

// Search / chatbot queries (§3.1: uplink users "can ... send queries to
// search engines (e.g., Google and Duckduckgo) and AI chatbots").
struct QueryRequest {
  std::string query;
  double lat = 0.0;
  double lon = 0.0;
  std::uint32_t id = 0;  // v2 request id; 0 = v1 id-less body
};

std::string encode_query(const QueryRequest& req);
std::optional<QueryRequest> parse_query(const std::string& body);

// The server "quickly responds to the user via SMS to acknowledge the
// request, and provide an estimate on when the page will be received",
// plus the broadcast frequency the client should tune to.
struct RequestAck {
  std::string url;
  double eta_s = 0.0;
  double frequency_mhz = 0.0;
  bool accepted = true;
  std::string reason;  // set when rejected (unknown page, no coverage...)
  std::uint32_t id = 0;        // echoed v2 request id; 0 for v1
  double retry_after_s = -1.0; // >= 0 when reason is "RETRY <sec>" (shedding)
};

std::string encode_ack(const RequestAck& ack);
std::optional<RequestAck> parse_ack(const std::string& body);

}  // namespace sonic::sms
