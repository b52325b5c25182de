#include "sms/sms.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sonic::sms {
namespace {

// Whole-string numeric parse: rejects the trailing-garbage prefixes that
// std::stod would silently accept (the parse_ack mis-parse bug).
bool parse_full_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) return false;
    *out = v;
    return true;
  } catch (...) {
    return false;
  }
}

bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

// A leading "<id> " token, when the remainder parses via `core`.
std::optional<std::uint32_t> take_id_token(const std::string& rest, std::string* remainder) {
  const auto sp = rest.find(' ');
  if (sp == std::string::npos || sp == 0) return std::nullopt;
  const std::string token = rest.substr(0, sp);
  if (!all_digits(token) || token.size() > 10) return std::nullopt;
  try {
    const unsigned long long v = std::stoull(token);
    if (v == 0 || v > 0xffffffffull) return std::nullopt;
    *remainder = rest.substr(sp + 1);
    return static_cast<std::uint32_t>(v);
  } catch (...) {
    return std::nullopt;
  }
}

std::string coords_suffix(double lat, double lon) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), " @%.4f,%.4f", lat, lon);
  return buf;
}

// "<url> @<lat>,<lon>" — the URL is delimited by the *last* " @", so
// internal spaces and '@'s survive.
bool parse_locatable(const std::string& rest, std::string* url, double* lat, double* lon) {
  const auto at = rest.rfind(" @");
  if (at == std::string::npos) return false;
  *url = rest.substr(0, at);
  if (url->empty()) return false;
  const std::string coords = rest.substr(at + 2);
  const auto comma = coords.find(',');
  if (comma == std::string::npos) return false;
  return parse_full_double(coords.substr(0, comma), lat) &&
         parse_full_double(coords.substr(comma + 1), lon);
}

}  // namespace

int sms_segment_count(const std::string& body) {
  if (body.empty()) return 1;
  if (body.size() <= 160) return 1;
  return static_cast<int>((body.size() + 152) / 153);
}

SmsGateway::SmsGateway(SmsGatewayParams params) : params_(params), rng_(params.seed) {}

double SmsGateway::draw_latency_s() {
  // Mean + positive-skew jitter, never below 0.5 s.
  const double jitter = std::fabs(rng_.normal(0.0, params_.latency_jitter_s));
  return std::max(0.5, params_.latency_mean_s + jitter - params_.latency_jitter_s / 2);
}

void SmsGateway::send(SmsMessage msg, double now_s) {
  ++messages_accepted_;
  const int segments = sms_segment_count(msg.body);
  segments_carried_ += segments;
  msg.sent_at_s = now_s;
  // Each segment travels independently: its own loss roll and its own
  // store-and-forward delay. The message reassembles only if every segment
  // arrives, at the time the last one does — so multipart bodies are
  // super-linearly fragile, as over real GSM.
  bool lost = false;
  double deliver_at_s = 0.0;
  for (int s = 0; s < segments; ++s) {
    if (rng_.bernoulli(params_.loss_rate)) {
      lost = true;
      ++segments_lost_;
    }
    deliver_at_s = std::max(deliver_at_s, now_s + draw_latency_s());
  }
  if (lost) {
    ++messages_lost_;  // silently: the sender still saw send() succeed
    return;
  }
  if (params_.reorder_rate > 0.0 && rng_.bernoulli(params_.reorder_rate)) {
    deliver_at_s += rng_.uniform(0.0, params_.reorder_delay_s);
    ++messages_reordered_;
  }
  msg.deliver_at_s = deliver_at_s;
  if (params_.duplication_rate > 0.0 && rng_.bernoulli(params_.duplication_rate)) {
    SmsMessage copy = msg;
    copy.deliver_at_s = now_s + draw_latency_s();
    ++messages_duplicated_;
    queue_.push_back(std::move(copy));
  }
  queue_.push_back(std::move(msg));
}

std::vector<SmsMessage> SmsGateway::deliver_due(const std::string& to, double now_s) {
  std::vector<SmsMessage> out;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->to == to && it->deliver_at_s <= now_s) {
      out.push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SmsMessage& a, const SmsMessage& b) { return a.deliver_at_s < b.deliver_at_s; });
  messages_delivered_ += out.size();
  return out;
}

std::string encode_request(const PageRequest& req) {
  std::string body = "SONIC GET ";
  if (req.id != 0) body += std::to_string(req.id) + " ";
  body += req.url;
  body += coords_suffix(req.lat, req.lon);
  return body;
}

std::optional<PageRequest> parse_request(const std::string& body) {
  if (body.rfind("SONIC GET ", 0) != 0) return std::nullopt;
  const std::string rest = body.substr(10);
  PageRequest req;
  std::string remainder;
  if (const auto id = take_id_token(rest, &remainder)) {
    if (parse_locatable(remainder, &req.url, &req.lat, &req.lon)) {
      req.id = *id;
      return req;
    }
  }
  if (!parse_locatable(rest, &req.url, &req.lat, &req.lon)) return std::nullopt;
  return req;
}

std::string encode_query(const QueryRequest& req) {
  std::string body = "SONIC ASK ";
  if (req.id != 0) body += std::to_string(req.id) + " ";
  body += req.query;
  body += coords_suffix(req.lat, req.lon);
  return body;
}

std::optional<QueryRequest> parse_query(const std::string& body) {
  if (body.rfind("SONIC ASK ", 0) != 0) return std::nullopt;
  const std::string rest = body.substr(10);
  QueryRequest req;
  std::string remainder;
  if (const auto id = take_id_token(rest, &remainder)) {
    if (parse_locatable(remainder, &req.query, &req.lat, &req.lon)) {
      req.id = *id;
      return req;
    }
  }
  if (!parse_locatable(rest, &req.query, &req.lat, &req.lon)) return std::nullopt;
  return req;
}

std::string encode_ack(const RequestAck& ack) {
  std::string body;
  char num[64];
  if (ack.accepted) {
    body = "SONIC ACK ";
    if (ack.id != 0) body += std::to_string(ack.id) + " ";
    body += ack.url;
    std::snprintf(num, sizeof(num), " ETA %.0fs FM %.1f", ack.eta_s, ack.frequency_mhz);
    body += num;
  } else {
    body = "SONIC NACK ";
    if (ack.id != 0) body += std::to_string(ack.id) + " ";
    body += ack.url + " " + ack.reason;
  }
  return body;
}

namespace {

// "<url> ETA <sec>s FM <mhz>" — the suffix is located from the *right*
// (last "s FM ", then the last " ETA " before it), and both numeric tokens
// must parse in full, so URLs containing " ETA " or "s FM " round-trip.
bool parse_ack_core(const std::string& rest, RequestAck* ack) {
  const auto fm_pos = rest.rfind("s FM ");
  if (fm_pos == std::string::npos) return false;
  std::size_t search = fm_pos;
  std::size_t eta_pos = std::string::npos;
  while (true) {
    eta_pos = rest.rfind(" ETA ", search);
    if (eta_pos == std::string::npos) return false;
    if (eta_pos + 5 < fm_pos) break;  // nonempty numeric token fits between
    if (eta_pos == 0) return false;
    search = eta_pos - 1;
  }
  ack->url = rest.substr(0, eta_pos);
  if (ack->url.empty()) return false;
  return parse_full_double(rest.substr(eta_pos + 5, fm_pos - (eta_pos + 5)), &ack->eta_s) &&
         parse_full_double(rest.substr(fm_pos + 5), &ack->frequency_mhz);
}

// "<url> <reason>". "RETRY <sec>" (two tokens, always a suffix) is matched
// first; otherwise the reason is the single token after the last space, so
// URLs with internal spaces survive.
bool parse_nack_core(const std::string& rest, RequestAck* ack) {
  const auto retry = rest.rfind(" RETRY ");
  if (retry != std::string::npos && retry > 0) {
    double sec = 0.0;
    if (parse_full_double(rest.substr(retry + 7), &sec) && sec >= 0.0) {
      ack->url = rest.substr(0, retry);
      ack->reason = rest.substr(retry + 1);
      ack->retry_after_s = sec;
      return true;
    }
  }
  const auto space = rest.rfind(' ');
  ack->url = space == std::string::npos ? rest : rest.substr(0, space);
  ack->reason = space == std::string::npos ? "" : rest.substr(space + 1);
  return !ack->url.empty();
}

}  // namespace

std::optional<RequestAck> parse_ack(const std::string& body) {
  RequestAck ack;
  if (body.rfind("SONIC ACK ", 0) == 0) {
    ack.accepted = true;
    const std::string rest = body.substr(10);
    std::string remainder;
    if (const auto id = take_id_token(rest, &remainder)) {
      RequestAck v2 = ack;
      if (parse_ack_core(remainder, &v2)) {
        v2.id = *id;
        return v2;
      }
    }
    if (parse_ack_core(rest, &ack)) return ack;
    return std::nullopt;
  }
  if (body.rfind("SONIC NACK ", 0) == 0) {
    ack.accepted = false;
    const std::string rest = body.substr(11);
    std::string remainder;
    if (const auto id = take_id_token(rest, &remainder)) {
      RequestAck v2 = ack;
      if (parse_nack_core(remainder, &v2)) {
        v2.id = *id;
        return v2;
      }
    }
    if (parse_nack_core(rest, &ack)) return ack;
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace sonic::sms
