#include "sonic/client.hpp"

#include <algorithm>
#include <cmath>

#include "sonic/validated.hpp"

namespace sonic::core {

std::vector<std::string> SonicClient::Params::validate() const {
  std::vector<std::string> errors;
  if (server_number.empty()) errors.push_back("server_number must not be empty");
  if (device_width <= 0) {
    errors.push_back("device_width must be positive (got " + std::to_string(device_width) + ")");
  }
  if (cache_pages == 0) errors.push_back("cache_pages must be nonzero (a cache of 0 pages can never hold a broadcast)");
  if (!(uplink.ack_timeout_s > 0.0)) {
    errors.push_back("uplink.ack_timeout_s must be positive (got " +
                     std::to_string(uplink.ack_timeout_s) + ")");
  }
  if (uplink.max_attempts < 1) {
    errors.push_back("uplink.max_attempts must be >= 1 (got " +
                     std::to_string(uplink.max_attempts) + ")");
  }
  if (uplink.backoff_factor < 1.0) {
    errors.push_back("uplink.backoff_factor must be >= 1 (backoff must not shrink)");
  }
  if (!(uplink.backoff_cap_s > 0.0)) errors.push_back("uplink.backoff_cap_s must be positive");
  if (uplink.jitter_frac < 0.0 || uplink.jitter_frac >= 1.0) {
    errors.push_back("uplink.jitter_frac must be in [0, 1)");
  }
  if (!modem::profiles::get(downlink_profile)) {
    errors.push_back("downlink_profile '" + downlink_profile +
                     "' is not a registered OFDM profile");
  }
  return errors;
}

SonicClient::SonicClient(sms::SmsGateway* gateway, Params params)
    : gateway_(gateway),
      params_(validated(std::move(params), "SonicClient::Params")),
      metrics_(std::make_unique<Metrics>()),
      frames_received_(&metrics_->counter("frames_received")),
      frames_dropped_malformed_(&metrics_->counter("frames_dropped_malformed")),
      repair_frames_received_(&metrics_->counter("repair_frames_received")),
      cache_(params_.cache_pages),
      uplink_rng_(params_.uplink.seed) {}

void SonicClient::on_frame(std::span<const std::uint8_t> frame) {
  const auto header = assembler_.push(frame);
  if (!header) {
    frames_dropped_malformed_->add(1);
    return;
  }
  frames_received_->add(1);
  if (header->type == kFrameTypeRepair) repair_frames_received_->add(1);
}

void SonicClient::on_burst(const modem::RxBurst& burst) {
  for (const auto& frame : burst.frames) {
    if (frame.has_value()) on_frame(*frame);
  }
}

modem::StreamReceiver& SonicClient::stream_rx() {
  if (!stream_rx_) {
    // validate() established the profile exists.
    const auto profile = modem::profiles::get(params_.downlink_profile);
    downlink_modem_ = std::make_unique<modem::OfdmModem>(*profile);
    modem::StreamReceiverParams rx;
    rx.max_buffer_samples = params_.downlink_buffer_samples;
    rx.metrics = metrics_.get();
    stream_rx_ = std::make_unique<modem::StreamReceiver>(*downlink_modem_, rx);
  }
  return *stream_rx_;
}

std::size_t SonicClient::on_audio(std::span<const float> chunk) {
  const auto bursts = stream_rx().push(chunk);
  for (const auto& b : bursts) on_burst(b);
  return bursts.size();
}

std::size_t SonicClient::end_audio() {
  const auto bursts = stream_rx().flush();
  for (const auto& b : bursts) on_burst(b);
  stream_rx_->reset();
  return bursts.size();
}

std::vector<std::string> SonicClient::flush(double now_s) {
  std::vector<std::string> cached;
  for (std::uint32_t page_id : assembler_.known_pages()) {
    auto page = assembler_.assemble(page_id, image::InterpolationMode::kLeft);
    assembler_.drop(page_id);
    if (!page) continue;
    if (page->fountain_decoded) {
      metrics_->counter("pages_fountain_decoded").add(1);
      metrics_->histogram("fountain_repairs_used")
          .observe(static_cast<double>(page->fountain_repairs));
      metrics_->histogram("fountain_reception_overhead")
          .observe(static_cast<double>(page->fountain_symbols) /
                       static_cast<double>(page->frames_expected) -
                   1.0);
    }
    cached.push_back(page->metadata.url);
    cache_.put(std::move(*page), now_s);
  }
  return cached;
}

std::optional<web::RenderResult> SonicClient::open(const std::string& url, double now_s) {
  const ReceivedPage* page = cache_.get(url, now_s);
  if (!page) return std::nullopt;
  web::RenderResult full;
  full.image = page->image;
  full.click_map = page->metadata.click_map;
  full.full_height = page->metadata.height;
  return web::scale_for_device(full, params_.device_width);
}

double SonicClient::jittered(double wait_s) {
  const double f = params_.uplink.jitter_frac;
  if (f <= 0.0) return wait_s;
  return wait_s * (1.0 + f * (2.0 * uplink_rng_.uniform() - 1.0));
}

void SonicClient::send_attempt(PendingUplink& p, double now_s) {
  gateway_->send({params_.phone_number, params_.server_number, p.body, now_s, 0}, now_s);
  ++p.attempts;
  p.state = UplinkState::kAwaitingAck;
  const double wait =
      std::min(params_.uplink.backoff_cap_s,
               params_.uplink.ack_timeout_s *
                   std::pow(params_.uplink.backoff_factor, static_cast<double>(p.attempts - 1)));
  p.deadline_s = now_s + jittered(wait);
}

SonicClient::TapResult SonicClient::start_uplink_request(const std::string& url, std::string body,
                                                         double now_s) {
  // A request for a URL already live on the uplink rides the existing state
  // machine instead of opening a competing one.
  for (const auto& [id, p] : uplink_pending_) {
    if (p.url == url) {
      metrics_->counter("uplink_coalesced").add(1);
      return TapResult::kRequestedViaSms;
    }
  }
  const std::uint32_t id = next_request_id_++;
  PendingUplink p;
  p.id = id;
  p.url = url;
  p.body = std::move(body);
  p.first_sent_s = now_s;
  metrics_->counter("uplink_requests").add(1);
  send_attempt(p, now_s);
  uplink_pending_.emplace(id, std::move(p));
  return TapResult::kRequestedViaSms;
}

SonicClient::TapResult SonicClient::request(const std::string& url, double now_s) {
  if (cache_.get(url, now_s) != nullptr) return TapResult::kOpenedCached;
  if (!has_uplink()) return TapResult::kNoUplink;
  const std::uint32_t id = next_request_id_;  // consumed by start_uplink_request
  sms::PageRequest req{url, params_.lat, params_.lon, id};
  return start_uplink_request(url, sms::encode_request(req), now_s);
}

SonicClient::TapResult SonicClient::ask(const std::string& query, double now_s) {
  const std::string url = "search:" + query;
  if (cache_.get(url, now_s) != nullptr) return TapResult::kOpenedCached;
  if (!has_uplink()) return TapResult::kNoUplink;
  const std::uint32_t id = next_request_id_;
  sms::QueryRequest req{query, params_.lat, params_.lon, id};
  return start_uplink_request(url, sms::encode_query(req), now_s);
}

void SonicClient::tick(double now_s) {
  for (auto it = uplink_pending_.begin(); it != uplink_pending_.end();) {
    PendingUplink& p = it->second;
    if (now_s < p.deadline_s) {
      ++it;
      continue;
    }
    if (p.attempts >= params_.uplink.max_attempts) {
      metrics_->counter("uplink_gave_up").add(1);
      metrics_->histogram("uplink_attempts").observe(static_cast<double>(p.attempts));
      uplink_done_[p.id] = UplinkState::kGaveUp;
      it = uplink_pending_.erase(it);
      continue;
    }
    metrics_->counter(p.state == UplinkState::kBackoff ? "uplink_server_retries"
                                                       : "uplink_retries")
        .add(1);
    send_attempt(p, now_s);
    ++it;
  }
}

std::optional<UplinkState> SonicClient::uplink_state(std::uint32_t id) const {
  if (const auto it = uplink_pending_.find(id); it != uplink_pending_.end()) {
    return it->second.state;
  }
  if (const auto it = uplink_done_.find(id); it != uplink_done_.end()) return it->second;
  return std::nullopt;
}

SonicClient::TapResult SonicClient::tap(const std::string& current_url, int device_x, int device_y,
                                        double now_s) {
  const ReceivedPage* page = cache_.get(current_url, now_s);
  if (!page) return TapResult::kNoLink;
  // Map device coordinates back to the transmitted resolution (§3.2: click
  // map coordinates scale with the image).
  const double factor = static_cast<double>(page->metadata.width) / params_.device_width;
  const int px = static_cast<int>(device_x * factor);
  const int py = static_cast<int>(device_y * factor);
  const std::string href = web::hit_test(page->metadata.click_map, px, py);
  if (href.empty()) return TapResult::kNoLink;
  return request(href, now_s);
}

std::vector<sms::RequestAck> SonicClient::poll_acks(double now_s) {
  std::vector<sms::RequestAck> acks;
  if (!has_uplink()) return acks;
  for (const sms::SmsMessage& msg : gateway_->deliver_due(params_.phone_number, now_s)) {
    const auto ack = sms::parse_ack(msg.body);
    if (!ack) continue;
    // Match the response to a live request: by echoed id, or by URL for a
    // v1 (id-less) server.
    auto it = uplink_pending_.end();
    if (ack->id != 0) {
      it = uplink_pending_.find(ack->id);
    } else {
      for (auto cand = uplink_pending_.begin(); cand != uplink_pending_.end(); ++cand) {
        if (cand->second.url == ack->url) {
          it = cand;
          break;
        }
      }
    }
    if (it == uplink_pending_.end()) {
      // Duplicate delivery, server re-ACK of a settled request, or an ACK
      // for a request that already gave up.
      metrics_->counter("uplink_stale_acks").add(1);
      continue;
    }
    PendingUplink& p = it->second;
    if (ack->accepted) {
      metrics_->counter("uplink_acked").add(1);
      metrics_->histogram("uplink_ack_latency_s").observe(now_s - p.first_sent_s);
      metrics_->histogram("uplink_attempts").observe(static_cast<double>(p.attempts));
      uplink_done_[p.id] = UplinkState::kAccepted;
      acks.push_back(*ack);
      uplink_pending_.erase(it);
    } else if (ack->retry_after_s >= 0.0) {
      // Overload shed: the server asked us to come back later. Honor it —
      // schedule the resend instead of hammering — unless the attempt
      // budget is already spent.
      if (p.attempts >= params_.uplink.max_attempts) {
        metrics_->counter("uplink_gave_up").add(1);
        metrics_->histogram("uplink_attempts").observe(static_cast<double>(p.attempts));
        uplink_done_[p.id] = UplinkState::kGaveUp;
        uplink_pending_.erase(it);
      } else {
        p.state = UplinkState::kBackoff;
        p.deadline_s = now_s + jittered(ack->retry_after_s);
      }
    } else {
      metrics_->counter("uplink_rejected").add(1);
      uplink_done_[p.id] = UplinkState::kRejected;
      acks.push_back(*ack);
      uplink_pending_.erase(it);
    }
  }
  tick(now_s);
  return acks;
}

}  // namespace sonic::core
