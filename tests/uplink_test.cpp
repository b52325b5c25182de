// Reliable-uplink tests: the client retry/backoff state machine against the
// fault-injecting SMS gateway, and the server's idempotent dedup / overload
// shedding. Runs as its own executable under `ctest -L uplink`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sms/sms.hpp"
#include "sonic/client.hpp"
#include "sonic/server.hpp"
#include "web/corpus.hpp"

namespace sonic::core {
namespace {

// Deterministic world: 1 s fixed SMS latency, no faults unless a test
// scripts them, small pages so broadcasts finish in seconds.
struct World {
  web::PkCorpus corpus;
  sms::SmsGateway gateway{{1.0, 0.0, 0.0, 42}};
  SonicServer::Params server_params;
  World() {
    server_params.layout = web::LayoutParams{240, 2000, 10};
    server_params.transmitters = {{"lahore", 93.7, 31.52, 74.35, 40.0}};
  }
};

SonicClient::Params client_params(const std::string& phone) {
  SonicClient::Params cp;
  cp.phone_number = phone;
  cp.lat = 31.52;
  cp.lon = 74.35;
  cp.uplink.ack_timeout_s = 10.0;
  cp.uplink.jitter_frac = 0.0;  // deterministic deadlines
  return cp;
}

TEST(Uplink, RetryAfterSilentLossEventuallySucceeds) {
  World w;
  w.gateway.set_loss_rate(1.0);  // the first send vanishes silently
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient client(&w.gateway, client_params("+923001230001"));

  const std::string url = w.corpus.pages()[0].url;
  EXPECT_EQ(client.request(url, 0.0), SonicClient::TapResult::kRequestedViaSms);
  EXPECT_EQ(client.uplink_pending(), 1u);
  w.gateway.set_loss_rate(0.0);

  // Nothing arrives; at t=10 the ACK-await deadline fires and resends.
  server.poll_sms(5.0);
  EXPECT_EQ(server.metrics().counter_value("requests_received"), 0u);
  client.tick(10.0);
  EXPECT_EQ(client.metrics().counter_value("uplink_retries"), 1u);

  server.poll_sms(12.0);
  EXPECT_EQ(server.metrics().counter_value("requests_served"), 1u);
  const auto acks = client.poll_acks(14.0);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].accepted);
  EXPECT_EQ(acks[0].url, url);
  EXPECT_EQ(client.uplink_state(acks[0].id), UplinkState::kAccepted);
  EXPECT_EQ(client.uplink_pending(), 0u);
}

TEST(Uplink, GivesUpAfterMaxAttempts) {
  World w;
  w.gateway.set_loss_rate(1.0);  // nothing ever gets through
  SonicClient::Params cp = client_params("+923001230002");
  cp.uplink.max_attempts = 3;
  SonicClient client(&w.gateway, cp);

  client.request("khabarnama.com.pk/", 0.0);
  const std::uint32_t id = client.last_uplink_id();
  for (double t = 0.0; t <= 200.0; t += 1.0) client.tick(t);

  EXPECT_EQ(client.uplink_pending(), 0u);
  EXPECT_EQ(client.uplink_state(id), UplinkState::kGaveUp);
  EXPECT_EQ(client.metrics().counter_value("uplink_gave_up"), 1u);
  EXPECT_EQ(client.metrics().counter_value("uplink_retries"), 2u);  // 3 sends total
  EXPECT_EQ(w.gateway.messages_accepted(), 3u);
}

TEST(Uplink, BackoffGrowsExponentiallyAndCaps) {
  World w;
  w.gateway.set_loss_rate(1.0);
  SonicClient::Params cp = client_params("+923001230003");
  cp.uplink.ack_timeout_s = 10.0;
  cp.uplink.backoff_factor = 2.0;
  cp.uplink.backoff_cap_s = 40.0;
  cp.uplink.max_attempts = 4;
  SonicClient client(&w.gateway, cp);

  client.request("khabarnama.com.pk/", 0.0);
  // Waits are 10, 20, 40, min(40, 80)=40: sends at t = 0, 10, 30, 70 and the
  // terminal give-up at t = 110.
  std::vector<double> send_times{0.0};
  std::size_t seen = w.gateway.messages_accepted();
  for (double t = 0.5; t <= 120.0; t += 0.5) {
    client.tick(t);
    if (w.gateway.messages_accepted() > seen) {
      seen = w.gateway.messages_accepted();
      send_times.push_back(t);
    }
  }
  ASSERT_EQ(send_times.size(), 4u);
  EXPECT_DOUBLE_EQ(send_times[1], 10.0);
  EXPECT_DOUBLE_EQ(send_times[2], 30.0);
  EXPECT_DOUBLE_EQ(send_times[3], 70.0);
  EXPECT_EQ(client.uplink_state(client.last_uplink_id()), UplinkState::kGaveUp);
}

TEST(Uplink, JitterSpreadsRetrySchedules) {
  World w;
  w.gateway.set_loss_rate(1.0);
  SonicClient::Params cp = client_params("+923001230004");
  cp.uplink.jitter_frac = 0.5;
  cp.uplink.max_attempts = 2;
  SonicClient client(&w.gateway, cp);
  client.request("khabarnama.com.pk/", 0.0);
  // The retry must land inside (5, 15) — timeout 10 s jittered by ±50 % —
  // and, with jitter_frac > 0, almost surely not exactly at 10.
  client.tick(5.0);
  EXPECT_EQ(w.gateway.messages_accepted(), 1u);
  client.tick(15.0);
  EXPECT_EQ(w.gateway.messages_accepted(), 2u);
}

TEST(Uplink, ServerDedupsRetransmissionsWithoutSecondBroadcast) {
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  const std::string url = w.corpus.pages()[0].url;
  const std::string body = sms::encode_request({url, 31.52, 74.35, 7});

  // The same v2 body arrives twice (a retransmission or SMSC duplicate).
  w.gateway.send({"+923001230005", server.phone_number(), body, 0.0, 0}, 0.0);
  w.gateway.send({"+923001230005", server.phone_number(), body, 0.5, 0}, 0.5);
  server.poll_sms(5.0);

  EXPECT_EQ(server.metrics().counter_value("requests_received"), 2u);
  EXPECT_EQ(server.metrics().counter_value("requests_served"), 1u);
  EXPECT_EQ(server.metrics().counter_value("requests_deduped"), 1u);
  EXPECT_EQ(server.dedup_entries(), 1u);

  // Both copies were ACKed (id echoed), but only one page ever airs.
  const auto acks = w.gateway.deliver_due("+923001230005", 100.0);
  ASSERT_EQ(acks.size(), 2u);
  for (const auto& msg : acks) {
    const auto parsed = sms::parse_ack(msg.body);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->accepted);
    EXPECT_EQ(parsed->id, 7u);
  }
  const auto broadcasts = server.advance(100000.0);
  ASSERT_EQ(broadcasts.size(), 1u);
  EXPECT_EQ(broadcasts[0].bundle.metadata.url, url);
}

TEST(Uplink, DedupEntryExpiresAfterTtl) {
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  const std::string url = w.corpus.pages()[1].url;
  const std::string body = sms::encode_request({url, 31.52, 74.35, 9});

  w.gateway.send({"+923001230006", server.phone_number(), body, 0.0, 0}, 0.0);
  server.poll_sms(5.0);
  EXPECT_EQ(server.metrics().counter_value("requests_served"), 1u);
  EXPECT_EQ(server.dedup_entries(), 1u);
  server.advance(100000.0);  // broadcast completes, in-flight window closes

  // A copy polled 10 s inside the TTL is a duplicate, and renews the entry.
  const double inside = 5.0 + SonicServer::kDedupTtlS - 10.0;
  w.gateway.send({"+923001230006", server.phone_number(), body, inside - 5.0, 0}, inside - 5.0);
  server.poll_sms(inside);
  EXPECT_EQ(server.metrics().counter_value("requests_served"), 1u);
  EXPECT_EQ(server.metrics().counter_value("requests_deduped"), 1u);

  // Same body long after the renewed TTL: a genuinely new request, served
  // again.
  const double after = inside + SonicServer::kDedupTtlS + 100.0;
  w.gateway.send({"+923001230006", server.phone_number(), body, after - 5.0, 0}, after - 5.0);
  server.poll_sms(after);
  EXPECT_EQ(server.metrics().counter_value("requests_served"), 2u);
  EXPECT_EQ(server.metrics().counter_value("requests_deduped"), 1u);
  EXPECT_EQ(server.dedup_entries(), 1u);  // the expired entry was purged
}

TEST(Uplink, OverloadShedNacksRetryAndClientHonorsIt) {
  World w;
  w.server_params.shed_backlog_bytes = 1.0;  // any backlog sheds
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient client(&w.gateway, client_params("+923001230007"));

  // Fill the shard's backlog, then ask for a page while it is saturated.
  server.push_pages({w.corpus.pages()[2].url, w.corpus.pages()[3].url}, 0.0);
  ASSERT_GT(server.total_backlog_bytes(), 1.0);
  // The shed's RETRY: the backlog's drain time at the shard's 10 kbps,
  // clamped to [kShedRetryFloorS, kShedRetryCapS], in whole seconds.
  const double retry_s = std::ceil(std::clamp(server.total_backlog_bytes() * 8.0 / 10000.0,
                                              SonicServer::kShedRetryFloorS, SonicServer::kShedRetryCapS));
  const std::string url = w.corpus.pages()[4].url;
  client.request(url, 0.0);
  server.poll_sms(2.0);
  EXPECT_EQ(server.metrics().counter_value("requests_shed"), 1u);
  EXPECT_EQ(server.dedup_entries(), 0u);  // sheds are not remembered

  // The shed NACK is flow control: poll_acks consumes it silently and
  // schedules the resend for RETRY seconds later.
  EXPECT_TRUE(client.poll_acks(4.0).empty());
  EXPECT_EQ(client.uplink_state(client.last_uplink_id()), UplinkState::kBackoff);

  server.advance(100000.0);  // backlog fully drained
  client.tick(4.0 + retry_s - 1.0);  // a second early: still waiting
  EXPECT_EQ(client.metrics().counter_value("uplink_server_retries"), 0u);
  const double resend_s = 4.0 + retry_s;
  client.tick(resend_s);  // the RETRY is up: resend fires
  EXPECT_EQ(client.metrics().counter_value("uplink_server_retries"), 1u);
  server.poll_sms(resend_s + 2.0);
  EXPECT_EQ(server.metrics().counter_value("requests_served"), 1u);
  const auto acks = client.poll_acks(resend_s + 4.0);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].accepted);
  EXPECT_EQ(acks[0].url, url);
}

TEST(Uplink, SeedEraIdLessBodiesStillServeAndDedup) {
  // Acceptance criterion: a v1 client (no request id in the body) keeps
  // working against the v2 server, including idempotency.
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  const std::string url = w.corpus.pages()[0].url;
  const std::string v1_body = "SONIC GET " + url + " @31.5200,74.3500";
  ASSERT_EQ(sms::parse_request(v1_body)->id, 0u);

  w.gateway.send({"+923001230008", server.phone_number(), v1_body, 0.0, 0}, 0.0);
  w.gateway.send({"+923001230008", server.phone_number(), v1_body, 1.0, 0}, 1.0);
  server.poll_sms(5.0);
  EXPECT_EQ(server.metrics().counter_value("requests_served"), 1u);
  EXPECT_EQ(server.metrics().counter_value("requests_deduped"), 1u);

  const auto acks = w.gateway.deliver_due("+923001230008", 100.0);
  ASSERT_EQ(acks.size(), 2u);
  for (const auto& msg : acks) {
    const auto parsed = sms::parse_ack(msg.body);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->accepted);
    EXPECT_EQ(parsed->id, 0u);  // v1 reply carries no id token
    EXPECT_EQ(parsed->url, url);
  }
  EXPECT_EQ(server.advance(100000.0).size(), 1u);
}

TEST(Uplink, CrossSenderSameUrlCoalescesOntoOneBroadcast) {
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient alice(&w.gateway, client_params("+923001230009"));
  SonicClient bob(&w.gateway, client_params("+923001230010"));

  const std::string url = w.corpus.pages()[5].url;
  alice.request(url, 0.0);
  bob.request(url, 0.2);
  server.poll_sms(5.0);
  EXPECT_EQ(server.metrics().counter_value("requests_served"), 1u);
  EXPECT_EQ(server.metrics().counter_value("requests_coalesced"), 1u);

  const auto alice_acks = alice.poll_acks(8.0);
  const auto bob_acks = bob.poll_acks(8.0);
  ASSERT_EQ(alice_acks.size(), 1u);
  ASSERT_EQ(bob_acks.size(), 1u);
  EXPECT_TRUE(alice_acks[0].accepted);
  EXPECT_TRUE(bob_acks[0].accepted);
  EXPECT_EQ(server.advance(100000.0).size(), 1u);
}

TEST(Uplink, ClientCoalescesDuplicateLocalRequests) {
  World w;
  SonicClient client(&w.gateway, client_params("+923001230011"));
  client.request("khabarnama.com.pk/", 0.0);
  EXPECT_EQ(client.request("khabarnama.com.pk/", 1.0), SonicClient::TapResult::kRequestedViaSms);
  EXPECT_EQ(client.uplink_pending(), 1u);
  EXPECT_EQ(client.metrics().counter_value("uplink_coalesced"), 1u);
  EXPECT_EQ(w.gateway.messages_accepted(), 1u);  // one SMS, not two
}

TEST(Uplink, DuplicateAckDeliveriesAreDroppedAsStale) {
  World w;
  w.gateway.set_duplication_rate(1.0);  // every delivery arrives twice
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient client(&w.gateway, client_params("+923001230012"));

  client.request(w.corpus.pages()[6].url, 0.0);
  server.poll_sms(5.0);  // sees the duplicated request too: dedup re-ACKs
  EXPECT_EQ(server.metrics().counter_value("requests_deduped"), 1u);

  // Four ACK copies reach the client (2 responses x duplication); exactly
  // one settles the request, the rest count as stale.
  const auto acks = client.poll_acks(10.0);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].accepted);
  EXPECT_EQ(client.metrics().counter_value("uplink_stale_acks"), 3u);
  EXPECT_EQ(server.advance(100000.0).size(), 1u);
}

TEST(Uplink, StateMachineLifecycle) {
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient client(&w.gateway, client_params("+923001230013"));

  EXPECT_FALSE(client.uplink_state(1).has_value());  // nothing issued yet
  client.request(w.corpus.pages()[0].url, 0.0);
  const std::uint32_t good = client.last_uplink_id();
  client.request("does-not-exist.pk/", 0.1);
  const std::uint32_t bad = client.last_uplink_id();
  EXPECT_EQ(client.uplink_state(good), UplinkState::kAwaitingAck);
  EXPECT_EQ(client.uplink_state(bad), UplinkState::kAwaitingAck);

  server.poll_sms(5.0);
  const auto acks = client.poll_acks(8.0);
  EXPECT_EQ(acks.size(), 2u);
  EXPECT_EQ(client.uplink_state(good), UplinkState::kAccepted);
  EXPECT_EQ(client.uplink_state(bad), UplinkState::kRejected);
  EXPECT_EQ(client.metrics().counter_value("uplink_rejected"), 1u);
  EXPECT_EQ(client.uplink_pending(), 0u);
}

TEST(Uplink, SearchQueriesRideTheSameStateMachine) {
  World w;
  w.gateway.set_loss_rate(1.0);
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient client(&w.gateway, client_params("+923001230014"));

  EXPECT_EQ(client.ask("cricket scores", 0.0), SonicClient::TapResult::kRequestedViaSms);
  w.gateway.set_loss_rate(0.0);
  client.tick(10.0);  // retry carries the same query id
  server.poll_sms(12.0);
  EXPECT_EQ(server.metrics().counter_value("requests_served"), 1u);
  const auto acks = client.poll_acks(14.0);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].accepted);
  EXPECT_EQ(acks[0].url, "search:cricket scores");
  EXPECT_EQ(client.metrics().counter_value("uplink_retries"), 1u);
}

// An SMSC delivery report ("SMSC DLR ...") is not an ACK: the client drops
// it like any body parse_ack refuses, and the real ACK still settles the
// request.
TEST(Uplink, StrayDeliveryReportIsDropped) {
  World w;
  SonicServer server(&w.corpus, &w.gateway, w.server_params);
  SonicClient client(&w.gateway, client_params("+923001230015"));

  const std::string url = w.corpus.pages()[0].url;
  client.request(url, 0.0);
  const std::string report = "SMSC DLR " + sms::encode_request({url, 31.52, 74.35, client.last_uplink_id()});
  ASSERT_FALSE(sms::parse_ack(report).has_value());
  w.gateway.send({"SMSC", "+923001230015", report, 1.0, 0}, 1.0);
  server.poll_sms(5.0);
  const auto acks = client.poll_acks(10.0);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].accepted);
  EXPECT_EQ(client.uplink_pending(), 0u);
  EXPECT_EQ(client.metrics().counter_value("uplink_stale_acks"), 0u);
}

}  // namespace
}  // namespace sonic::core
