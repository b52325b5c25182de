#include <gtest/gtest.h>

#include "sms/sms.hpp"

namespace sonic::sms {
namespace {

TEST(SmsSegments, CountsGsm7Segments) {
  EXPECT_EQ(sms_segment_count(""), 1);
  EXPECT_EQ(sms_segment_count(std::string(160, 'a')), 1);
  EXPECT_EQ(sms_segment_count(std::string(161, 'a')), 2);
  EXPECT_EQ(sms_segment_count(std::string(306, 'a')), 2);
  EXPECT_EQ(sms_segment_count(std::string(307, 'a')), 3);
}

TEST(SmsGateway, DeliversAfterLatency) {
  SmsGateway gw({4.0, 0.0, 0.0, 1});
  gw.send({"alice", "sonic", "hello", 0, 0}, 100.0);
  EXPECT_TRUE(gw.deliver_due("sonic", 100.0).empty());
  EXPECT_TRUE(gw.deliver_due("sonic", 102.0).empty());
  const auto due = gw.deliver_due("sonic", 110.0);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].body, "hello");
  EXPECT_GE(due[0].deliver_at_s, 100.5);
  EXPECT_EQ(gw.in_flight(), 0u);
}

TEST(SmsGateway, OnlyDeliversToAddressee) {
  SmsGateway gw({1.0, 0.0, 0.0, 2});
  gw.send({"a", "x", "for x", 0, 0}, 0.0);
  gw.send({"a", "y", "for y", 0, 0}, 0.0);
  const auto for_x = gw.deliver_due("x", 100.0);
  ASSERT_EQ(for_x.size(), 1u);
  EXPECT_EQ(for_x[0].body, "for x");
  EXPECT_EQ(gw.in_flight(), 1u);
}

TEST(SmsGateway, LossIsSilentSendAlwaysSucceeds) {
  // The sender has no oracle: send() accepts everything, delivery fails
  // silently inside the network.
  SmsGateway gw({1.0, 0.0, 0.5, 3});
  const int n = 400;
  for (int i = 0; i < n; ++i) gw.send({"a", "b", "x", 0, 0}, 0.0);
  const auto delivered = gw.deliver_due("b", 1e9);
  EXPECT_NEAR(static_cast<double>(delivered.size()) / n, 0.5, 0.08);
  EXPECT_EQ(delivered.size() + gw.messages_lost(), static_cast<std::size_t>(n));
  EXPECT_EQ(gw.messages_accepted(), static_cast<std::size_t>(n));
}

TEST(SmsGateway, TotalLossDeliversNothingButAcceptsEverything) {
  SmsGateway gw({1.0, 0.0, 1.0, 4});
  for (int i = 0; i < 10; ++i) gw.send({"a", "b", "x", 0, 0}, 0.0);
  EXPECT_TRUE(gw.deliver_due("b", 1e9).empty());
  EXPECT_EQ(gw.messages_lost(), 10u);
  EXPECT_EQ(gw.in_flight(), 0u);
}

TEST(SmsGateway, DuplicationDeliversTheMessageTwice) {
  SmsGatewayParams p{1.0, 0.0, 0.0, 5};
  p.duplication_rate = 1.0;
  SmsGateway gw(p);
  gw.send({"a", "b", "dup me", 0, 0}, 0.0);
  const auto due = gw.deliver_due("b", 1e9);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].body, "dup me");
  EXPECT_EQ(due[1].body, "dup me");
  EXPECT_EQ(gw.messages_duplicated(), 1u);
}

TEST(SmsGateway, ReorderingDelaysSomeMessagesPastLaterOnes) {
  SmsGatewayParams p{4.0, 0.0, 0.0, 6};
  p.reorder_rate = 0.5;
  p.reorder_delay_s = 200.0;
  SmsGateway gw(p);
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    gw.send({"a", "b", "msg" + std::to_string(i), 0, 0}, static_cast<double>(i));
  }
  EXPECT_GT(gw.messages_reordered(), 0u);
  // Some message sent earlier must now arrive after one sent later.
  const auto due = gw.deliver_due("b", 1e9);
  ASSERT_EQ(due.size(), static_cast<std::size_t>(n));
  bool inverted = false;
  for (std::size_t i = 1; i < due.size(); ++i) {
    if (due[i].sent_at_s < due[i - 1].sent_at_s) inverted = true;
  }
  EXPECT_TRUE(inverted);
}

TEST(SmsGateway, MultipartBodiesAreSuperLinearlyFragile) {
  // A 3-segment body survives only if all three segments do: at 30 %
  // per-segment loss that is 0.7^3 ~ 34 %, far below a short body's 70 %.
  SmsGatewayParams p{1.0, 0.0, 0.3, 7};
  SmsGateway gw(p);
  const int n = 400;
  const std::string long_body(400, 'x');  // 3 segments
  for (int i = 0; i < n; ++i) gw.send({"a", "long", long_body, 0, 0}, 0.0);
  for (int i = 0; i < n; ++i) gw.send({"a", "short", "x", 0, 0}, 0.0);
  const double long_ratio = static_cast<double>(gw.deliver_due("long", 1e9).size()) / n;
  const double short_ratio = static_cast<double>(gw.deliver_due("short", 1e9).size()) / n;
  EXPECT_NEAR(long_ratio, 0.343, 0.08);
  EXPECT_NEAR(short_ratio, 0.7, 0.08);
}

TEST(SmsGateway, FaultScheduleIsDeterministicPerSeed) {
  SmsGatewayParams p{3.0, 2.0, 0.2, 9};
  p.duplication_rate = 0.2;
  p.reorder_rate = 0.3;
  SmsGateway a(p), b(p);
  for (int i = 0; i < 50; ++i) {
    const std::string body = std::string("m").append(std::to_string(i));
    a.send({"u", "v", body, 0, 0}, static_cast<double>(i));
    b.send({"u", "v", body, 0, 0}, static_cast<double>(i));
  }
  const auto da = a.deliver_due("v", 1e9);
  const auto db = b.deliver_due("v", 1e9);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].body, db[i].body);
    EXPECT_EQ(da[i].deliver_at_s, db[i].deliver_at_s);
  }
  EXPECT_EQ(a.messages_lost(), b.messages_lost());
  EXPECT_EQ(a.messages_duplicated(), b.messages_duplicated());
}

TEST(SmsGateway, CopyConservationAfterFullDrain) {
  SmsGatewayParams p{2.0, 1.0, 0.25, 10};
  p.duplication_rate = 0.15;
  SmsGateway gw(p);
  const std::size_t n = 300;
  for (std::size_t i = 0; i < n; ++i) gw.send({"a", "b", "x", 0, 0}, 0.0);
  const auto delivered = gw.deliver_due("b", 1e9);
  EXPECT_EQ(gw.in_flight(), 0u);
  EXPECT_EQ(delivered.size(), n - gw.messages_lost() + gw.messages_duplicated());
  EXPECT_EQ(gw.messages_delivered(), delivered.size());
}

TEST(SmsGateway, DeliveryOrderIsByDeliveryTime) {
  SmsGateway gw({3.0, 2.0, 0.0, 4});
  for (int i = 0; i < 10; ++i) {
    gw.send({"a", "b", "msg" + std::to_string(i), 0, 0}, static_cast<double>(i));
  }
  const auto due = gw.deliver_due("b", 1000.0);
  ASSERT_EQ(due.size(), 10u);
  for (std::size_t i = 1; i < due.size(); ++i) {
    EXPECT_GE(due[i].deliver_at_s, due[i - 1].deliver_at_s);
  }
}

TEST(SmsGateway, CountsSegmentsForBilling) {
  SmsGateway gw({1.0, 0.0, 0.0, 5});
  gw.send({"a", "b", std::string(200, 'x'), 0, 0}, 0.0);
  gw.send({"a", "b", "short", 0, 0}, 0.0);
  EXPECT_EQ(gw.segments_carried(), 3);
}

TEST(Protocol, RequestRoundTrip) {
  PageRequest req{"khabarnama.com.pk/story-2", 31.5204, 74.3587};
  const std::string wire = encode_request(req);
  EXPECT_LE(wire.size(), 160u);  // single segment
  const auto parsed = parse_request(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->url, req.url);
  EXPECT_NEAR(parsed->lat, req.lat, 1e-3);
  EXPECT_NEAR(parsed->lon, req.lon, 1e-3);
}

TEST(Protocol, AckRoundTrip) {
  RequestAck ack{"dawn.com.pk/", 135.0, 93.7, true, ""};
  const auto parsed = parse_ack(encode_ack(ack));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->accepted);
  EXPECT_EQ(parsed->url, ack.url);
  EXPECT_NEAR(parsed->eta_s, 135.0, 1.0);
  EXPECT_NEAR(parsed->frequency_mhz, 93.7, 0.05);
}

TEST(Protocol, NackRoundTrip) {
  RequestAck nack{"bank.pk/login", 0, 0, false, "auth-pages-unsupported"};
  const auto parsed = parse_ack(encode_ack(nack));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->accepted);
  EXPECT_EQ(parsed->url, "bank.pk/login");
  EXPECT_EQ(parsed->reason, "auth-pages-unsupported");
}

TEST(Protocol, RejectsMalformed) {
  EXPECT_FALSE(parse_request("hello there").has_value());
  EXPECT_FALSE(parse_request("SONIC GET ").has_value());
  EXPECT_FALSE(parse_request("SONIC GET url-without-coords").has_value());
  EXPECT_FALSE(parse_ack("SONIC ACK broken").has_value());
  EXPECT_FALSE(parse_ack("").has_value());
}

TEST(Protocol, UrlsWithSpacesStillParse) {
  // The URL is delimited by the final " @", so internal spaces survive.
  const auto parsed = parse_request("SONIC GET some url @1.0,2.0");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->url, "some url");
}

}  // namespace
}  // namespace sonic::sms
