// Uplink reliability sweep: end-to-end request delivery over the
// fault-injecting SMS gateway (silent loss 0..50 %, duplication,
// reordering) with the client retry state machine and the idempotent
// server. Reports, per loss point, the fraction of unique requests that
// reached broadcast-complete, duplicate-broadcast count (must be zero —
// dedup + coalescing absorb every retransmission), request-to-broadcast
// latency percentiles, and the retry traffic that bought the reliability.
//
//   ./uplink_reliability [--requests 60] [--clients 20] [--horizon 4000]
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sms/sms.hpp"
#include "sonic/client.hpp"
#include "sonic/server.hpp"
#include "web/corpus.hpp"

namespace {

struct PointResult {
  int requests = 0;
  int delivered = 0;        // unique requests that reached the air
  int dup_broadcasts = 0;   // extra on-air copies (acceptance: 0)
  std::size_t acked = 0;
  std::size_t gave_up = 0;
  std::size_t retries = 0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  int sms_segments = 0;
};

PointResult run_point(double loss, double dup, double reorder, int num_requests,
                      int num_clients, double horizon_s) {
  sonic::web::PkCorpus corpus;
  sonic::sms::SmsGatewayParams gp{3.0, 2.0, loss, 9000 + static_cast<std::uint64_t>(loss * 100)};
  gp.duplication_rate = dup;
  gp.reorder_rate = reorder;
  gp.reorder_delay_s = 20.0;
  sonic::sms::SmsGateway gateway(gp);

  sonic::core::SonicServer::Params sp;
  sp.rate_bps = 40000.0;
  sp.layout = sonic::web::LayoutParams{240, 2000, 10};
  sp.transmitters = {{"lahore", 93.7, 31.52, 74.35, 40.0}};
  sonic::core::SonicServer server(&corpus, &gateway, sp);

  std::vector<sonic::core::SonicClient> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    sonic::core::SonicClient::Params cp;
    char phone[32];
    std::snprintf(phone, sizeof(phone), "+92300%07d", c);
    cp.phone_number = phone;
    cp.lat = 31.52;
    cp.lon = 74.35;
    cp.uplink.ack_timeout_s = 25.0;
    cp.uplink.max_attempts = 12;
    cp.uplink.backoff_factor = 1.6;
    cp.uplink.backoff_cap_s = 150.0;
    cp.uplink.jitter_frac = 0.15;
    cp.uplink.seed = 0x11000 + static_cast<std::uint64_t>(c);
    clients.emplace_back(&gateway, cp);
  }

  // One unique URL per request, round-robin across clients, issued over the
  // first ~8 min so arrivals overlap retries and backlog.
  struct Issue {
    int client;
    std::string url;
    double at_s;
  };
  std::vector<Issue> issues;
  for (int j = 0; j < num_requests; ++j) {
    issues.push_back({j % num_clients,
                      corpus.pages()[static_cast<std::size_t>(j) % corpus.pages().size()].url,
                      8.0 * j});
  }

  std::map<std::string, double> issued_at;
  std::map<std::string, int> on_air;
  std::vector<double> latencies;
  std::size_t next_issue = 0;
  for (double t = 0.0; t <= horizon_s; t += 2.5) {
    while (next_issue < issues.size() && issues[next_issue].at_s <= t) {
      const Issue& is = issues[next_issue];
      clients[static_cast<std::size_t>(is.client)].request(is.url, t);
      issued_at[is.url] = t;
      ++next_issue;
    }
    for (auto& client : clients) client.poll_acks(t);
    server.poll_sms(t);
    for (const auto& done : server.advance(t)) {
      const std::string& url = done.bundle.metadata.url;
      if (++on_air[url] == 1) latencies.push_back(done.completed_at_s - issued_at[url]);
    }
  }

  PointResult r;
  r.requests = num_requests;
  for (const auto& [url, copies] : on_air) {
    ++r.delivered;
    r.dup_broadcasts += copies - 1;
  }
  for (const auto& client : clients) {
    r.acked += client.metrics().counter_value("uplink_acked");
    r.gave_up += client.metrics().counter_value("uplink_gave_up");
    r.retries += client.metrics().counter_value("uplink_retries") +
                 client.metrics().counter_value("uplink_server_retries");
  }
  r.p50_s = sonic::bench::percentile(latencies, 0.5);
  r.p99_s = sonic::bench::percentile(latencies, 0.99);
  r.sms_segments = gateway.segments_carried();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int requests = sonic::bench::arg_int(argc, argv, "--requests", 60);
  const int clients = sonic::bench::arg_int(argc, argv, "--clients", 20);
  const double horizon = sonic::bench::arg_double(argc, argv, "--horizon", 4000.0);
  const double dup = sonic::bench::arg_double(argc, argv, "--dup", 0.2);
  const double reorder = sonic::bench::arg_double(argc, argv, "--reorder", 0.3);

  std::printf("# Uplink reliability vs silent SMS loss (dup=%.0f%%, reorder=%.0f%% by <=20 s)\n",
              dup * 100, reorder * 100);
  std::printf("# %d unique requests, %d clients, retry policy: timeout 25 s x1.6 cap 150 s, 12 attempts\n",
              requests, clients);
  bool ok = true;
  for (double loss : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    const PointResult r = run_point(loss, dup, reorder, requests, clients, horizon);
    const double ratio = static_cast<double>(r.delivered) / r.requests;
    std::printf(
        "BENCH_UPLINK loss=%.2f dup=%.2f requests=%d delivered=%d ratio=%.3f "
        "dup_broadcasts=%d acked=%zu gave_up=%zu retries=%zu p50_s=%.1f p99_s=%.1f "
        "sms_segments=%d\n",
        loss, dup, r.requests, r.delivered, ratio, r.dup_broadcasts, r.acked, r.gave_up,
        r.retries, r.p50_s, r.p99_s, r.sms_segments);
    if (ratio < 0.99 || r.dup_broadcasts != 0) ok = false;
  }
  std::printf("BENCH_UPLINK_ACCEPTANCE %s (every point: ratio >= 0.99 and zero duplicate broadcasts)\n",
              ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
