// sms_station: the station and its SMS uplink, with no DSP.
//
// Simulated users request pages with SonicClient::request over a Zipf(1)
// popularity of the 100-page corpus; the seed draws the arrival times, the
// users, the pages from the popularity law, and the network's faults.
// The load is open loop in simulated time: arrivals follow a Poisson
// schedule whatever the station does, and client retries come on top. The
// users' SMS cross a carrier network (an sms::SmsGateway with loss,
// duplication and reordering on) to the station's own SMS gateway, which
// the SonicServer polls; the benchmark relays between the two gateways, so
// the SMS layer is timed at that boundary. The server renders at its
// default 1080-px layout and runs the carousel, load shedding and 2 render
// threads; it opens the day with a push of the whole catalog and every
// simulated hour pushes the corpus pages whose content changed. The
// simulation runs as fast as the
// CPU allows until every request settled and every accepted page aired.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench.hpp"
#include "sms/sms.hpp"
#include "sonic/server.hpp"
#include "util/rng.hpp"
#include "web/corpus.hpp"

namespace e2e {
namespace {

using namespace sonic;

constexpr double kStepS = 2.0;             // simulation tick
constexpr double kPollWindowS = 120.0;     // users keep polling this long after a reply
constexpr double kDrainCapS = 4 * 3600.0;  // give up waiting for stragglers after this

struct Scale {
  int users;
  double hours;          // arrival window
  std::size_t arrivals;  // requests arriving in the window
};

struct Arrival {
  double t = 0.0;
  std::size_t user = 0;
  std::string url;
};

struct Input {
  Scale scale;
  std::vector<Arrival> arrivals;
  std::vector<std::vector<std::string>> pushes;  // [hour] -> pages pushed at that hour
  std::vector<std::string> phones;
  std::uint64_t net_seed = 0;
  std::uint64_t uplink_seed = 0;
  core::SonicServer::Params server;
};

const core::Transmitter kTransmitter{"lahore", 93.7, 31.52, 74.35, 40.0};

Input make_input(const Options& opt, const web::PkCorpus& corpus) {
  util::Rng rng(opt.seed ^ 0x534d5353ull);  // "SMSS"
  Input in;
  in.scale = opt.smoke ? Scale{20, 0.5, 60} : Scale{300, 4.0, 2200};

  // Popularity: Zipf(1) over a fixed rank order, the sites' landing pages
  // first, then their internal pages. The order is a property of the
  // corpus, not of the draw, so the page-size mix under the head of the
  // distribution (and with it the station's work and wait tail) does not
  // swing from seed to seed.
  std::vector<std::string> by_rank;
  for (const bool landing : {true, false}) {
    for (const auto& ref : corpus.pages()) {
      if (ref.landing() == landing) by_rank.push_back(ref.url);
    }
  }
  // A Poisson process over the window, conditioned on its count: the
  // arrival times are uniform order statistics. Fixing the count keeps the
  // station's load, and with it the wait tail, from swinging with the seed.
  const double end_s = in.scale.hours * 3600.0;
  for (std::size_t i = 0; i < in.scale.arrivals; ++i) {
    Arrival a;
    a.t = rng.uniform() * end_s;
    a.user = static_cast<std::size_t>(rng.uniform_int(static_cast<std::uint64_t>(in.scale.users)));
    a.url = by_rank[static_cast<std::size_t>(rng.zipf(static_cast<int>(by_rank.size()), 1.0))];
    in.arrivals.push_back(std::move(a));
  }
  std::sort(in.arrivals.begin(), in.arrivals.end(),
            [](const Arrival& x, const Arrival& y) { return x.t < y.t; });
  // The day opens with a push of the whole catalog (the morning push of
  // §3.1, one batch on the render workers), then hourly refresh pushes of
  // the pages that changed, until the drain cap.
  const int hours = static_cast<int>((end_s + kDrainCapS) / 3600.0) + 1;
  in.pushes.resize(static_cast<std::size_t>(hours) + 1);
  for (const auto& ref : corpus.pages()) in.pushes[0].push_back(ref.url);
  for (int h = 1; h <= hours; ++h) {
    for (const auto& ref : corpus.pages()) {
      if (corpus.changed_at(ref, h)) in.pushes[static_cast<std::size_t>(h)].push_back(ref.url);
    }
  }
  for (int u = 0; u < in.scale.users; ++u) {
    char phone[32];
    std::snprintf(phone, sizeof phone, "+92300%07d", u);
    in.phones.push_back(phone);
  }
  in.net_seed = rng.next();
  in.uplink_seed = rng.next();

  core::SonicServer::Params& sp = in.server;
  sp.rate_bps = 10000.0;
  // At the server's default 1080-px layout the median corpus page is
  // ~870 kB, 11 minutes of air on one 10 kbps frequency. 48 frequencies
  // (multi-frequency, §4) air it in ~15 s. The requests still keep the air
  // saturated, so same-page requests coalesce and the wait is set by the
  // request queue. At 16 frequencies the backlog
  // hit the shed bound until clients gave up; with idle air the carousel
  // cycles back to back and its repair generation swamps every other cost.
  sp.num_frequencies = 48;
  if (opt.smoke) {
    sp.layout.width = 96;
    sp.layout.max_height = 400;
  }
  sp.transmitters = {kTransmitter};
  sp.render_threads = 2;
  sp.carousel_enabled = true;
  // A 4-page catalog (default 16): one cycle's repair generation costs
  // ~1.1 s per 1080-px page.
  sp.carousel.max_pages = 4;
  // An hour of air. The morning push and the hourly refreshes wait behind
  // the requests on the low-priority lane and stay in the backlog.
  sp.shed_backlog_bytes = 60 * 60 * sp.rate_bps * sp.num_frequencies / 8;
  return in;
}

struct Request {
  std::size_t user = 0;
  std::uint32_t id = 0;
  std::string url;
  double t_arrival = 0.0;
  double t_sms = 0.0;
};

struct Pass {
  double wall_s = 0.0;
  double sim_s = 0.0;  // simulated station time, to the last tick
  std::uint64_t fingerprint = 0;
  std::size_t issued = 0;
  std::size_t accepted = 0;
  std::size_t pages_enqueued = 0;  // served requests + refresh pushes + carousel pages aired
  std::vector<double> waits;       // simulated seconds, accepted requests
  // Registry counters.
  std::uint64_t deduped = 0, coalesced = 0, shed = 0, carousel_repair = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, retries = 0;
  // Traced only: first airing of every page the pipeline rendered, with the
  // epoch it was rendered at.
  std::vector<std::pair<core::PageBundle, int>> rendered;
};

bool is_carousel(const core::PageBundle& bundle) {
  if (bundle.frames.empty()) return false;
  const auto parsed = core::parse_frame(bundle.frames.back());
  return parsed && parsed->first.type == core::kFrameTypeRepair;
}

Pass run_pass(const web::PkCorpus& corpus, const Input& in, Tracer* tracer, ReferenceClock* clock,
              Result& out) {
  Tracer off(false);
  Tracer& tr = tracer != nullptr ? *tracer : off;
  Tracer::Slot& uplink_slot = tr.slot("sonic.uplink");
  Tracer::Slot& gateway_slot = tr.slot("sms.gateway");
  Tracer::Slot& poll_slot = tr.slot("sonic.poll");
  Tracer::Slot& push_slot = tr.slot("sonic.push");
  Tracer::Slot& advance_slot = tr.slot("sonic.advance");

  Pass pass;
  if (clock != nullptr) clock->start();
  const auto t0 = Clock::now();

  sms::SmsGatewayParams net_params;
  net_params.loss_rate = 0.05;
  net_params.duplication_rate = 0.05;
  net_params.reorder_rate = 0.1;
  net_params.reorder_delay_s = 30.0;
  net_params.seed = in.net_seed;
  sms::SmsGateway net(net_params);
  sms::SmsGatewayParams station_params;  // the station's own modem link: lossless
  station_params.latency_mean_s = 0.5;
  station_params.latency_jitter_s = 0.0;
  station_params.loss_rate = 0.0;
  sms::SmsGateway station(station_params);

  core::SonicServer server(&corpus, &station, in.server);
  const std::size_t users = in.phones.size();
  std::vector<core::SonicClient> clients;
  clients.reserve(users);
  std::unordered_map<std::string, std::size_t> user_of;
  for (std::size_t u = 0; u < users; ++u) {
    core::SonicClient::Params cp;
    cp.phone_number = in.phones[u];
    cp.server_number = in.server.phone_number;
    cp.lat = kTransmitter.lat + 0.01 * static_cast<double>(u % 7);
    cp.lon = kTransmitter.lon - 0.01 * static_cast<double>(u % 5);
    cp.uplink.seed = in.uplink_seed + u;
    clients.emplace_back(&net, cp);
    user_of.emplace(in.phones[u], u);
  }
  std::vector<int> replies_at_station(users, 0);
  std::vector<double> poll_until(users, -1.0);

  std::vector<Request> requests;
  std::unordered_map<std::string, std::vector<double>> aired_at;  // url -> completions (non-carousel)
  std::vector<int> epoch_of_page{0};  // page id -> render epoch
  std::unordered_set<std::uint32_t> seen_pages;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) { h = fnv1a(&v, sizeof v, h); };
  std::size_t pushed = 0, carousel_aired = 0, non_carousel_aired = 0;

  const auto note_renders = [&](double t) {
    while (epoch_of_page.size() <= server.renders()) {
      epoch_of_page.push_back(static_cast<int>(t / 3600.0));
    }
  };
  const double arrivals_end = in.scale.hours * 3600.0;
  std::size_t next_arrival = 0;
  std::size_t next_hour = 0;
  std::size_t settled_from = 0;  // requests before this index are known resolved
  auto received_before = server.metrics().counter_value("requests_received");

  double t = 0.0;
  for (;; t += kStepS) {
    if (clock != nullptr) clock->tick();
    while (next_arrival < in.arrivals.size() && in.arrivals[next_arrival].t <= t) {
      const Arrival& a = in.arrivals[next_arrival++];
      core::SonicClient& client = clients[a.user];
      const std::uint32_t before = client.last_uplink_id();
      {
        auto span = tr.span(uplink_slot);
        client.request(a.url, t);
      }
      if (client.last_uplink_id() != before) {
        requests.push_back({a.user, client.last_uplink_id(), a.url, a.t, t});
      }
    }
    if (next_hour < in.pushes.size() && t >= 3600.0 * static_cast<double>(next_hour)) {
      auto span = tr.span(push_slot);
      pushed += static_cast<std::size_t>(server.push_pages(in.pushes[next_hour], t));
      ++next_hour;
    }
    note_renders(t);

    // Carrier network -> station.
    {
      auto span = tr.span(gateway_slot);
      for (sms::SmsMessage& m : net.deliver_due(in.server.phone_number, t)) {
        const auto it = user_of.find(m.from);
        if (it != user_of.end()) ++replies_at_station[it->second];
        station.send(std::move(m), t);
        gateway_slot.work += 1;
      }
    }
    {
      auto span = tr.span(poll_slot);
      server.poll_sms(t);
    }
    const auto received = server.metrics().counter_value("requests_received");
    poll_slot.work += static_cast<double>(received - received_before);
    received_before = received;
    note_renders(t);

    // Station -> carrier network: replies for users who texted the station.
    for (std::size_t u = 0; u < users; ++u) {
      if (replies_at_station[u] <= 0) continue;
      auto span = tr.span(gateway_slot);
      for (sms::SmsMessage& m : station.deliver_due(in.phones[u], t)) {
        --replies_at_station[u];
        net.send(std::move(m), t);
        gateway_slot.work += 1;
        poll_until[u] = t + kPollWindowS;
      }
    }
    for (std::size_t u = 0; u < users; ++u) {
      if (clients[u].uplink_pending() == 0 && t > poll_until[u]) continue;
      auto span = tr.span(uplink_slot);
      clients[u].poll_acks(t);
    }

    std::vector<core::CompletedBroadcast> done;
    {
      auto span = tr.span(advance_slot);
      done = server.advance(t);
    }
    note_renders(t);
    for (core::CompletedBroadcast& d : done) {
      const bool carousel = is_carousel(d.bundle);
      mix(d.bundle.page_id);
      mix(d.bundle.frames.size());
      mix(static_cast<std::uint64_t>(d.completed_at_s * 1e3));
      if (carousel) {
        ++carousel_aired;
      } else {
        ++non_carousel_aired;
        aired_at[d.bundle.metadata.url].push_back(d.completed_at_s);
      }
      if (tracer != nullptr && seen_pages.insert(d.bundle.page_id).second) {
        const int epoch = d.bundle.page_id < epoch_of_page.size()
                              ? epoch_of_page[d.bundle.page_id]
                              : static_cast<int>(t / 3600.0);
        pass.rendered.emplace_back(std::move(d.bundle), epoch);
      }
    }

    // Stop once arrivals are over, no request is live, and every accepted
    // request's page has aired since its first SMS.
    if (t < arrivals_end || next_arrival < in.arrivals.size()) continue;
    if (t >= arrivals_end + kDrainCapS) break;
    bool live = false;
    for (const auto& c : clients) live = live || c.uplink_pending() > 0;
    if (live) continue;
    while (settled_from < requests.size()) {
      const Request& r = requests[settled_from];
      if (clients[r.user].uplink_state(r.id) == core::UplinkState::kAccepted) {
        const auto it = aired_at.find(r.url);
        if (it == aired_at.end() || it->second.back() < r.t_sms) break;
      }
      ++settled_from;
    }
    if (settled_from == requests.size()) break;
  }
  pass.wall_s = clock != nullptr ? clock->stop() : seconds_since(t0);
  pass.sim_s = t;

  // Outcomes and checks, after the clock stops.
  auto& registry = server.metrics();
  pass.deduped = registry.counter_value("requests_deduped");
  pass.coalesced = registry.counter_value("requests_coalesced");
  pass.shed = registry.counter_value("requests_shed");
  pass.carousel_repair = registry.counter_value("carousel_repair_frames");
  pass.cache_hits = registry.counter_value("render_cache_hits");
  pass.cache_misses = registry.counter_value("render_cache_misses");
  const auto served = registry.counter_value("requests_served");
  std::uint64_t acked = 0, issued = 0;
  for (auto& c : clients) {
    auto& m = c.metrics();
    acked += m.counter_value("uplink_acked");
    issued += m.counter_value("uplink_requests");
    pass.retries += m.counter_value("uplink_retries") + m.counter_value("uplink_server_retries");
  }
  pass.issued = requests.size();
  out.check(issued == requests.size(), "uplink_requests disagrees with the requests issued");
  std::size_t never_aired = 0;
  for (const Request& r : requests) {
    if (clients[r.user].uplink_state(r.id) != core::UplinkState::kAccepted) continue;
    ++pass.accepted;
    const auto it = aired_at.find(r.url);
    if (it == aired_at.end() || it->second.back() < r.t_sms) {
      ++never_aired;
      continue;
    }
    pass.waits.push_back(*std::lower_bound(it->second.begin(), it->second.end(), r.t_sms) -
                         r.t_arrival);
  }
  out.check(never_aired == 0, std::to_string(never_aired) + " accepted requests never saw their page aired");
  // A request is served or coalesced once however many copies of it reach
  // the station; a second serve would air its page twice. An accepted
  // request was served or coalesced at least once.
  out.check(served + pass.coalesced <= issued && served + pass.coalesced >= acked,
            "served + coalesced (" + std::to_string(served + pass.coalesced) +
                ") is outside [accepted, issued] = [" + std::to_string(acked) + ", " +
                std::to_string(issued) + "]: a request aired twice or was lost");
  // No enqueued page aired twice.
  out.check(non_carousel_aired <= served + pushed,
            "non-carousel broadcasts (" + std::to_string(non_carousel_aired) +
                ") exceed served requests + pushes (" + std::to_string(served + pushed) + ")");
  pass.pages_enqueued = served + pushed + carousel_aired;
  for (const std::uint64_t v : {served, pass.coalesced, pass.deduped, pass.shed, acked, issued,
                                pass.retries, pass.cache_hits, pass.cache_misses}) {
    mix(v);
  }
  pass.fingerprint = h;
  std::printf("  sim %.1f h: %zu issued, %llu accepted, %llu served, %llu coalesced, %llu deduped, "
              "%llu shed, %zu pushed, %zu carousel pages, %llu retries\n",
              t / 3600.0, pass.issued, static_cast<unsigned long long>(acked),
              static_cast<unsigned long long>(served), static_cast<unsigned long long>(pass.coalesced),
              static_cast<unsigned long long>(pass.deduped), static_cast<unsigned long long>(pass.shed),
              pushed, carousel_aired, static_cast<unsigned long long>(pass.retries));
  return pass;
}

}  // namespace

Result run_sms_station(const Options& opt) {
  Result out;
  constexpr int kSetupReps = 25;  // set-up takes milliseconds here
  std::vector<double> setup_s;
  std::unique_ptr<web::PkCorpus> corpus;
  Input in;
  for (int i = 0; i < kSetupReps; ++i) {
    ReferenceClock clock;
    clock.start();
    auto c = std::make_unique<web::PkCorpus>();
    Input next = make_input(opt, *c);
    setup_s.push_back(clock.stop());
    out.check(i == 0 || next.arrivals.size() == in.arrivals.size(), "set-up is not deterministic");
    corpus = std::move(c);
    in = std::move(next);
  }
  std::printf("sms_station: %zu arrivals over %.1f h from %d users\n", in.arrivals.size(),
              in.scale.hours, in.scale.users);

  Pass first;
  bool have_first = false;
  const auto same_outcome = [&](Pass& pass) {
    if (!have_first) {
      first = std::move(pass);
      have_first = true;
      return;
    }
    out.check(pass.fingerprint == first.fingerprint,
              "station outcome differs between reps of the same input");
  };

  if (!opt.trace) {
    std::vector<double> rt_x, pages_s;
    repeat_for(opt.seconds, [&] {
      // The long calls (batch renders on the workers, carousel repair
      // generation) leave few tick points; the sampler keeps the
      // reference current inside them.
      ReferenceClock clock(/*sampled=*/true);
      Pass pass = run_pass(*corpus, in, nullptr, &clock, out);
      std::printf("  rep: %.1f sim s, %zu pages in %.2f reference s (%.2f wall s)\n", pass.sim_s,
                  pass.pages_enqueued, pass.wall_s, clock.raw_seconds());
      rt_x.push_back(pass.sim_s / pass.wall_s);
      pages_s.push_back(static_cast<double>(pass.pages_enqueued) / pass.wall_s);
      same_outcome(pass);
    });
    out.add("setup_s", median(setup_s), "s");
    out.add("rt_x", median(rt_x), "x");
    out.add("pages_s", median(pages_s), "1/s");
    out.add("pages_ok_ratio",
            static_cast<double>(first.accepted) / static_cast<double>(first.issued), "ratio");
    std::printf("sms_station: page wait over %zu accepted requests: p50 %.1f s, p99 %.1f s\n",
                first.waits.size(), quantile(first.waits, 0.5), quantile(first.waits, 0.99));
  } else {
    Tracer tracer(true);
    double untraced_wall = 0.0, traced_wall = 0.0;
    std::vector<std::pair<core::PageBundle, int>> rendered;
    repeat_for(opt.seconds, [&] {
      Pass plain = run_pass(*corpus, in, nullptr, nullptr, out);
      Pass traced = run_pass(*corpus, in, &tracer, nullptr, out);
      untraced_wall += plain.wall_s;
      traced_wall += traced.wall_s;
      if (rendered.empty()) rendered = std::move(traced.rendered);
      same_outcome(plain);
      same_outcome(traced);
    });
    // Render and framing happened inside the server (on its render
    // threads); re-time them on the first pages it aired and check the
    // frames. A sample keeps the traced run short: a 1080-px page takes
    // ~0.4 s to render and frame on one thread.
    constexpr std::size_t kReplayPages = 24;
    if (rendered.size() > kReplayPages) rendered.resize(kReplayPages);
    for (const auto& [bundle, epoch] : rendered) {
      core::BroadcastPipeline::Params params;
      params.layout = in.server.layout;
      params.codec = in.server.codec;
      params.page_expiry_s = in.server.page_expiry_s;
      replay_page(*corpus, params, bundle, epoch, tracer, out);
    }
    report_layers(tracer, traced_wall, untraced_wall,
                  {"sonic.uplink", "sms.gateway", "sonic.poll", "sonic.push", "sonic.advance"}, out);
    const double lookups = static_cast<double>(first.cache_hits + first.cache_misses);
    out.add("sonic.cache_hit_ratio",
            lookups > 0.0 ? static_cast<double>(first.cache_hits) / lookups : 0.0, "ratio");
    out.add("sonic.requests_deduped", static_cast<double>(first.deduped), "count");
    out.add("sonic.requests_coalesced", static_cast<double>(first.coalesced), "count");
    out.add("sonic.requests_shed", static_cast<double>(first.shed), "count");
    out.add("sonic.uplink_retries_per_request",
            static_cast<double>(first.retries) / static_cast<double>(first.issued), "ratio");
    out.add("sonic.carousel_repair_frames", static_cast<double>(first.carousel_repair), "count");
    out.add("sonic.page_wait_p50_s", quantile(first.waits, 0.5), "sim_s");
    out.add("sonic.page_wait_p99_s", quantile(first.waits, 0.99), "sim_s");
    print_layers(tracer, traced_wall);
  }
  out.attempted = first.issued;
  out.failed = first.issued - first.accepted;
  return out;
}

}  // namespace e2e
