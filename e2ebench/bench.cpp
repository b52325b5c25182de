#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "modem/profile.hpp"
#include "web/layout.hpp"

namespace e2e {

using namespace sonic;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- host-speed reference ----------------------------------------------------

namespace {

thread_local volatile float g_kernel_sink = 0.0f;

}  // namespace

// Best of three runs of a fixed libm-heavy loop (sin/cos and multiply-adds,
// like the DSP the workloads run); the best run skips interrupts.
double reference_kernel_seconds() {
  double best = 1e9;
  for (int run = 0; run < 3; ++run) {
    const auto t0 = Clock::now();
    float acc = 0.0f;
    for (int i = 0; i < 50000; ++i) {
      const float x = 0.001f * static_cast<float>(i % 997);
      acc += std::sin(x) * std::cos(0.5f * x) + x * x * 0.25f;
    }
    g_kernel_sink = acc;
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

void ReferenceClock::start() {
  stop_sampler();
  total_ = 0.0;
  sampled_kernel_s_.clear();
  segment_kernel_s_ = reference_kernel_seconds();
  segment_start_ = Clock::now();
  if (sampled_) {
    sampling_ = true;
    sampler_ = std::thread([this] {
      std::unique_lock lock(mu_);
      while (sampling_) {
        lock.unlock();
        const double k = reference_kernel_seconds();
        lock.lock();
        sampled_kernel_s_.push_back(k);
        wake_.wait_for(lock, std::chrono::duration<double>(kSampleS), [this] { return !sampling_; });
      }
    });
  }
}

void ReferenceClock::stop_sampler() {
  if (!sampler_.joinable()) return;
  {
    const std::lock_guard lock(mu_);
    sampling_ = false;
  }
  wake_.notify_all();
  sampler_.join();
}

void ReferenceClock::close_segment() {
  const double raw = seconds_since(segment_start_);
  const double kernel = reference_kernel_seconds();
  double kernel_sum = segment_kernel_s_ + kernel;
  double kernels = 2.0;
  {
    const std::lock_guard lock(mu_);
    for (const double k : sampled_kernel_s_) kernel_sum += k;
    kernels += static_cast<double>(sampled_kernel_s_.size());
    sampled_kernel_s_.clear();
  }
  const double scale = kReferenceKernelS / (kernel_sum / kernels);
  raw_total_ += raw;
  total_ += raw * scale;
  for (const double d : pending_) samples_.push_back(d * scale);
  pending_.clear();
  segment_kernel_s_ = kernel;
  segment_start_ = Clock::now();
}

void ReferenceClock::tick() {
  if (seconds_since(segment_start_) >= kIntervalS) close_segment();
}

double ReferenceClock::stop() {
  stop_sampler();
  close_segment();
  return total_;
}

// ---- per-layer report ------------------------------------------------------

namespace {

// Every layer timing the traced runs report: (metric, slot, seconds ->
// unit scale, unit, per call instead of per unit of work).
struct LayerSpec {
  const char* metric;
  const char* slot;
  double scale;
  const char* unit;
  bool per_call;
};

constexpr LayerSpec kLayers[] = {
    {"web.render_ms_per_page", "web.render", 1e3, "ms", false},
    {"sonic.bundle_ms_per_page", "sonic.bundle", 1e3, "ms", false},
    {"sonic.poll_us_per_sms", "sonic.poll", 1e6, "us", false},
    {"sonic.advance_ms", "sonic.advance", 1e3, "ms", true},
    {"sonic.uplink_us_per_call", "sonic.uplink", 1e6, "us", true},
    {"sms.gateway_us_per_msg", "sms.gateway", 1e6, "us", false},
    {"modem.tx_ns_per_sample", "modem.tx", 1e9, "ns", false},
    {"fm.mod_ns_per_sample", "fm.mod", 1e9, "ns", false},
    {"fm.rf_ns_per_sample", "fm.rf", 1e9, "ns", false},
    {"fm.demod_ns_per_sample", "fm.demod", 1e9, "ns", false},
    {"fm.air_ns_per_sample", "fm.air", 1e9, "ns", false},
    {"modem.rx_ns_per_sample", "modem.rx", 1e9, "ns", false},
    {"sonic.rx_frame_ns", "sonic.rx_frame", 1e9, "ns", false},
    {"sonic.flush_ms", "sonic.flush", 1e3, "ms", true},
};

// Spans whose share of traced wall time is reported (`<slot>_share`).
constexpr const char* kShareSlots[] = {
    "sonic.prepare", "web.render", "sonic.bundle", "sonic.push",     "sonic.poll",
    "sonic.advance", "sonic.uplink", "sms.gateway", "modem.tx",      "fm.mod",
    "fm.rf",         "fm.demod",   "fm.air",       "modem.rx",      "sonic.rx_frame",
    "sonic.flush",
};

}  // namespace

void report_layers(const Tracer& tracer, double traced_wall_s, double untraced_wall_s,
                   const std::vector<std::string>& direct, Result& out) {
  const auto& slots = tracer.slots();
  const auto find = [&](const std::string& name) -> const Tracer::Slot* {
    const auto it = slots.find(name);
    return it == slots.end() ? nullptr : &it->second;
  };
  for (const LayerSpec& layer : kLayers) {
    const Tracer::Slot* s = find(layer.slot);
    double value = 0.0;
    if (s != nullptr) {
      const double denom = layer.per_call ? static_cast<double>(s->calls) : s->work;
      if (denom > 0.0) value = s->seconds * layer.scale / denom;
    }
    out.add(layer.metric, value, layer.unit);
  }
  for (const char* name : kShareSlots) {
    const Tracer::Slot* s = find(name);
    out.add(std::string(name) + "_share",
            s != nullptr && traced_wall_s > 0.0 ? s->seconds / traced_wall_s : 0.0, "ratio");
  }
  double covered = 0.0;
  for (const std::string& name : direct) {
    if (const Tracer::Slot* s = find(name)) covered += s->seconds;
  }
  out.add("trace.uncovered_share", traced_wall_s > 0.0 ? 1.0 - covered / traced_wall_s : 0.0,
          "ratio");
  out.add("trace.overhead_ratio",
          untraced_wall_s > 0.0 ? (traced_wall_s - untraced_wall_s) / untraced_wall_s : 0.0,
          "ratio");
  std::vector<double> kernel_s;
  for (int i = 0; i < 9; ++i) kernel_s.push_back(reference_kernel_seconds());
  out.add("ref.kernel_us", 1e6 * median(kernel_s), "us");
}

void report_on_audio(const ReferenceClock& clock, Result& out) {
  std::vector<double> chunk_ms;
  for (const double s : clock.samples()) chunk_ms.push_back(1e3 * s);
  std::printf("  on_audio: %zu chunks timed, p50 %.5f ms, p99 %.3f ms\n", chunk_ms.size(),
              quantile(chunk_ms, 0.5), quantile(chunk_ms, 0.99));
  out.add("sonic.on_audio_p50_ms", quantile(chunk_ms, 0.5), "ms");
  out.add("sonic.on_audio_p99_ms", quantile(chunk_ms, 0.99), "ms");
}

// ---- client feed -----------------------------------------------------------

ClientFeed::ClientFeed(core::SonicClient& client, const core::SonicClient::Params& params,
                       Tracer* tracer, ReferenceClock* clock)
    : client_(client), tracer_(tracer), clock_(clock) {
  pending_.reserve(kChunkSamples);
  if (tracer_ == nullptr) return;
  // The receiver SonicClient::on_audio builds on first use: same profile,
  // same buffer cap, recording into the client's registry.
  rx_modem_ = std::make_unique<modem::OfdmModem>(*modem::profiles::get(params.downlink_profile));
  modem::StreamReceiverParams rx;
  rx.max_buffer_samples = params.downlink_buffer_samples;
  auto& registry = client_.metrics();
  rx.metrics = &registry;
  rx_ = std::make_unique<modem::StreamReceiver>(*rx_modem_, rx);
  rx_slot_ = &tracer_->slot("modem.rx");
  frame_slot_ = &tracer_->slot("sonic.rx_frame");
  flush_slot_ = &tracer_->slot("sonic.flush");
}

void ClientFeed::deliver(const std::vector<modem::RxBurst>& bursts) {
  for (const modem::RxBurst& burst : bursts) {
    {
      auto span = tracer_->span(*frame_slot_);
      client_.on_burst(burst);
    }
    frame_slot_->work += static_cast<double>(burst.frames.size());
    for (const auto& frame : burst.frames) {
      if (frame.has_value()) kept_.push_back(*frame);
    }
  }
}

void ClientFeed::feed(std::span<const float> chunk) {
  if (tracer_ == nullptr) {
    const auto t0 = Clock::now();
    client_.on_audio(chunk);
    if (clock_ != nullptr) {
      clock_->sample(seconds_since(t0));
      clock_->tick();
    }
    return;
  }
  std::vector<modem::RxBurst> bursts;
  {
    auto span = tracer_->span(*rx_slot_);
    bursts = rx_->push(chunk);
  }
  rx_slot_->work += static_cast<double>(chunk.size());
  deliver(bursts);
}

void ClientFeed::push(std::span<const float> audio) {
  while (!audio.empty()) {
    if (pending_.empty() && audio.size() >= kChunkSamples) {
      feed(audio.first(kChunkSamples));
      audio = audio.subspan(kChunkSamples);
      continue;
    }
    const std::size_t take = std::min(kChunkSamples - pending_.size(), audio.size());
    pending_.insert(pending_.end(), audio.begin(), audio.begin() + static_cast<std::ptrdiff_t>(take));
    audio = audio.subspan(take);
    if (pending_.size() == kChunkSamples) {
      feed(pending_);
      pending_.clear();
    }
  }
}

void ClientFeed::finish(double now_s) {
  if (!pending_.empty()) {
    feed(pending_);
    pending_.clear();
  }
  if (tracer_ == nullptr) {
    client_.end_audio();
    client_.flush(now_s);
    return;
  }
  std::vector<modem::RxBurst> bursts;
  {
    auto span = tracer_->span(*rx_slot_);
    bursts = rx_->flush();
    rx_->reset();
  }
  deliver(bursts);
  auto span = tracer_->span(*flush_slot_);
  client_.flush(now_s);
}

// ---- output checks ---------------------------------------------------------

std::vector<core::ReceivedPage> assemble_reference(const std::vector<core::PageBundle>& bundles) {
  std::vector<core::ReceivedPage> out;
  out.reserve(bundles.size());
  for (const core::PageBundle& bundle : bundles) {
    core::PageAssembler assembler;
    for (const auto& frame : bundle.frames) assembler.push(frame);
    auto page = assembler.assemble(bundle.page_id, image::InterpolationMode::kLeft);
    out.push_back(page ? std::move(*page) : core::ReceivedPage{});
  }
  return out;
}

ClientOutcome check_client(core::SonicClient& client, const std::vector<core::PageBundle>& aired,
                           const std::vector<core::ReceivedPage>& reference, double now_s,
                           Result& out) {
  ClientOutcome o;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) { h = fnv1a(&v, sizeof v, h); };
  for (std::size_t i = 0; i < aired.size(); ++i) {
    const core::PageBundle& bundle = aired[i];
    const core::ReceivedPage& ref = reference[i];
    ++o.pages_aired;
    o.source_frames_aired += bundle.frames.size();
    const core::ReceivedPage* got = client.cache().get(bundle.metadata.url, now_s);
    if (got == nullptr) {
      o.source_frames_missing += bundle.frames.size();
      mix(0);
      continue;
    }
    const bool geometry_ok = got->metadata.url == ref.metadata.url &&
                             got->image.width() == ref.image.width() &&
                             got->image.height() == ref.image.height() &&
                             got->mask.size() == static_cast<std::size_t>(ref.image.width()) *
                                                     static_cast<std::size_t>(ref.image.height());
    out.check(geometry_ok, "cached page " + bundle.metadata.url + " differs in metadata from the aired page");
    if (!geometry_ok) continue;
    std::size_t wrong = 0;
    const int w = ref.image.width();
    for (int y = 0; y < ref.image.height(); ++y) {
      for (int x = 0; x < w; ++x) {
        const std::size_t idx = static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
                                static_cast<std::size_t>(x);
        if (got->mask[idx] != 0 && !(got->image.at(x, y) == ref.image.at(x, y))) ++wrong;
        const image::Rgb px = got->image.at(x, y);
        h = fnv1a(&px, sizeof px, h);
      }
    }
    h = fnv1a(got->mask.data(), got->mask.size(), h);
    out.check(wrong == 0, "cached page " + bundle.metadata.url + " has " + std::to_string(wrong) +
                              " received pixels that differ from the aired page");
    mix(got->frames_received);
    mix(got->frames_expected);
    if (got->coverage >= 1.0) ++o.pages_full;
    o.source_frames_missing += got->frames_expected - std::min(got->frames_expected, got->frames_received);
  }
  auto& registry = client.metrics();
  o.rx_resyncs = registry.counter_value("rx_resyncs");
  o.rx_frames_ok = registry.counter_value("rx_frames_ok");
  o.rx_frames_lost = registry.counter_value("rx_frames_lost");
  o.repair_frames_received = registry.counter_value("repair_frames_received");
  o.pages_fountain_decoded = registry.counter_value("pages_fountain_decoded");
  for (const std::uint64_t v : {o.rx_resyncs, o.rx_frames_ok, o.rx_frames_lost,
                                o.repair_frames_received, o.pages_fountain_decoded,
                                registry.counter_value("rx_bursts")}) {
    mix(v);
  }
  mix(client.frames_received());
  o.source_frames_ok = client.frames_received() - client.repair_frames_received();
  o.fingerprint = h;
  return o;
}

void replay_page(const web::PkCorpus& corpus, const core::BroadcastPipeline::Params& params,
                 const core::PageBundle& aired, int epoch, Tracer& tracer, Result& out) {
  const std::string& url = aired.metadata.url;
  std::string html;
  if (url.rfind("search:", 0) == 0) {
    html = corpus.search_html(url.substr(7), epoch);
  } else if (const web::PageRef* ref = corpus.find(url)) {
    html = corpus.html(*ref, epoch);
  } else {
    out.check(false, "aired page " + url + " is not in the corpus");
    return;
  }
  Tracer::Slot& render_slot = tracer.slot("web.render");
  Tracer::Slot& bundle_slot = tracer.slot("sonic.bundle");
  web::RenderResult page;
  {
    auto span = tracer.span(render_slot);
    page = web::render_html(html, params.layout);
  }
  core::PageBundle bundle;
  {
    auto span = tracer.span(bundle_slot);
    bundle = core::make_bundle(aired.page_id, url, page, params.codec, params.page_expiry_s);
  }
  render_slot.work += 1;
  bundle_slot.work += 1;
  const bool same = bundle.frames.size() <= aired.frames.size() &&
                    std::equal(bundle.frames.begin(), bundle.frames.end(), aired.frames.begin());
  out.check(same, "re-rendered frames of " + url + " differ from the pipeline's");
}

void print_layers(const Tracer& tracer, double traced_wall_s) {
  std::printf("  %-16s %10s %10s %14s %8s\n", "span", "seconds", "calls", "work", "share");
  for (const auto& [name, s] : tracer.slots()) {
    if (s.calls == 0) continue;
    std::printf("  %-16s %10.4f %10llu %14.0f %7.1f%%\n", name.c_str(), s.seconds,
                static_cast<unsigned long long>(s.calls), s.work,
                traced_wall_s > 0.0 ? 100.0 * s.seconds / traced_wall_s : 0.0);
  }
}

void check_kept_frames(const std::vector<util::Bytes>& kept, const std::vector<util::Bytes>& aired,
                       Result& out) {
  // Frames are keyed by their whole header (page, seq, total, type); the
  // body must then match byte for byte.
  std::unordered_map<std::uint64_t, const util::Bytes*> by_key;
  const auto key = [](const util::Bytes& frame) {
    return fnv1a(frame.data(), std::min<std::size_t>(frame.size(), 9));
  };
  for (const util::Bytes& frame : aired) by_key.emplace(key(frame), &frame);
  std::size_t mismatched = 0;
  for (const util::Bytes& frame : kept) {
    const auto it = by_key.find(key(frame));
    if (it == by_key.end() || *it->second != frame) ++mismatched;
  }
  out.check(mismatched == 0, std::to_string(mismatched) + " of " + std::to_string(kept.size()) +
                                 " frames the client kept differ from every aired frame");
}

}  // namespace e2e
