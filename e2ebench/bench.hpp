// Shared pieces of the end-to-end benchmark: run options, the result that
// becomes the final JSON line, the span tracer used by traced runs, the
// client-side feed every receive workload shares, and the checks that
// compare what a client cached with what was aired.
//
// The benchmark only calls the program's public entry points, so it times
// each layer from the outside: a traced pass replaces an opaque call (e.g.
// FmLink::transmit, SonicClient::on_audio) with the public calls it is made
// of and checks that the result is bit-identical to the opaque call's.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "sonic/client.hpp"
#include "sonic/framing.hpp"
#include "sonic/pipeline.hpp"
#include "web/corpus.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // tiny inputs: checks the benchmark itself in seconds
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a failed correctness check; the run then reports correct=false.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

Result run_air_chain(const Options& opt);
Result run_client_rx(const Options& opt);
Result run_sms_station(const Options& opt);

// Runs `rep` once, then again while one more rep as long as the last one
// still fits in `seconds`. Returns the number of reps run.
template <class F>
int repeat_for(double seconds, F&& rep) {
  const auto start = Clock::now();
  int reps = 0;
  double last_s = 0.0;
  do {
    const auto t0 = Clock::now();
    rep();
    last_s = seconds_since(t0);
    ++reps;
  } while (seconds_since(start) + last_s <= seconds);
  return reps;
}

// ---- host-speed reference ----------------------------------------------

// Timed work measured in reference seconds. The benchmark's host is shared
// and its CPU speed drifts by tens of percent within seconds, so a timed
// region pauses about every 0.2 s to time a fixed arithmetic kernel (the
// pause is not timed) and rescales the wall time since the previous pause by
// kReferenceKernelS / the kernel's time. A reference second is a wall second
// on a host that runs the kernel in kReferenceKernelS. Timed over minutes on
// a 4-core shared container, the ratio of a fixed FM workload to the kernel
// varied about 4x less than the workload's raw wall time.
//
// A region made of long calls (a batch render on worker threads, say) can
// drift within one segment. With `sampled` set, a sampler thread also times
// the kernel every kSampleS while the region runs, and each segment is
// rescaled by the mean of every kernel time taken during it.
class ReferenceClock {
 public:
  static constexpr double kReferenceKernelS = 4e-4;
  static constexpr double kIntervalS = 0.2;
  static constexpr double kSampleS = 0.05;

  explicit ReferenceClock(bool sampled = false) : sampled_(sampled) {}
  ~ReferenceClock() { stop_sampler(); }
  ReferenceClock(const ReferenceClock&) = delete;
  ReferenceClock& operator=(const ReferenceClock&) = delete;

  // Starts a timed region.
  void start();
  // Call between pieces of timed work: calibrates once the current segment
  // is kIntervalS long.
  void tick();
  // A duration measured inside the current segment (one chunk, say); it is
  // rescaled with its segment into samples().
  void sample(double raw_s) { pending_.push_back(raw_s); }
  // Ends the timed region; returns its length in reference seconds.
  double stop();
  // Raw wall seconds of the regions timed so far, for reports.
  double raw_seconds() const { return raw_total_; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  void close_segment();
  void stop_sampler();

  bool sampled_;
  std::thread sampler_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool sampling_ = false;
  std::vector<double> sampled_kernel_s_;  // sampler's kernel times in this segment

  Clock::time_point segment_start_{};
  double segment_kernel_s_ = 0.0;  // kernel time at the segment's start
  double raw_total_ = 0.0;
  double total_ = 0.0;
  std::vector<double> pending_;
  std::vector<double> samples_;
};

// One timing of the reference kernel, in seconds (best of three runs).
double reference_kernel_seconds();

// ---- statistics --------------------------------------------------------

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = 0xcbf29ce484222325ull);

// ---- tracing -----------------------------------------------------------

// Aggregated spans by name. A slot accumulates wall time, calls and a work
// count (samples, pages, messages) so per-unit costs can be derived. Spans
// are recorded only when the tracer is enabled; a disabled tracer costs one
// branch per span.
class Tracer {
 public:
  struct Slot {
    double seconds = 0.0;
    std::uint64_t calls = 0;
    double work = 0.0;
  };

  class Span {
   public:
    explicit Span(Slot* slot) : slot_(slot) {
      if (slot_ != nullptr) t0_ = Clock::now();
    }
    ~Span() {
      if (slot_ != nullptr) {
        slot_->seconds += seconds_since(t0_);
        ++slot_->calls;
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Slot* slot_;
    Clock::time_point t0_{};
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Stable reference (std::map never moves its nodes).
  Slot& slot(const std::string& name) { return slots_[name]; }
  Span span(Slot& s) { return Span(enabled_ ? &s : nullptr); }
  const std::map<std::string, Slot>& slots() const { return slots_; }

 private:
  bool enabled_;
  std::map<std::string, Slot> slots_;
};

// Per-layer report of one traced pass against its untraced twin: every
// layer timing (zero for layers the workload does not touch), each span's
// share of the traced wall time, the share no `direct` span covers, and the
// tracing overhead, and the reference kernel's time (so a gain that exists
// only after rescaling to reference seconds can be seen). `direct` spans partition the workload's own calls; the
// other spans re-time work a direct call did inside (their shares are part
// of the enclosing direct share).
void report_layers(const Tracer& tracer, double traced_wall_s, double untraced_wall_s,
                   const std::vector<std::string>& direct, Result& out);

// The median and 99th percentile of the SonicClient::on_audio calls a clock
// timed (ClientFeed's samples, in reference ms); prints the sample count.
void report_on_audio(const ReferenceClock& clock, Result& out);

// ---- client receive path -------------------------------------------------

constexpr std::size_t kChunkSamples = 882;  // 20 ms at 44.1 kHz
constexpr double kAudioRate = 44100.0;

// Feeds tuner audio to a SonicClient in exact 20 ms chunks across push()
// boundaries. Untraced (tracer null): SonicClient::on_audio per chunk; with
// a clock, each call's wall time becomes one of its samples and the clock
// ticks between chunks. Traced: the same
// audio goes through a StreamReceiver built with the client's parameters
// (modem.rx span) and every burst through SonicClient::on_burst
// (sonic.rx_frame span) — exactly what on_audio does inside.
class ClientFeed {
 public:
  ClientFeed(sonic::core::SonicClient& client, const sonic::core::SonicClient::Params& params,
             Tracer* tracer, ReferenceClock* clock);
  ClientFeed(const ClientFeed&) = delete;
  ClientFeed& operator=(const ClientFeed&) = delete;

  void push(std::span<const float> audio);
  // Feeds the partial last chunk, ends the stream and flushes the client
  // (sonic.flush span when traced).
  void finish(double now_s);

  // Traced only: every frame the receiver kept, for byte comparison.
  const std::vector<sonic::util::Bytes>& kept_frames() const { return kept_; }

 private:
  void feed(std::span<const float> chunk);
  void deliver(const std::vector<sonic::modem::RxBurst>& bursts);

  sonic::core::SonicClient& client_;
  Tracer* tracer_;
  ReferenceClock* clock_;
  std::vector<float> pending_;
  // Traced only: the receiver on_audio would have built, and its spans.
  std::unique_ptr<sonic::modem::OfdmModem> rx_modem_;
  std::unique_ptr<sonic::modem::StreamReceiver> rx_;
  Tracer::Slot* rx_slot_ = nullptr;
  Tracer::Slot* frame_slot_ = nullptr;
  Tracer::Slot* flush_slot_ = nullptr;
  std::vector<sonic::util::Bytes> kept_;
};

// What a receive pass produced, compared between reps and between the
// untraced and traced passes of a run.
struct ClientOutcome {
  std::uint64_t fingerprint = 0;   // cache contents + receive counters
  std::size_t pages_aired = 0;
  std::size_t pages_full = 0;      // cached at coverage 1.0
  std::size_t source_frames_aired = 0;
  std::size_t source_frames_ok = 0;     // intact source frames received
  std::size_t source_frames_missing = 0;  // neither received nor recovered
  // Client registry counters.
  std::uint64_t rx_resyncs = 0;
  std::uint64_t rx_frames_ok = 0;
  std::uint64_t rx_frames_lost = 0;
  std::uint64_t repair_frames_received = 0;
  std::uint64_t pages_fountain_decoded = 0;

  double rx_frames_ok_ratio() const {
    const double all = static_cast<double>(rx_frames_ok + rx_frames_lost);
    return all > 0.0 ? static_cast<double>(rx_frames_ok) / all : 0.0;
  }
};

// Checks every aired page against the client's cache: metadata must match
// and every pixel the client marked received must equal the pixel decoded
// from the aired frames (so every frame it kept is the frame aired).
// `reference` holds the page images assembled from all aired source frames.
ClientOutcome check_client(sonic::core::SonicClient& client,
                           const std::vector<sonic::core::PageBundle>& aired,
                           const std::vector<sonic::core::ReceivedPage>& reference, double now_s,
                           Result& out);

// Reference pages: each bundle assembled from all of its source frames.
std::vector<sonic::core::ReceivedPage> assemble_reference(
    const std::vector<sonic::core::PageBundle>& bundles);

// Traced passes: every kept frame must be byte-equal to an aired frame.
void check_kept_frames(const std::vector<sonic::util::Bytes>& kept,
                       const std::vector<sonic::util::Bytes>& aired, Result& out);

// Re-times the render (web.render) and framing (sonic.bundle) the pipeline
// did for `aired` — whose first frames are the page's source frames — at
// `epoch` hours, and checks the re-made frames are byte-equal.
void replay_page(const sonic::web::PkCorpus& corpus,
                 const sonic::core::BroadcastPipeline::Params& params,
                 const sonic::core::PageBundle& aired, int epoch, Tracer& tracer, Result& out);

// Human-readable per-layer table of a traced run.
void print_layers(const Tracer& tracer, double traced_wall_s);

}  // namespace e2e
