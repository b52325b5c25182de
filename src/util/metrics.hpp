// Lightweight metrics registry for the broadcast pipeline, server, and
// streaming receiver: named monotonic counters (pages rendered, cache hits,
// frames emitted, sync hits, ...) and summary histograms (queue wait,
// render/encode wall time, per-burst NCC/SNR). Counters are lock-free
// atomics; histograms take a small per-histogram lock, so worker threads can
// record from inside the pipeline pool without serializing on the registry.
//
// Lives in src/util (lowest layer) so that sonic_modem can report receiver
// observability without depending on sonic_core, which itself links the
// modem. The types keep the namespace sonic::core.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sonic::core {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Histogram {
 public:
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  };

  void observe(double value);
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  Snapshot snap_;
};

// Registry of named instruments. counter()/histogram() create on first use
// and return a reference that stays valid for the registry's lifetime, so
// hot paths can look the instrument up once and keep the reference.
class Metrics {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  std::uint64_t counter_value(const std::string& name) const;  // 0 when absent

  // Human-readable dump, one instrument per line, sorted by name — what
  // examples/broadcast_station and the benches print.
  std::string report() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace sonic::core
