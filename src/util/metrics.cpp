#include "util/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace sonic::core {

void Histogram::observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (snap_.count == 0) {
    snap_.min = value;
    snap_.max = value;
  } else {
    snap_.min = std::min(snap_.min, value);
    snap_.max = std::max(snap_.max, value);
  }
  snap_.sum += value;
  ++snap_.count;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snap_;
}

Counter& Metrics::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Metrics::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::uint64_t Metrics::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::string Metrics::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[160];
  for (const auto& [name, counter] : counters_) {
    std::snprintf(line, sizeof(line), "  %-24s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(counter->value()));
    out += line;
  }
  for (const auto& [name, histogram] : histograms_) {
    const auto s = histogram->snapshot();
    std::snprintf(line, sizeof(line),
                  "  %-24s count %-8llu mean %-10.4g min %-10.4g max %-10.4g\n", name.c_str(),
                  static_cast<unsigned long long>(s.count), s.mean(), s.min, s.max);
    out += line;
  }
  return out;
}

}  // namespace sonic::core
