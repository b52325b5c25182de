// Client-side page cache and catalog (§3.1): received pages are stored
// "with expiration date set according to a time indicated by the server";
// the SONIC app "shows a catalog of available webpages". Also the
// server-side BundleCache backing the broadcast pipeline's render/encode
// reuse.
#pragma once

#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sonic/framing.hpp"

namespace sonic::core {

struct CatalogEntry {
  std::string url;
  double received_at_s = 0.0;
  double expires_at_s = 0.0;
  double coverage = 0.0;  // delivery completeness, a quality hint in the UI
};

class PageCache {
 public:
  // max_pages bounds memory on the low-end device; the oldest entry is
  // evicted first (0 = unbounded).
  explicit PageCache(std::size_t max_pages = 64);

  void put(ReceivedPage page, double now_s);

  // Returns nullptr when absent or expired (and lazily evicts the expired
  // entry). The const overload only peeks.
  const ReceivedPage* get(const std::string& url, double now_s);
  const ReceivedPage* get(const std::string& url, double now_s) const;

  std::vector<CatalogEntry> catalog(double now_s) const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    ReceivedPage page;
    double received_at_s = 0.0;
    double expires_at_s = 0.0;
  };
  std::size_t max_pages_;
  std::map<std::string, Entry> entries_;
};

// Server-side LRU cache of prepared broadcast bundles, used by the
// BroadcastPipeline so hourly popular-catalog refreshes and repeat requests
// skip the render→encode→frame work. Entries are keyed on the pipeline's
// cache key — (url, layout fingerprint, codec quality) — and guarded by a
// content version: a stale version is a miss and is evicted on lookup.
// Bundles are handed out as shared_ptr so an eviction cannot invalidate a
// bundle still queued for broadcast.
class BundleCache {
 public:
  // max_pages bounds the catalog kept hot (least recently used evicted
  // first); at least 1, which the pipeline's validation ensures.
  explicit BundleCache(std::size_t max_pages);

  // Returns the cached bundle when present at exactly `version`, promoting
  // it to most-recently-used; nullptr (and eviction) on version mismatch.
  std::shared_ptr<const PageBundle> get(const std::string& key, int version);

  void put(const std::string& key, int version, std::shared_ptr<const PageBundle> bundle);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return max_pages_; }
  std::size_t evictions() const { return evictions_; }

 private:
  struct Entry {
    int version = 0;
    std::shared_ptr<const PageBundle> bundle;
    std::list<std::string>::iterator lru_it;
  };
  std::size_t max_pages_;
  std::size_t evictions_ = 0;
  std::list<std::string> lru_;  // front = most recently used
  std::map<std::string, Entry> entries_;
};

}  // namespace sonic::core
