#include "sonic/cache.hpp"

#include <algorithm>

namespace sonic::core {

PageCache::PageCache(std::size_t max_pages) : max_pages_(max_pages) {}

void PageCache::put(ReceivedPage page, double now_s) {
  Entry entry;
  entry.received_at_s = now_s;
  entry.expires_at_s = now_s + page.metadata.expiry_s;
  const std::string url = page.metadata.url;
  entry.page = std::move(page);
  entries_[url] = std::move(entry);

  if (max_pages_ > 0 && entries_.size() > max_pages_) {
    auto oldest = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.received_at_s < oldest->second.received_at_s) oldest = it;
    }
    entries_.erase(oldest);
  }
}

const ReceivedPage* PageCache::get(const std::string& url, double now_s) {
  const auto it = entries_.find(url);
  if (it == entries_.end()) return nullptr;
  if (it->second.expires_at_s <= now_s) {
    entries_.erase(it);
    return nullptr;
  }
  return &it->second.page;
}

const ReceivedPage* PageCache::get(const std::string& url, double now_s) const {
  const auto it = entries_.find(url);
  if (it == entries_.end() || it->second.expires_at_s <= now_s) return nullptr;
  return &it->second.page;
}

std::vector<CatalogEntry> PageCache::catalog(double now_s) const {
  std::vector<CatalogEntry> out;
  for (const auto& [url, entry] : entries_) {
    if (entry.expires_at_s <= now_s) continue;
    out.push_back({url, entry.received_at_s, entry.expires_at_s, entry.page.coverage});
  }
  std::sort(out.begin(), out.end(),
            [](const CatalogEntry& a, const CatalogEntry& b) { return a.url < b.url; });
  return out;
}

BundleCache::BundleCache(std::size_t max_pages) : max_pages_(max_pages) {}

std::shared_ptr<const PageBundle> BundleCache::get(const std::string& key, int version) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  if (it->second.version != version) {
    // The page content rotated since this render: the entry can never hit
    // again, so reclaim its slot now.
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.bundle;
}

void BundleCache::put(const std::string& key, int version, std::shared_ptr<const PageBundle> bundle) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.version = version;
    it->second.bundle = std::move(bundle);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(key);
  entries_[key] = Entry{version, std::move(bundle), lru_.begin()};
  while (entries_.size() > max_pages_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

}  // namespace sonic::core
