// Synthetic corpus standing in for the paper's workload: "the 25 most
// popular Pakistani websites from the Tranco list filtered using the .pk
// domain name. For each landing page, we select three random internal
// pages, resulting in a total of 100 webpages", rendered hourly over three
// days (§4, Methodology).
//
// Each site gets a category (news/sports/shopping/education/government)
// that drives its layout, page length distribution, image density, and
// hourly content churn (news landing pages change nearly every hour,
// government pages almost never) — the properties Figures 4(b) and 4(c)
// depend on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sonic::web {

enum class SiteCategory { kNews, kSports, kShopping, kEducation, kGovernment };

const char* category_name(SiteCategory cat);

struct PageRef {
  int site = 0;      // 0..num_sites-1
  int page = 0;      // 0 = landing, 1..3 = internal
  std::string url;   // e.g. "khabarnama.com.pk/" or ".../story-2"
  bool landing() const { return page == 0; }
};

class PkCorpus {
 public:
  struct Params {
    int num_sites = 25;
    std::uint64_t seed = 2024;
  };

  PkCorpus();  // default Params (the paper's 25x4 corpus)
  explicit PkCorpus(Params params);

  const std::vector<PageRef>& pages() const { return pages_; }
  int num_sites() const { return params_.num_sites; }
  SiteCategory category(int site) const;
  const std::string& domain(int site) const { return domains_[static_cast<std::size_t>(site)]; }

  // Finds a page by URL (with or without a leading "http://").
  const PageRef* find(const std::string& url) const;

  // Deterministic HTML for the page as it looked at `epoch_hours` since the
  // measurement start. Unchanged pages return byte-identical HTML.
  std::string html(const PageRef& ref, int epoch_hours) const;

  // True when the page's content at `epoch_hours` differs from the hour
  // before (epoch 0 counts as changed: everything must be broadcast once).
  bool changed_at(const PageRef& ref, int epoch_hours) const;

  // Number of content versions up to and including `epoch_hours`.
  int version(const PageRef& ref, int epoch_hours) const;

  // A synthetic search-engine results page for `query` (§3.1: SONIC users
  // with an uplink "can send queries to search engines"): a ranked list of
  // result entries linking into the corpus, deterministic per
  // (query, epoch).
  std::string search_html(const std::string& query, int epoch_hours) const;

 private:
  Params params_;
  std::vector<PageRef> pages_;
  std::vector<std::string> domains_;
};

}  // namespace sonic::web
