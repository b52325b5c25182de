#include "web/corpus.hpp"

#include <sstream>

#include "util/rng.hpp"

namespace sonic::web {
namespace {

using sonic::util::Rng;

// Internal pages per landing page (§4: three random internal pages each).
constexpr int kInternalPerSite = 3;

const char* kSyllables[] = {"kha", "bar", "nama", "dun", "ya",  "awaz", "roz",  "an",  "jang",
                            "dawn", "hum", "geo",  "ary", "sam", "aa",   "bol",  "urd", "u",
                            "pak",  "ist", "tan",  "la",  "hore", "kar", "achi", "mul", "tan"};

const char* kWords[] = {
    "the",     "of",      "and",      "in",      "for",     "on",       "with",    "new",
    "today",   "latest",  "report",   "update",  "minister", "cricket", "match",   "team",
    "price",   "market",  "rupee",    "city",    "lahore",  "karachi",  "islamabad", "punjab",
    "sindh",   "education", "students", "exam",  "result",  "board",    "university", "college",
    "weather", "monsoon", "electricity", "power", "water",  "gas",      "petrol",  "tax",
    "budget",  "economy", "trade",    "export",  "cotton",  "wheat",    "mango",   "festival",
    "eid",     "ramzan",  "series",   "wicket",  "batsman", "bowler",   "captain", "stadium",
    "sale",    "offer",   "discount", "mobile",  "online",  "delivery", "order",   "brand",
    "admission", "scholarship", "degree", "campus", "teacher", "policy", "court",  "ruling",
    "assembly", "senate", "election", "votes",   "party",   "leader",   "speech",  "visit"};

std::string make_word(Rng& rng) {
  if (rng.bernoulli(0.7)) {
    return kWords[rng.uniform_int(std::size(kWords))];
  }
  std::string w;
  const int n = 2 + static_cast<int>(rng.uniform_int(2));
  for (int i = 0; i < n; ++i) w += kSyllables[rng.uniform_int(std::size(kSyllables))];
  return w;
}

std::string make_sentence(Rng& rng, int words) {
  std::string s;
  for (int i = 0; i < words; ++i) {
    std::string w = make_word(rng);
    if (i == 0 && !w.empty()) w[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(w[0])));
    if (i) s += ' ';
    s += w;
  }
  s += '.';
  return s;
}

std::string make_paragraph(Rng& rng, int sentences) {
  std::string p;
  for (int i = 0; i < sentences; ++i) {
    if (i) p += ' ';
    p += make_sentence(rng, 6 + static_cast<int>(rng.uniform_int(12)));
  }
  return p;
}

std::string make_headline(Rng& rng) {
  std::string h;
  const int n = 4 + static_cast<int>(rng.uniform_int(6));
  for (int i = 0; i < n; ++i) {
    std::string w = make_word(rng);
    if (!w.empty()) w[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(w[0])));
    if (i) h += ' ';
    h += w;
  }
  return h;
}

struct CategoryProfile {
  int min_paragraphs, max_paragraphs;  // landing page
  int min_images, max_images;
  double churn_base;    // per-hour change probability (landing)
  const char* banner_color;
};

CategoryProfile profile(SiteCategory cat) {
  // Paragraph/image ranges calibrated so the rendered 1080-px Q10 size
  // distribution matches Fig. 4(b): most pages < 200 KB, tails to ~500 KB.
  switch (cat) {
    case SiteCategory::kNews: return {80, 200, 10, 24, 0.85, "#163a8a"};
    case SiteCategory::kSports: return {65, 165, 10, 21, 0.6, "#0a6e2c"};
    case SiteCategory::kShopping: return {70, 180, 15, 32, 0.35, "#8a1620"};
    case SiteCategory::kEducation: return {32, 100, 4, 10, 0.08, "#5a3a8a"};
    case SiteCategory::kGovernment: return {24, 80, 3, 7, 0.03, "#3a3a3a"};
  }
  return {32, 100, 5, 10, 0.2, "#333333"};
}

// Morning peak factor for churn (Fig. 4(c)'s daily pattern: popular news
// pushed early in the morning, §3.1).
double hour_factor(int epoch_hours) {
  const int hod = epoch_hours % 24;
  if (hod >= 5 && hod <= 10) return 1.3;
  if (hod >= 23 || hod <= 3) return 0.4;
  return 1.0;
}

}  // namespace

const char* category_name(SiteCategory cat) {
  switch (cat) {
    case SiteCategory::kNews: return "news";
    case SiteCategory::kSports: return "sports";
    case SiteCategory::kShopping: return "shopping";
    case SiteCategory::kEducation: return "education";
    case SiteCategory::kGovernment: return "government";
  }
  return "?";
}

PkCorpus::PkCorpus() : PkCorpus(Params{}) {}

PkCorpus::PkCorpus(Params params) : params_(params) {
  Rng rng(params_.seed);
  for (int site = 0; site < params_.num_sites; ++site) {
    Rng site_rng = rng.fork(static_cast<std::uint64_t>(site) + 1);
    std::string domain;
    const int n = 2 + static_cast<int>(site_rng.uniform_int(2));
    for (int i = 0; i < n; ++i) domain += kSyllables[site_rng.uniform_int(std::size(kSyllables))];
    domain += site_rng.bernoulli(0.5) ? ".pk" : ".com.pk";
    domains_.push_back(domain);
    for (int page = 0; page <= kInternalPerSite; ++page) {
      PageRef ref;
      ref.site = site;
      ref.page = page;
      ref.url = domain + (page == 0 ? "/" : "/story-" + std::to_string(page));
      pages_.push_back(std::move(ref));
    }
  }
}

SiteCategory PkCorpus::category(int site) const {
  return static_cast<SiteCategory>(site % 5);
}

const PageRef* PkCorpus::find(const std::string& url) const {
  std::string needle = url;
  for (const char* prefix : {"https://", "http://", "www."}) {
    if (needle.rfind(prefix, 0) == 0) needle = needle.substr(std::string(prefix).size());
  }
  if (!needle.empty() && needle.back() != '/' && needle.find('/') == std::string::npos) needle += '/';
  for (const PageRef& ref : pages_) {
    if (ref.url == needle) return &ref;
  }
  return nullptr;
}

bool PkCorpus::changed_at(const PageRef& ref, int epoch_hours) const {
  if (epoch_hours <= 0) return true;
  const CategoryProfile prof = profile(category(ref.site));
  double churn = prof.churn_base * hour_factor(epoch_hours);
  if (!ref.landing()) churn *= 0.45;  // internal pages change less often
  Rng rng(params_.seed ^ (static_cast<std::uint64_t>(ref.site) << 32) ^
          (static_cast<std::uint64_t>(ref.page) << 24) ^ static_cast<std::uint64_t>(epoch_hours));
  return rng.bernoulli(std::min(churn, 0.98));
}

int PkCorpus::version(const PageRef& ref, int epoch_hours) const {
  int v = 0;
  for (int e = 0; e <= epoch_hours; ++e) v += changed_at(ref, e);
  return v;
}

std::string PkCorpus::html(const PageRef& ref, int epoch_hours) const {
  const SiteCategory cat = category(ref.site);
  const CategoryProfile prof = profile(cat);
  const int ver = version(ref, epoch_hours);
  Rng rng(params_.seed ^ (static_cast<std::uint64_t>(ref.site) * 0x100000001b3ull) ^
          (static_cast<std::uint64_t>(ref.page) << 40) ^ (static_cast<std::uint64_t>(ver) << 8));

  int paragraphs = prof.min_paragraphs +
                   static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(
                       prof.max_paragraphs - prof.min_paragraphs + 1)));
  int images = prof.min_images +
               static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(prof.max_images - prof.min_images + 1)));
  if (!ref.landing()) {
    paragraphs = paragraphs * 2 / 3;
    images = std::max(1, images / 2);
  }
  // A few pages are far longer than the rest: the CDF tails of Fig. 4(b).
  if (rng.bernoulli(0.06)) paragraphs *= 3;

  std::ostringstream os;
  os << "<html><body>";
  os << "<div bgcolor=\"" << prof.banner_color << "\"><h1 color=\"white\">" << domain(ref.site)
     << "</h1><p color=\"white\">" << category_name(cat) << " - edition " << ver << "</p></div>";
  // Navigation bar with internal links (the click-map workload).
  os << "<p>";
  for (int p = 0; p <= kInternalPerSite; ++p) {
    if (p == ref.page) continue;
    os << "<a href=\"" << domain(ref.site) << (p == 0 ? "/" : "/story-" + std::to_string(p))
       << "\">" << (p == 0 ? "home" : "section " + std::to_string(p)) << "</a> ";
  }
  os << "</p><hr/>";

  for (int i = 0; i < paragraphs; ++i) {
    if (i % 6 == 0) os << "<h2>" << make_headline(rng) << "</h2>";
    if (images > 0 && i % std::max(2, paragraphs / std::max(images, 1)) == 1) {
      const int w = 360 + static_cast<int>(rng.uniform_int(500));
      const int h = 200 + static_cast<int>(rng.uniform_int(260));
      os << "<img src=\"img-" << ref.site << "-" << i << "-" << ver << "\" width=\"" << w
         << "\" height=\"" << h << "\" alt=\"photo\"/>";
      --images;
    }
    // A third of the paragraphs are single-sentence blurbs: real pages are
    // mostly whitespace and short teasers, not walls of text.
    const int sentences = rng.bernoulli(0.35) ? 1 : 2 + static_cast<int>(rng.uniform_int(3));
    os << "<p>" << make_paragraph(rng, sentences) << "</p>";
    if (rng.bernoulli(0.25)) {
      os << "<p><a href=\"" << domain(ref.site) << "/story-"
         << 1 + rng.uniform_int(static_cast<std::uint64_t>(kInternalPerSite)) << "\">"
         << make_headline(rng) << "</a></p>";
    }
  }
  os << "<hr/><p>(c) " << domain(ref.site) << " - SONIC rendered edition</p>";
  os << "</body></html>";
  return os.str();
}

std::string PkCorpus::search_html(const std::string& query, int epoch_hours) const {
  std::uint64_t qhash = 14695981039346656037ull;
  for (char c : query) qhash = (qhash ^ static_cast<std::uint64_t>(c)) * 1099511628211ull;
  Rng rng(params_.seed ^ qhash ^ (static_cast<std::uint64_t>(epoch_hours / 6) << 8));

  std::ostringstream os;
  os << "<html><body>";
  os << "<div bgcolor=\"#20242c\"><h2 color=\"white\">SONIC search</h2>"
     << "<p color=\"white\">results for: " << query << "</p></div>";
  const int results = 6 + static_cast<int>(rng.uniform_int(5));
  for (int i = 0; i < results; ++i) {
    const auto& ref = pages_[rng.uniform_int(pages_.size())];
    os << "<h3><a href=\"" << ref.url << "\">" << make_headline(rng) << "</a></h3>";
    os << "<p>" << make_sentence(rng, 10 + static_cast<int>(rng.uniform_int(8))) << " "
       << make_sentence(rng, 8 + static_cast<int>(rng.uniform_int(8))) << "</p>";
  }
  os << "<hr/><p>results are broadcast; request any of them via SMS</p>";
  os << "</body></html>";
  return os.str();
}

}  // namespace sonic::web
