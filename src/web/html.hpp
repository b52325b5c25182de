// Minimal HTML parser for the SONIC rendering pipeline.
//
// The SONIC server loads webpages and renders them to images (§3.2); this
// parser accepts the tag subset the synthetic corpus and the examples use:
// structural (html, body, div, span), headings (h1..h3), text (p, br, hr),
// lists (ul, li), links (a href=...), and images (img src/width/height/alt).
// Unknown tags are kept as generic blocks so real-world-ish input degrades
// gracefully instead of failing.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace sonic::web {

struct Node {
  enum class Type { kElement, kText };
  Type type = Type::kElement;
  std::string tag;                           // lower-case, empty for text
  std::string text;                          // only for kText
  std::map<std::string, std::string> attrs;  // lower-case keys
  std::vector<Node> children;

  const std::string* attr(const std::string& key) const;
};

// Parses an HTML document; always succeeds, skipping malformed constructs.
// The returned node is a synthetic root element containing the top-level
// nodes.
Node parse_html(const std::string& html);

}  // namespace sonic::web
