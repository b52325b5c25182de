#include "web/html.hpp"

#include <algorithm>
#include <cctype>

namespace sonic::web {
namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool is_void_tag(const std::string& tag) {
  return tag == "img" || tag == "br" || tag == "hr" || tag == "meta" || tag == "link" ||
         tag == "input";
}

struct Parser {
  const std::string& src;
  std::size_t pos = 0;

  bool eof() const { return pos >= src.size(); }
  char peek() const { return src[pos]; }

  void skip_until(const std::string& needle) {
    const auto at = src.find(needle, pos);
    pos = at == std::string::npos ? src.size() : at + needle.size();
  }

  // Parses a tag at '<'. Returns the element name, attributes, and whether
  // it is a closing or self-closing tag.
  struct Tag {
    std::string name;
    std::map<std::string, std::string> attrs;
    bool closing = false;
    bool self_closing = false;
    bool valid = false;
  };

  Tag parse_tag() {
    Tag tag;
    ++pos;  // '<'
    if (!eof() && peek() == '/') {
      tag.closing = true;
      ++pos;
    }
    std::string name;
    while (!eof() && (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '!')) {
      name.push_back(peek());
      ++pos;
    }
    if (name.empty()) {
      // Stray '<': treat as text by the caller.
      return tag;
    }
    tag.name = to_lower(name);
    if (!name.empty() && name[0] == '!') {  // <!DOCTYPE ...> / <!-- ... -->
      if (src.compare(pos - name.size(), 3, "!--") == 0) {
        skip_until("-->");
      } else {
        skip_until(">");
      }
      tag.name.clear();
      return tag;
    }
    // Attributes.
    while (!eof() && peek() != '>' && peek() != '/') {
      while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos;
      if (eof() || peek() == '>' || peek() == '/') break;
      std::string key;
      while (!eof() && peek() != '=' && peek() != '>' && peek() != '/' &&
             !std::isspace(static_cast<unsigned char>(peek()))) {
        key.push_back(peek());
        ++pos;
      }
      std::string value;
      while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos;
      if (!eof() && peek() == '=') {
        ++pos;
        while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos;
        if (!eof() && (peek() == '"' || peek() == '\'')) {
          const char quote = peek();
          ++pos;
          while (!eof() && peek() != quote) {
            value.push_back(peek());
            ++pos;
          }
          if (!eof()) ++pos;
        } else {
          while (!eof() && peek() != '>' && !std::isspace(static_cast<unsigned char>(peek()))) {
            value.push_back(peek());
            ++pos;
          }
        }
      }
      if (!key.empty()) tag.attrs[to_lower(key)] = value;
    }
    if (!eof() && peek() == '/') {
      tag.self_closing = true;
      ++pos;
    }
    if (!eof() && peek() == '>') ++pos;
    tag.valid = true;
    return tag;
  }

  void parse_children(Node& parent, const std::string& enclosing_tag) {
    while (!eof()) {
      if (peek() == '<') {
        const std::size_t tag_start = pos;
        Tag tag = parse_tag();
        if (tag.name.empty() && !tag.closing) {
          if (!tag.valid && tag_start == pos - 1) {
            // Stray '<' consumed; emit it as text.
            Node text;
            text.type = Node::Type::kText;
            text.text = "<";
            parent.children.push_back(std::move(text));
          }
          continue;  // comment/doctype or stray
        }
        if (tag.closing) {
          if (tag.name == enclosing_tag) return;
          // Mismatched close: ignore (lenient).
          continue;
        }
        if (tag.name == "script" || tag.name == "style") {
          skip_until("</" + tag.name);
          skip_until(">");
          continue;
        }
        Node elem;
        elem.type = Node::Type::kElement;
        elem.tag = tag.name;
        elem.attrs = std::move(tag.attrs);
        if (!tag.self_closing && !is_void_tag(tag.name)) {
          parse_children(elem, tag.name);
        }
        parent.children.push_back(std::move(elem));
      } else {
        std::string text;
        while (!eof() && peek() != '<') {
          text.push_back(peek());
          ++pos;
        }
        // Collapse whitespace runs as browsers do.
        std::string collapsed;
        bool in_space = false;
        for (char c : text) {
          if (std::isspace(static_cast<unsigned char>(c))) {
            if (!in_space && !collapsed.empty()) collapsed.push_back(' ');
            in_space = true;
          } else {
            collapsed.push_back(c);
            in_space = false;
          }
        }
        if (!collapsed.empty() && collapsed != " ") {
          Node node;
          node.type = Node::Type::kText;
          node.text = std::move(collapsed);
          parent.children.push_back(std::move(node));
        }
      }
    }
  }
};

}  // namespace

const std::string* Node::attr(const std::string& key) const {
  const auto it = attrs.find(key);
  return it == attrs.end() ? nullptr : &it->second;
}

Node parse_html(const std::string& html) {
  Node root;
  root.type = Node::Type::kElement;
  root.tag = "#root";
  Parser parser{html};
  parser.parse_children(root, "#root");
  return root;
}

}  // namespace sonic::web
