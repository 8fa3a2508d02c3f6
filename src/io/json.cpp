#include "io/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace mecsched::io {

bool Json::as_bool() const {
  if (!is_bool()) throw JsonError("not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) throw JsonError("not a number");
  return std::get<double>(value_);
}

std::size_t Json::as_index() const {
  const double v = as_number();
  if (!(v >= 0.0 && v <= 9007199254740992.0) || std::floor(v) != v) {
    throw JsonError("not an index (a non-negative integer <= 2^53): " +
                    std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

const std::string& Json::as_string() const {
  if (!is_string()) throw JsonError("not a string");
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  if (!is_array()) throw JsonError("not an array");
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  if (!is_object()) throw JsonError("not an object");
  return std::get<JsonObject>(value_);
}

JsonArray& Json::as_array() {
  if (!is_array()) throw JsonError("not an array");
  return std::get<JsonArray>(value_);
}

JsonObject& Json::as_object() {
  if (!is_object()) throw JsonError("not an object");
  return std::get<JsonObject>(value_);
}

const Json& Json::at(const std::string& key) const {
  const JsonObject& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("missing key: " + key);
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

double Json::number_or(const std::string& key, double fallback) const {
  if (!contains(key)) return fallback;
  return at(key).as_number();
}

std::size_t Json::index_or(const std::string& key,
                           std::size_t fallback) const {
  if (!contains(key)) return fallback;
  return at(key).as_index();
}

namespace {

void escape_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through
        }
    }
  }
  out += '"';
}

void append_number(double d, std::string& out) {
  if (!std::isfinite(d)) throw JsonError("JSON cannot represent NaN/Inf");
  if (d == static_cast<double>(static_cast<long long>(d)) &&
      std::fabs(d) < 1e15) {
    out += std::to_string(static_cast<long long>(d));
    return;
  }
  std::ostringstream os;
  os.precision(17);
  os << d;
  out += os.str();
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    append_number(as_number(), out);
  } else if (is_string()) {
    escape_string(as_string(), out);
  } else if (is_array()) {
    const JsonArray& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i != 0) out += ',';
      newline_indent(out, indent, depth + 1);
      arr[i].dump_to(out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out += ']';
  } else {
    const JsonObject& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) out += ',';
      first = false;
      newline_indent(out, indent, depth + 1);
      escape_string(key, out);
      out += indent > 0 ? ": " : ":";
      value.dump_to(out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  void expect_keyword(const char* kw) {
    for (const char* p = kw; *p; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        expect_keyword("true");
        return Json(true);
      case 'f':
        expect_keyword("false");
        return Json(false);
      case 'n':
        expect_keyword("null");
        return Json(nullptr);
      default:
        return parse_number();
    }
  }

  // Recursive descent: containers deeper than this are rejected instead of
  // risking a stack overflow (frames are much larger under sanitizers).
  static constexpr std::size_t kMaxDepth = 512;

  Json parse_object() {
    const DepthGuard guard(this);
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      take();
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    const DepthGuard guard(this);
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      take();
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = take();
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // high surrogate: require the low half
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired surrogate");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(code, out);
          break;
        }
        default:
          fail("bad escape");
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v += static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v += static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v += static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return v;
  }

  static void append_utf8(unsigned code, std::string& out) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') take();
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      const double v = std::stod(token, &used);
      if (used != token.size()) fail("invalid number: " + token);
      return Json(v);
    } catch (const std::logic_error&) {
      fail("invalid number: " + token);
    }
  }

  struct DepthGuard {
    explicit DepthGuard(Parser* p) : parser(p) {
      if (++parser->depth_ > kMaxDepth) {
        parser->fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
    }
    ~DepthGuard() { --parser->depth_; }
    Parser* parser;
  };

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace mecsched::io
