#include "util/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace lw::util {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(message, pos_);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string_value();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value;
    value.kind_ = JsonValue::Kind::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string_text();
      skip_whitespace();
      expect(':');
      value.members_.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return value;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value;
    value.kind_ = JsonValue::Kind::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items_.push_back(parse_value());
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return value;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string_text() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          // append_escaped writes \u00XX for control bytes; decode the
          // BMP subset so those and foreign ASCII-range escapes round-trip.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) fail("bad \\u escape");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_string_value() {
    JsonValue value;
    value.kind_ = JsonValue::Kind::kString;
    value.string_ = parse_string_text();
    return value;
  }

  JsonValue parse_bool() {
    JsonValue value;
    value.kind_ = JsonValue::Kind::kBool;
    if (consume_literal("true")) {
      value.bool_ = true;
    } else if (consume_literal("false")) {
      value.bool_ = false;
    } else {
      fail("bad literal");
    }
    return value;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        digits = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("bad number");
    }
    JsonValue value;
    value.kind_ = JsonValue::Kind::kNumber;
    value.number_ = parsed;
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* value = find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* value = find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : fallback;
}

}  // namespace lw::util

namespace lw::util {
namespace {

template <typename... Format>
void append_chars(std::string& out, Format... format) {
  // Widest case: a fixed double near DBL_MAX (309 integer digits) with 17
  // decimals, plus sign and point.
  char buffer[352];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), format...);
  assert(result.ec == std::errc{});
  out.append(buffer, static_cast<std::size_t>(result.ptr - buffer));
}

}  // namespace

void append_uint(std::string& out, std::uint64_t value) {
  append_chars(out, value);
}

void append_int(std::string& out, std::int64_t value) {
  append_chars(out, value);
}

void append_fixed(std::string& out, double value, int precision) {
  assert(precision >= 0 && precision <= 17);
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  append_chars(out, value, std::chars_format::fixed, precision);
}

void append_general(std::string& out, double value, int precision) {
  assert(precision >= 1 && precision <= 17);
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  append_chars(out, value, std::chars_format::general, precision);
}

void append_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t clean = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + clean, i - clean);
    clean = i + 1;
    if (c < 0x20) {
      const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
      out.append(escape, sizeof(escape));
    } else {
      out += '\\';
      out += static_cast<char>(c);
    }
  }
  out.append(text.data() + clean, text.size() - clean);
}

}  // namespace lw::util
