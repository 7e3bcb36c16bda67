// Minimal JSON reader for the repo's own machine output (sweep JSON,
// bench rows, BENCH_history.json), and the append-only formatter the JSONL
// trace, span lines and the Perfetto export are written with.
//
// The emitters in this codebase produce a small, predictable dialect —
// objects, arrays, strings with basic escapes, finite numbers, booleans,
// null — and this parser covers exactly that (no comments, no NaN/Inf
// literals, no raw control bytes in strings, UTF-8 passed through
// verbatim). Objects preserve insertion
// order so rendered reports list fields the way the producer wrote them.
//
// Parse errors throw JsonParseError with a byte offset, which the CLI
// tools translate into "file:offset: message" diagnostics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lw::util {

class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t offset)
      : std::runtime_error(message), offset_(offset) {}
  /// Byte offset into the parsed text where the error was detected.
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// One parsed JSON value; a tagged tree. Cheap enough for the report
/// tooling's file-sized inputs (this is not a streaming parser).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses exactly one JSON document (trailing whitespace allowed,
  /// trailing garbage rejected). Throws JsonParseError.
  static JsonValue parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  /// Numbers are doubles: exact for every counter below 2^53, which covers
  /// all emitted values by a wide margin.
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  /// Object members in document order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Member lookup; null when absent or when this is not an object.
  const JsonValue* find(const std::string& key) const;
  /// find() that also requires the member to be a number; `fallback` when
  /// absent. The report tooling's main accessor.
  double number_or(const std::string& key, double fallback) const;
  /// find() for strings; `fallback` when absent.
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

// ---- Append-only formatting ----
//
// Every number goes through std::to_chars, which is locale-independent and
// allocation-free. Each helper is byte-identical to the printf conversion
// it names; tests/util/test_json_format.cpp checks that.

/// printf "%" PRIu64.
void append_uint(std::string& out, std::uint64_t value);
/// printf "%d".
void append_int(std::string& out, std::int64_t value);
/// printf "%.<precision>f" (precision 0..17). JSON has no literal for
/// infinities and NaN, so those are written as null.
void append_fixed(std::string& out, double value, int precision);
/// printf "%.<precision>g" (precision 1..17); non-finite values as null.
void append_general(std::string& out, double value, int precision);
/// JSON string body without the quotes: '"' and '\\' get a backslash,
/// bytes below 0x20 become \u00XX, everything else (UTF-8 included) is
/// copied verbatim.
void append_escaped(std::string& out, std::string_view text);
/// append_escaped wrapped in double quotes.
inline void append_quoted(std::string& out, std::string_view text) {
  out += '"';
  append_escaped(out, text);
  out += '"';
}

}  // namespace lw::util
