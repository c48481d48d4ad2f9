// json.hpp — the one JSON string escaper and the one JSON reader.
//
// Every writer (CampaignReport::to_json, whose timing form is also the
// counter guard's input, the verdict journal, witness artifacts) escapes
// free-form names and labels through json_escape, so they always escape
// identically and can never produce invalid JSON. Every reader of
// outside bytes — campaign reports, verdict-journal lines and their
// stimuli, witness artifacts — parses through parse_json and takes its
// fields from the tree. Sealed formats then accept a value only when
// their own writer renders it back to the identical bytes, so each
// format's grammar lives in its writer alone.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sepe {

inline void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// One parsed JSON value. Numbers keep their raw token: reports carry
/// 64-bit seeds that a double round trip would corrupt, so conversion
/// happens at the field, where the target width is known. [begin, end)
/// is the value's byte span in the parsed text, so a reader can keep a
/// value verbatim (the verdict journal's stimulus).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  std::string text;  // Number: raw token; String: decoded bytes
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;
  std::size_t begin = 0, end = 0;

  /// The first field named `key`; null when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// A Number whose token is a plain base-10 unsigned integer (no sign,
  /// fraction or exponent); nullopt otherwise.
  std::optional<std::uint64_t> as_uint() const;
};

/// Parse `text` as exactly one JSON value, with optional surrounding
/// whitespace. False with "<what> at byte N" in *error (when non-null)
/// on malformed input or nesting deeper than 64 levels.
bool parse_json(std::string_view text, JsonValue* out, std::string* error);

/// Field `key` of `obj` as a string; false when absent or not a string.
bool read_string(const JsonValue& obj, std::string_view key, std::string* out);

/// Field `key` of `obj` as an unsigned integer of type T; false when
/// absent, not a plain unsigned number, or outside T's range.
template <class T>
bool read_uint(const JsonValue& obj, std::string_view key, T* out) {
  const JsonValue* v = obj.find(key);
  const std::optional<std::uint64_t> n = v ? v->as_uint() : std::nullopt;
  if (!n || *n > std::numeric_limits<T>::max()) return false;
  *out = static_cast<T>(*n);
  return true;
}

}  // namespace sepe
