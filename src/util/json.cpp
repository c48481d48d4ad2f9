#include "util/json.hpp"

#include <cctype>

#include "util/parse.hpp"

namespace sepe {
namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing garbage after JSON value");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    if (error_ && error_->empty())
      *error_ = what + " at byte " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("unexpected token");
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    // A corrupt file must not be able to drive the recursion into a
    // stack overflow.
    if (depth_ >= kMaxDepth) return fail("nesting too deep");
    out->begin = pos_;
    bool ok = false;
    switch (text_[pos_]) {
      case '{': ok = parse_container(out, '}'); break;
      case '[': ok = parse_container(out, ']'); break;
      case '"':
        out->kind = JsonValue::Kind::String;
        ok = parse_string(&out->text);
        break;
      case 't':
      case 'f':
        out->kind = JsonValue::Kind::Bool;
        ok = literal(text_[pos_] == 't' ? "true" : "false");
        break;
      case 'n': ok = literal("null"); break;
      default: ok = parse_number(out);
    }
    out->end = pos_;
    return ok;
  }

  /// An object or an array, closed by `close`; an object's items are
  /// "key": value pairs.
  bool parse_container(JsonValue* out, char close) {
    const bool object = close == '}';
    out->kind = object ? JsonValue::Kind::Object : JsonValue::Kind::Array;
    const DepthGuard guard(this);
    ++pos_;  // '{' or '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (object) {
        if (pos_ >= text_.size() || text_[pos_] != '"')
          return fail("expected object key");
        if (!parse_string(&key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
        ++pos_;
        skip_ws();
      }
      JsonValue value;
      if (!parse_value(&value)) return false;
      if (object) {
        out->fields.emplace_back(std::move(key), std::move(value));
      } else {
        out->items.push_back(std::move(value));
      }
      skip_ws();
      if (pos_ >= text_.size())
        return fail(object ? "unterminated object" : "unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
      } else if (text_[pos_] == close) {
        ++pos_;
        return true;
      } else {
        return fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
      }
    }
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // The writer only emits \u for control bytes; encode the rest
          // of the BMP as UTF-8 for robustness.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    out->kind = JsonValue::Kind::Number;
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("unexpected token");
    out->text = text_.substr(start, pos_ - start);
    return true;
  }

  static constexpr int kMaxDepth = 64;
  struct DepthGuard {
    explicit DepthGuard(Parser* p) : parser(p) { ++parser->depth_; }
    ~DepthGuard() { --parser->depth_; }
    Parser* parser;
  };

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string* error_;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : fields)
    if (k == key) return &v;
  return nullptr;
}

std::optional<std::uint64_t> JsonValue::as_uint() const {
  return kind == Kind::Number ? parse_u64_strict(text) : std::nullopt;
}

bool parse_json(std::string_view text, JsonValue* out, std::string* error) {
  return Parser(text, error).parse(out);
}

bool read_string(const JsonValue& obj, std::string_view key, std::string* out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::String) return false;
  *out = v->text;
  return true;
}

}  // namespace sepe
