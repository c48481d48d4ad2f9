#include "engine/report_io.hpp"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "util/fault.hpp"
#include "util/parse.hpp"

namespace sepe::engine {
namespace {

// --- a minimal JSON value + recursive-descent parser ---
//
// Numbers keep their raw token: the report carries 64-bit seeds that a
// double round-trip would corrupt, so conversion happens at the field,
// where the target width is known.

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  std::string text;  // Number: raw token; String: decoded bytes
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }
};

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

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

  bool literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return fail("unexpected token");
    pos_ += len;
    return true;
  }

  bool parse_value(JsonValue* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    // Reports nest three levels deep; a corrupt file must not be able to
    // drive the recursion into a stack overflow.
    if (depth_ >= kMaxDepth) return fail("nesting too deep");
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': out->kind = JsonValue::Kind::String; return parse_string(&out->text);
      case 't':
        out->kind = JsonValue::Kind::Bool;
        out->boolean = true;
        return literal("true", 4);
      case 'f':
        out->kind = JsonValue::Kind::Bool;
        out->boolean = false;
        return literal("false", 5);
      case 'n': out->kind = JsonValue::Kind::Null; return literal("null", 4);
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    out->kind = JsonValue::Kind::Object;
    const DepthGuard guard(this);
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->fields.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out) {
    out->kind = JsonValue::Kind::Array;
    const DepthGuard guard(this);
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->items.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
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

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string* error_;
};

// --- field extraction ---

bool fail_field(std::string* error, const std::string& what) {
  if (error && error->empty()) *error = what;
  return false;
}

bool get_u64(const JsonValue& obj, const char* key, std::uint64_t* out,
             std::string* error, bool required = true) {
  const JsonValue* v = obj.find(key);
  if (!v) {
    if (!required) return true;
    return fail_field(error, std::string("missing field '") + key + "'");
  }
  std::optional<std::uint64_t> parsed;
  if (v->kind == JsonValue::Kind::Number) parsed = parse_u64_strict(v->text);
  if (!parsed)
    return fail_field(error,
                      std::string("field '") + key + "' is not an unsigned number");
  *out = *parsed;
  return true;
}

bool get_double(const JsonValue& obj, const char* key, double* out) {
  const JsonValue* v = obj.find(key);
  if (!v || v->kind != JsonValue::Kind::Number) return false;
  *out = std::strtod(v->text.c_str(), nullptr);
  return true;
}

const std::string* get_string(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v && v->kind == JsonValue::Kind::String ? &v->text : nullptr;
}

bool verdict_from_name(const std::string& name, Verdict* out) {
  for (Verdict v : {Verdict::Falsified, Verdict::Proved, Verdict::BoundClean,
                    Verdict::Unknown}) {
    if (name == verdict_name(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

/// The QED report dialect's two mode tags (engine::mode_tag). Kept as
/// literals so the reader stays decoupled from the QED module itself.
bool known_mode_tag(const std::string& tag) {
  return tag == "EDDI-V" || tag == "EDSEP-V";
}

bool parse_job(const JsonValue& obj, std::size_t position, JobResult* out,
               std::string* error) {
  if (obj.kind != JsonValue::Kind::Object)
    return fail_field(error, "jobs entry is not an object");
  const std::string* name = get_string(obj, "name");
  if (!name || name->empty())
    return fail_field(error, "jobs entry without a name");
  out->name = *name;

  const std::string* verdict = get_string(obj, "verdict");
  if (!verdict || !verdict_from_name(*verdict, &out->verdict))
    return fail_field(error, "job '" + out->name + "' has no valid verdict");

  std::uint64_t n = 0;
  // Provenance: non-QED rows carry workload/source/property columns;
  // QED rows keep the original dialect's "mode" column, which stays
  // strictly validated.
  if (const std::string* workload = get_string(obj, "workload")) {
    if (workload->empty() || *workload == kQedFamily)
      return fail_field(error, "job '" + out->name + "' has an invalid workload");
    out->provenance.family = *workload;
    out->provenance.mode.clear();
    if (const std::string* source = get_string(obj, "source"))
      out->provenance.source = *source;
    if (obj.find("property")) {
      if (!get_u64(obj, "property", &n, error)) return false;
      out->provenance.property = static_cast<unsigned>(n);
    }
  } else {
    const std::string* mode = get_string(obj, "mode");
    if (!mode || !known_mode_tag(*mode))
      return fail_field(error, "job '" + out->name + "' has no valid mode");
    out->provenance.family = kQedFamily;
    out->provenance.mode = *mode;
  }
  if (const std::string* note = get_string(obj, "error")) out->note = *note;

  out->spec_index = position;  // unsharded reports omit spec_index
  if (obj.find("spec_index")) {
    if (!get_u64(obj, "spec_index", &n, error)) return false;
    out->spec_index = static_cast<std::size_t>(n);
  }
  if (obj.find("trace_length")) {
    if (!get_u64(obj, "trace_length", &n, error)) return false;
    out->trace_length = static_cast<unsigned>(n);
  }
  if (obj.find("proved_k")) {
    if (!get_u64(obj, "proved_k", &n, error)) return false;
    out->proved_k = static_cast<unsigned>(n);
  }

  if (const std::string* label = get_string(obj, "bad_label")) out->bad_label = *label;
  // Timing and counter fields are skipped: every reader (merge,
  // perfbench) consumes only the stable fields above.
  return true;
}

}  // namespace

bool parse_report(const std::string& json, CampaignReport* out, std::string* error) {
  if (error) error->clear();
  JsonValue root;
  Parser parser(json, error);
  if (!parser.parse(&root)) return false;
  if (root.kind != JsonValue::Kind::Object)
    return fail_field(error, "report is not a JSON object");

  CampaignReport report;
  if (!get_u64(root, "seed", &report.seed, error)) return false;

  if (const JsonValue* shard = root.find("shard")) {
    if (shard->kind != JsonValue::Kind::Object)
      return fail_field(error, "'shard' is not an object");
    CampaignReport::ShardInfo info;
    std::uint64_t n = 0;
    if (!get_u64(*shard, "index", &n, error)) return false;
    info.shard.index = static_cast<unsigned>(n);
    if (!get_u64(*shard, "count", &n, error)) return false;
    info.shard.count = static_cast<unsigned>(n);
    if (!get_u64(*shard, "total_jobs", &info.total_jobs, error)) return false;
    const std::string* campaign = get_string(*shard, "campaign");
    if (!campaign || campaign->size() != 16 ||
        campaign->find_first_not_of("0123456789abcdef") != std::string::npos)
      return fail_field(error, "'shard' has no 16-hex-digit 'campaign' digest");
    info.campaign = *campaign;
    if (info.shard.count == 0 || info.shard.index >= info.shard.count)
      return fail_field(error, "'shard' index/count out of range");
    report.shard = info;
  }

  std::uint64_t threads = 0;
  if (!get_u64(root, "threads", &threads, error, /*required=*/false)) return false;
  report.threads = static_cast<unsigned>(threads);
  get_double(root, "wall_seconds", &report.wall_seconds);

  const JsonValue* jobs = root.find("jobs");
  if (!jobs || jobs->kind != JsonValue::Kind::Array)
    return fail_field(error, "missing 'jobs' array");
  report.jobs.resize(jobs->items.size());
  for (std::size_t i = 0; i < jobs->items.size(); ++i)
    if (!parse_job(jobs->items[i], i, &report.jobs[i], error)) return false;

  *out = std::move(report);
  return true;
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return buffer.str();
}

bool write_text_file_atomic(const std::string& path, const std::string& text,
                            const char* fault_point) {
  // Transient filesystem trouble (and the faults docs/ROBUSTNESS.md
  // injects through `fault_point`) gets a bounded retry with a short
  // deterministic backoff: a report that misses one beat still lands,
  // and only a *persistently* failing disk fails the write. The
  // temp-file + rename dance keeps readers from ever observing a torn
  // file: a short write only ever strands (and here removes) the .tmp,
  // never the published one.
  constexpr int kMaxAttempts = 3;
  const std::string tmp = path + ".tmp";
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    std::optional<fault::Action> injected;
    if (fault_point != nullptr && fault::armed()) injected = fault::hit(fault_point);
    bool ok = false;
    // Fail/enospc skip the write outright; torn/short write a truncated
    // temp file — the crash-mid-write window — which is then discarded.
    const bool writes_bytes =
        !injected || *injected == fault::Action::Torn ||
        *injected == fault::Action::Short;
    if (writes_bytes) {
      const std::size_t bytes = injected ? text.size() / 2 : text.size();
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (out) {
        out.write(text.data(), static_cast<std::streamsize>(bytes));
        out.flush();
        ok = static_cast<bool>(out) && !injected;
      }
    }
    if (ok && std::rename(tmp.c_str(), path.c_str()) == 0) return true;
    std::remove(tmp.c_str());
    if (attempt < kMaxAttempts)
      std::this_thread::sleep_for(std::chrono::milliseconds(5 << (attempt - 1)));
  }
  return false;
}

}  // namespace sepe::engine
