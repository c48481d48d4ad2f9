#include "engine/report_io.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "util/fault.hpp"
#include "util/json.hpp"

namespace sepe::engine {
namespace {

bool fail_field(std::string* error, const std::string& what) {
  if (error && error->empty()) *error = what;
  return false;
}

/// Field `key` as an unsigned T, diagnosed: missing (unless optional, when
/// *out keeps its value), not an unsigned number, or above T's range.
template <class T>
bool get_uint(const JsonValue& obj, const char* key, T* out, std::string* error,
              bool required = true) {
  const JsonValue* v = obj.find(key);
  if (!v)
    return !required || fail_field(error, std::string("missing field '") + key + "'");
  const std::optional<std::uint64_t> n = v->as_uint();
  if (!n)
    return fail_field(error,
                      std::string("field '") + key + "' is not an unsigned number");
  if (*n > std::numeric_limits<T>::max())
    return fail_field(error, std::string("field '") + key + "' is out of range");
  *out = static_cast<T>(*n);
  return true;
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
  if (!read_string(obj, "name", &out->name) || out->name.empty())
    return fail_field(error, "jobs entry without a name");

  std::string verdict;
  read_string(obj, "verdict", &verdict);
  const std::optional<Verdict> parsed = parse_verdict(verdict);
  if (!parsed) return fail_field(error, "job '" + out->name + "' has no valid verdict");
  out->verdict = *parsed;

  // Provenance: non-QED rows carry workload/source/property columns;
  // QED rows keep the original dialect's "mode" column, which stays
  // strictly validated.
  JobProvenance& provenance = out->provenance;
  if (read_string(obj, "workload", &provenance.family)) {
    if (provenance.family.empty() || provenance.family == kQedFamily)
      return fail_field(error, "job '" + out->name + "' has an invalid workload");
    provenance.mode.clear();
    read_string(obj, "source", &provenance.source);  // optional
    if (!get_uint(obj, "property", &provenance.property, error, false)) return false;
  } else {
    if (!read_string(obj, "mode", &provenance.mode) || !known_mode_tag(provenance.mode))
      return fail_field(error, "job '" + out->name + "' has no valid mode");
    provenance.family = kQedFamily;
  }
  read_string(obj, "error", &out->note);  // optional

  out->spec_index = position;  // unsharded reports omit spec_index
  if (!get_uint(obj, "spec_index", &out->spec_index, error, false) ||
      !get_uint(obj, "trace_length", &out->trace_length, error, false) ||
      !get_uint(obj, "proved_k", &out->proved_k, error, false))
    return false;

  read_string(obj, "bad_label", &out->bad_label);  // optional
  // Timing and counter fields are skipped: every reader (merge,
  // perfbench) consumes only the stable fields above.
  return true;
}

}  // namespace

bool parse_report(const std::string& json, CampaignReport* out, std::string* error) {
  if (error) error->clear();
  JsonValue root;
  if (!parse_json(json, &root, error)) return false;
  if (root.kind != JsonValue::Kind::Object)
    return fail_field(error, "report is not a JSON object");

  CampaignReport report;
  if (!get_uint(root, "seed", &report.seed, error)) return false;

  if (const JsonValue* shard = root.find("shard")) {
    if (shard->kind != JsonValue::Kind::Object)
      return fail_field(error, "'shard' is not an object");
    CampaignReport::ShardInfo info;
    if (!get_uint(*shard, "index", &info.shard.index, error) ||
        !get_uint(*shard, "count", &info.shard.count, error) ||
        !get_uint(*shard, "total_jobs", &info.total_jobs, error))
      return false;
    if (!read_string(*shard, "campaign", &info.campaign) || info.campaign.size() != 16 ||
        info.campaign.find_first_not_of("0123456789abcdef") != std::string::npos)
      return fail_field(error, "'shard' has no 16-hex-digit 'campaign' digest");
    if (info.shard.count == 0 || info.shard.index >= info.shard.count)
      return fail_field(error, "'shard' index/count out of range");
    report.shard = info;
  }

  if (!get_uint(root, "threads", &report.threads, error, /*required=*/false))
    return false;
  if (const JsonValue* wall = root.find("wall_seconds");
      wall && wall->kind == JsonValue::Kind::Number)
    report.wall_seconds = std::strtod(wall->text.c_str(), nullptr);

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
