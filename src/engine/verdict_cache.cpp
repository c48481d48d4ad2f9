#include "engine/verdict_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace sepe::engine {

namespace {

/// Bump whenever the key derivation or the line layout changes, so
/// entries written by an older binary become unreachable instead of
/// misread. v2: the per-job
/// memory ceiling (JobBudget::memory_limit_mb) joined the key — a
/// memory-capped Unknown must never be replayed as an uncapped verdict
/// (or vice versa). v3: the learnt-clause sharing width joined the key.
/// v4: the portfolio and sharing widths left it again, together with
/// the mechanisms themselves. v5: FALSIFIED lines carry the
/// counterexample stimulus, so a warm check replays it instead of
/// re-solving the job. v6: the race and sequential-prover flags left the
/// key, and --bound became the falsification horizon (k-induction no
/// longer falsifies past it), so a v5 verdict may mean something else.
/// v7: the SAT-engine byte left the key with the subprocess backend.
constexpr int kFormatVersion = 7;

std::uint64_t fnv1a(const char* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Inverse of sepe::json_escape for the exact dialect it emits (plus the
/// standard short escapes, for forward compatibility). Returns false on
/// malformed input — a hand-edited line that de-syncs the quoting.
bool unescape(const std::string& s, std::size_t* pos, std::string* out) {
  std::size_t i = *pos;
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  out->clear();
  while (i < s.size()) {
    const char c = s[i++];
    if (c == '"') {
      *pos = i;
      return true;
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (i >= s.size()) return false;
    const char esc = s[i++];
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
        if (i + 4 > s.size()) return false;
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = s[i++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        if (code > 0x7f) return false;  // the writer only escapes control bytes
        out->push_back(static_cast<char>(code));
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated string
}

/// Positional scanner over a journal-line payload. The self-check digest
/// already guarantees the bytes are exactly what format_line emitted, so
/// the scan is strict: any deviation is corruption, not dialect drift.
struct Scanner {
  const std::string& s;
  std::size_t pos = 0;

  bool expect(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s.compare(pos, n, lit) != 0) return false;
    pos += n;
    return true;
  }
  bool string_field(const char* name, std::string* out) {
    return expect(",\"") && expect(name) && expect("\":") && unescape(s, &pos, out);
  }
  bool u64_field(const char* name, std::uint64_t* out) {
    if (!expect(",\"") || !expect(name) || !expect("\":")) return false;
    const std::size_t start = pos;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos;
    const auto v = parse_u64_strict(s.substr(start, pos - start));
    if (!v) return false;
    *out = *v;
    return true;
  }
};

bool verdict_by_name(const std::string& name, Verdict* out) {
  for (Verdict v : {Verdict::Falsified, Verdict::Proved, Verdict::BoundClean,
                    Verdict::Unknown}) {
    if (name == verdict_name(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string VerdictCache::journal_path(const std::string& dir) {
  return dir + "/verdicts.jsonl";
}

bool VerdictCache::cacheable(const JobSpec& job) {
  // Wall-capped verdicts depend on machine load (campaign.hpp's
  // determinism caveat); replaying one would present a load-dependent
  // answer as reproducible. Everything else — conflict budgets, bounds,
  // encoding — is deterministic and safe to reuse.
  return job.budget.max_seconds <= 0.0;
}

std::string VerdictCache::key_of(const JobSpec& job, const std::string& fingerprint) {
  // FNV-1a over everything that determines the job's verdict, with the
  // encoding tri-state *resolved*: nullopt and an explicit request for
  // the family default blast identically, so they share verdicts.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix_byte = [&](unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  const auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  const auto mix_string = [&](const std::string& s) {
    mix_u64(s.size());
    for (char c : s) mix_byte(static_cast<unsigned char>(c));
  };
  mix_string("sepe-verdict-v" + std::to_string(kFormatVersion));
  mix_string(fingerprint);
  mix_string(job.name);
  mix_string(job.provenance.family);
  mix_string(job.provenance.source);
  mix_u64(job.provenance.property);
  mix_string(job.provenance.content_digest);
  mix_string(job.provenance.mode);
  mix_u64(job.budget.max_bound);
  mix_u64(job.budget.max_k);
  mix_u64(job.budget.conflict_budget);
  // max_seconds deliberately not mixed: cacheable() refuses wall-capped
  // jobs outright, so every cached job has max_seconds == 0.
  mix_byte(job.budget.plaisted_greenbaum.value_or(false) ? 1 : 0);
  // The memory ceiling changes what a job can conclude (campaign.hpp), so
  // capped and uncapped runs must never share a cache slot.
  mix_u64(job.budget.memory_limit_mb);
  return hex16(h);
}

std::string VerdictCache::campaign_digest(const CampaignSpec& spec,
                                          const std::string& fingerprint) {
  std::uint64_t h = fnv1a("", 0);
  for (const JobSpec& job : spec.jobs) {
    const std::string key = key_of(job, fingerprint);
    h = fnv1a(key.data(), key.size(), h);
  }
  return hex16(h);
}

std::string VerdictCache::format_line(const std::string& key, const Entry& e) {
  std::ostringstream os;
  os << "{\"v\":" << kFormatVersion;
  os << ",\"key\":\"" << key << "\"";
  os << ",\"verdict\":\"" << verdict_name(e.verdict) << "\"";
  os << ",\"trace_length\":" << e.trace_length;
  os << ",\"proved_k\":" << e.proved_k;
  os << ",\"bad_label\":";
  json_escape(os, e.bad_label);
  os << ",\"note\":";
  json_escape(os, e.note);
  // Last, so the reader can take it verbatim: the cache never interprets
  // the stimulus (witness.hpp owns its grammar).
  if (!e.stimulus.empty()) os << ",\"stimulus\":" << e.stimulus;
  const std::string payload = os.str();
  const std::string check = hex16(fnv1a(payload.data(), payload.size()));
  return payload + ",\"check\":\"" + check + "\"}";
}

std::optional<std::pair<std::string, VerdictCache::Entry>> VerdictCache::parse_line(
    const std::string& line) {
  // Split off the trailing self-check. rfind, not find: an escaped note
  // could legitimately contain the delimiter bytes, the real check field
  // is always last.
  static constexpr char kCheck[] = ",\"check\":\"";
  constexpr std::size_t kCheckLen = sizeof kCheck - 1;
  const std::size_t at = line.rfind(kCheck);
  if (at == std::string::npos || line.size() != at + kCheckLen + 16 + 2 ||
      line.compare(line.size() - 2, 2, "\"}") != 0)
    return std::nullopt;
  const std::string recorded = line.substr(at + kCheckLen, 16);
  if (recorded != hex16(fnv1a(line.data(), at))) return std::nullopt;

  // The digest matched, so the payload is byte-exact format_line output;
  // parse it positionally and treat any surprise as corruption.
  const std::string payload = line.substr(0, at);
  Scanner sc{payload};
  std::uint64_t n = 0;
  std::string key, verdict;
  Entry e;
  if (!sc.expect("{\"v\":") ||
      !sc.expect(std::to_string(kFormatVersion).c_str()) ||
      !sc.string_field("key", &key) || key.size() != 16 ||
      !sc.string_field("verdict", &verdict) || !verdict_by_name(verdict, &e.verdict) ||
      !sc.u64_field("trace_length", &n))
    return std::nullopt;
  e.trace_length = static_cast<unsigned>(n);
  if (!sc.u64_field("proved_k", &n)) return std::nullopt;
  e.proved_k = static_cast<unsigned>(n);
  if (!sc.string_field("bad_label", &e.bad_label) || !sc.string_field("note", &e.note))
    return std::nullopt;
  // Only a FALSIFIED line may carry a stimulus, and it runs to the end.
  if (e.verdict == Verdict::Falsified && sc.expect(",\"stimulus\":")) {
    if (sc.pos == payload.size()) return std::nullopt;
    e.stimulus = payload.substr(sc.pos);
  } else if (sc.pos != payload.size()) {
    return std::nullopt;
  }
  return std::make_pair(std::move(key), std::move(e));
}

std::unique_ptr<VerdictCache> VerdictCache::open(const std::string& dir,
                                                 std::string* error) {
  if (error) error->clear();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error)
      *error = "cannot create cache directory '" + dir + "': " + ec.message();
    return nullptr;
  }

  std::unique_ptr<VerdictCache> cache(new VerdictCache());
  cache->path_ = journal_path(dir);

  std::ifstream in(cache->path_, std::ios::binary);
  if (!in) {
    if (!std::filesystem::exists(cache->path_, ec)) return cache;  // no journal yet
    // A concurrent writer sharing the directory (another shard process)
    // may have created the journal since the open failed: try once more
    // before calling it unreadable.
    in.open(cache->path_, std::ios::binary);
    if (!in) {
      if (error) *error = "cannot read cache journal '" + cache->path_ + "'";
      return nullptr;
    }
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto parsed = parse_line(line);
    if (!parsed) {
      // Corruption can only cost a miss, never a wrong verdict: the line
      // is diagnosed and dropped, and the slot will be re-solved (and
      // re-appended) by the run it would have served.
      std::fprintf(stderr,
                   "sepe: verdict cache: ignoring corrupt entry at %s:%zu "
                   "(self-check digest mismatch or truncated line)\n",
                   cache->path_.c_str(), lineno);
      ++cache->stats_.corrupt_lines;
      continue;
    }
    // Later entries win; duplicates are harmless (same key => same
    // verdict by construction, modulo which run appended first).
    cache->map_[parsed->first] = std::move(parsed->second);
    ++cache->stats_.entries_loaded;
  }
  return cache;
}

std::optional<VerdictCache::Entry> VerdictCache::lookup(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  ++stats_.hits;
  return it->second;
}

void VerdictCache::append(const std::string& key, const Entry& e) {
  const std::string line = format_line(key, e) + "\n";
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, fresh] = map_.try_emplace(key, e);
  if (!fresh) {
    // Already journaled — unless run_sharded re-solved an unservable
    // entry; the new line supersedes it (later lines win on load).
    if (it->second.servable() || !e.servable()) return;
    it->second = e;
  }
  ++stats_.appends;
  // Fault point "cache.append" (docs/ROBUSTNESS.md): torn truncates the
  // entry mid-line — the self-check digest catches it on the next load,
  // so injection exercises exactly the crash-mid-write window; fail and
  // enospc drop the write and take the diagnosed degraded path.
  std::size_t bytes = line.size();
  bool injected_failure = false;
  if (fault::armed()) {
    if (const auto action = fault::hit("cache.append")) {
      if (*action == fault::Action::Torn)
        bytes = line.size() / 2;
      else
        injected_failure = true;
    }
  }
  // One O_APPEND write per line: concurrent campaigns sharing the cache
  // directory (shard processes) interleave whole entries, and a torn
  // final line from a crash fails its self-check and costs one miss.
  const int fd =
      injected_failure ? -1 : ::open(path_.c_str(), O_RDWR | O_APPEND | O_CREAT, 0644);
  bool ok = fd >= 0;
  if (ok) {
    // Start on a fresh line even when a torn write (from this process or
    // another) left a fragment without its newline: appended onto the
    // fragment's line, this entry would fail its self-check too. A blank
    // line that a racing appender leaves instead is skipped on load.
    struct stat st {};
    char last = '\n';
    if (::fstat(fd, &st) == 0 && st.st_size > 0 &&
        ::pread(fd, &last, 1, st.st_size - 1) != 1)
      last = '\n';
    std::string out;
    if (last != '\n') out += '\n';
    out.append(line, 0, bytes);
    ok = ::write(fd, out.data(), out.size()) == static_cast<ssize_t>(out.size()) &&
         bytes == line.size();
    ::close(fd);
  }
  // Later appends may still land, so only this entry is lost: it costs a
  // miss and a re-solve on the next run, never a wrong verdict.
  if (!ok)
    std::fprintf(stderr,
                 "sepe: verdict cache: cannot append to '%s'; the entry for "
                 "key %s was not persisted\n",
                 path_.c_str(), key.c_str());
}

VerdictCache::Stats VerdictCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace sepe::engine
