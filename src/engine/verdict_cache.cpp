#include "engine/verdict_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/digest.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

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
  std::uint64_t h = fnv1a({});
  const auto mix_u64 = [&](std::uint64_t v) {
    char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<char>(v >> (8 * i));
    h = fnv1a({le, sizeof le}, h);
  };
  const auto mix_string = [&](const std::string& s) {
    mix_u64(s.size());
    h = fnv1a(s, h);
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
  const char pg = job.budget.plaisted_greenbaum.value_or(false) ? 1 : 0;
  h = fnv1a({&pg, 1}, h);
  // The memory ceiling changes what a job can conclude (campaign.hpp), so
  // capped and uncapped runs must never share a cache slot.
  mix_u64(job.budget.memory_limit_mb);
  return hex16(h);
}

std::string VerdictCache::campaign_digest(const CampaignSpec& spec,
                                          const std::string& fingerprint) {
  std::uint64_t h = fnv1a({});
  for (const JobSpec& job : spec.jobs) h = fnv1a(key_of(job, fingerprint), h);
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
  // Journaled verbatim: the cache never interprets the stimulus
  // (witness.hpp owns its grammar).
  if (!e.stimulus.empty()) os << ",\"stimulus\":" << e.stimulus;
  const std::string payload = os.str();
  return payload + ",\"check\":\"" + hex16(fnv1a(payload)) + "\"}";
}

std::optional<std::pair<std::string, VerdictCache::Entry>> VerdictCache::parse_line(
    const std::string& line) {
  JsonValue root;
  std::string key, verdict;
  Entry e;
  if (!parse_json(line, &root, nullptr) || !read_string(root, "key", &key) ||
      key.size() != 16 || !read_string(root, "verdict", &verdict) ||
      !read_uint(root, "trace_length", &e.trace_length) ||
      !read_uint(root, "proved_k", &e.proved_k) ||
      !read_string(root, "bad_label", &e.bad_label) ||
      !read_string(root, "note", &e.note))
    return std::nullopt;
  const std::optional<Verdict> v = parse_verdict(verdict);
  if (!v) return std::nullopt;
  e.verdict = *v;
  // Only a FALSIFIED line may carry a stimulus; its bytes are kept as is.
  if (const JsonValue* stimulus = root.find("stimulus")) {
    if (e.verdict != Verdict::Falsified) return std::nullopt;
    e.stimulus = line.substr(stimulus->begin, stimulus->end - stimulus->begin);
  }
  // Accept only the writer's exact bytes. Rendering what was read covers
  // the version, the field order and the "check" seal: a truncated,
  // edited or torn line, or one from another format version, is corrupt.
  if (format_line(key, e) != line) return std::nullopt;
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
                   "(truncated, edited or torn: not its writer's bytes)\n",
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
