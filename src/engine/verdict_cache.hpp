// verdict_cache.hpp — persistent cross-campaign verdict cache.
//
// The second level of the campaign cache (the in-process first level is
// smt/cone_cache.hpp): verdict-bearing job results keyed by a content
// digest of everything that determines them, persisted in an on-disk
// journal so a re-run, a dispatcher retry, or an overlapping campaign
// skips already-solved frontiers entirely. This generalizes the PR-2
// frontier checkpoint across jobs *and* campaigns: a checkpoint resumes
// one shard of one campaign, the verdict cache serves any campaign whose
// jobs digest to the same keys.
//
// Key: a 64-bit FNV-1a digest (16 hex digits) over a format-version tag,
// the caller's fingerprint (sepe-run's xlen/modes or workload=btor2),
// the full job provenance (family, source, property index, per-file
// content digest, QED mode), the job name, and every budget knob with
// the encoding *resolved* (the tri-state plaisted_greenbaum collapses to
// the encoding the job actually runs). Anything that could change the
// verdict changes the key, so stale entries are unreachable rather than
// refused — unlike a checkpoint, the cache never rejects a run.
//
// Refusal rules (what is never cached):
//   * jobs with a wall-clock cap (max_seconds > 0): wall-capped verdicts
//     vary with machine load, so replaying one as fresh would launder a
//     nondeterministic answer into a deterministic-looking report;
//   * journal lines whose self-check digest does not match (truncation,
//     hand-editing, torn concurrent appends): diagnosed on stderr and
//     treated as a miss — never a wrong verdict;
//   * FALSIFIED entries without a stimulus (Entry::servable): they load
//     and lookup returns them, but run_sharded re-solves the job instead
//     of serving a counterexample its check could not replay, and the
//     re-solved entry supersedes them.
//
// Journal format (docs/FORMATS.md): DIR/verdicts.jsonl, one JSON object
// per line, appended with O_APPEND so concurrent campaigns (dispatcher
// workers sharing --cache) interleave whole lines. Each line carries a
// trailing "check" field — the FNV-1a digest of everything before it —
// making every entry independently verifiable.
//
// What a hit restores: the stable verdict-bearing fields (verdict,
// trace_length, bad_label, proved_k, note) and, on a FALSIFIED row, the
// counterexample stimulus (JobResult::stimulus): the post-pass's shrunk
// trace when the witness check ran, else run_job's raw trace, with a
// marker saying which. The cache never interprets the stimulus; the
// witness post-pass parses it against the rebuilt model and replays it,
// so a warm check needs no solver. Timing fields are scheduling-
// dependent, so a warm run's *stable* JSON is byte-identical to the cold
// run's while its timing form shows zero solver counters and
// from_cache=true.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "engine/campaign.hpp"

namespace sepe::engine {

class VerdictCache {
 public:
  /// The verdict-bearing payload of one cached job.
  struct Entry {
    Verdict verdict = Verdict::Unknown;
    unsigned trace_length = 0;
    std::string bad_label;
    unsigned proved_k = 0;
    std::string note;
    /// FALSIFIED only: the counterexample in render_stimulus form
    /// (engine/witness.hpp), journaled verbatim.
    std::string stimulus;

    /// False for a FALSIFIED entry without a stimulus.
    bool servable() const {
      return verdict != Verdict::Falsified || !stimulus.empty();
    }
  };

  struct Stats {
    std::uint64_t entries_loaded = 0;  // valid journal lines at open
    std::uint64_t corrupt_lines = 0;   // rejected at open (diagnosed)
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t appends = 0;
  };

  /// Open (creating the directory and journal as needed) the cache at
  /// `dir`, loading every valid journal entry. Corrupt lines are
  /// diagnosed on stderr and skipped — they can only cost a miss. Returns
  /// null and sets *error when the directory cannot be created or the
  /// journal exists but cannot be read.
  static std::unique_ptr<VerdictCache> open(const std::string& dir,
                                            std::string* error);

  /// False for jobs whose verdict may be nondeterministic (wall caps) —
  /// such jobs are neither cached nor served from the cache.
  static bool cacheable(const JobSpec& job);

  /// The cache key of `job` under the caller's campaign fingerprint
  /// (the same fingerprint string run_sharded folds into spec digests).
  static std::string key_of(const JobSpec& job, const std::string& fingerprint);

  /// Serialize one journal line (without trailing newline) — exposed for
  /// the corruption tests, which need to forge and truncate entries.
  static std::string format_line(const std::string& key, const Entry& e);
  /// Parse + self-check one journal line. Nullopt on any corruption.
  static std::optional<std::pair<std::string, Entry>> parse_line(
      const std::string& line);

  std::optional<Entry> lookup(const std::string& key);

  /// Record a fresh verdict: append to the journal (single O_APPEND
  /// write, whole line) and to the in-memory map. A key is journaled
  /// once, unless a servable entry supersedes an unservable one. Append
  /// failures are diagnosed once on stderr and otherwise ignored — a
  /// read-only cache directory costs persistence, never the run.
  void append(const std::string& key, const Entry& e);

  Stats stats() const;

  /// The journal path used under `dir` (tests and docs reference it).
  static std::string journal_path(const std::string& dir);

 private:
  VerdictCache() = default;

  std::string path_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  Stats stats_;
  bool write_error_diagnosed_ = false;
};

}  // namespace sepe::engine
