// shard.hpp — deterministic campaign sharding: the multi-host scale-out
// seam of the verification engine.
//
// The paper's experiment grid (instruction classes × QED modes ×
// mutations) is embarrassingly parallel across machines, not just across
// threads. This planner splits an expanded CampaignSpec into `count`
// disjoint shards so each can run as its own `sepe-run --shard I/N`
// process on any host, write its (stable) JSON report, and be merged
// back (CampaignReport::merge, `sepe-run merge`) into a report that is
// byte-identical to a single-process run of the whole spec.
//
// Determinism contract: shard membership depends only on the *stable job
// ids* (the job names, unique within a spec) — each id's lexicographic
// rank mod `count` picks its shard. The same spec therefore produces the
// same shard partition on every host and every rerun, the shards are
// balanced to within one job, and together they cover the expanded job
// list exactly (no overlap, no gaps).
//
// Resume: a shard run given a verdict journal (ShardRunOptions::
// cache_dir, engine/verdict_cache.hpp) appends every finished job to it;
// rerunning the same shard against that journal serves the finished jobs
// from it, re-executes only the rest, and re-emits the same stable
// report.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "engine/campaign.hpp"

namespace sepe::engine {

/// Parse "I/N" (e.g. "2/4") into a ShardSpec. Requires 0 <= I < N and
/// N >= 1; returns false and sets *error on malformed or out-of-range
/// input.
bool parse_shard(const std::string& text, ShardSpec* out, std::string* error);

/// Shard assignment for a list of stable job ids: result[i] is the shard
/// of ids[i], computed as the id's lexicographic rank mod `count`.
/// Depends only on the id multiset, so it is reproducible anywhere.
/// `count` must be >= 1; ids are expected to be unique (the planner
/// rejects duplicates before calling this).
std::vector<unsigned> shard_assignment(const std::vector<std::string>& ids,
                                       unsigned count);

/// One shard's slice of a full campaign.
struct ShardPlan {
  CampaignSpec spec;  // the shard's jobs, in full-spec order
  std::vector<std::size_t> spec_indices;  // full-spec index of each job
  std::uint64_t total_jobs = 0;           // job count of the full spec
  std::string error;                      // non-empty = plan invalid

  bool ok() const { return error.empty(); }
};

/// Deterministically select shard `shard.index` of `shard.count` from
/// the expanded spec. Fails (ShardPlan::error) on an out-of-range shard
/// or on duplicate job names — names are the stable ids the partition
/// and the merge key on.
ShardPlan plan_shard(const CampaignSpec& full, const ShardSpec& shard);

/// Options for a sharded (and/or journaled) campaign run.
struct ShardRunOptions {
  /// Worker pool configuration. pool.on_job_done, if set, is called with
  /// positions in the *full* spec handed to run_sharded; jobs served from
  /// the verdict journal do not fire it.
  CampaignOptions pool;
  /// Which slice to run; nullopt = the whole spec (the report then
  /// carries no shard metadata, exactly as a plain run_campaign).
  std::optional<ShardSpec> shard;
  /// Extra campaign parameters folded into every verdict-journal key that
  /// the JobSpecs cannot expose themselves (their model builders are
  /// opaque) — e.g. sepe-run contributes the DUV xlen. A journal written
  /// under a different fingerprint simply misses.
  std::string fingerprint;
  /// When non-empty: a verdict-journal directory (sepe-run --cache DIR;
  /// engine/verdict_cache.hpp), the one way a run persists and resumes
  /// finished jobs. Jobs whose key is already journaled there are served
  /// from it (JobResult::from_cache, zero solver counters, no
  /// on_job_done callback, FALSIFIED rows replayed); freshly solved
  /// cacheable jobs are appended. The journal is shared across runs,
  /// shards and campaigns — keys embed the fingerprint and the full job
  /// identity, so unrelated runs simply miss. An unusable directory is a
  /// hard error; a corrupt journal entry is only ever a miss.
  std::string cache_dir;
};

/// Run one shard of the campaign, resuming from the verdict journal when
/// one is given. On invalid input (bad shard, duplicate job names, or an
/// unusable journal directory) returns an empty report and sets *error.
CampaignReport run_sharded(const CampaignSpec& full, const ShardRunOptions& options,
                           std::string* error);

}  // namespace sepe::engine
