#include "engine/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "engine/report_io.hpp"
#include "engine/verdict_cache.hpp"
#include "engine/witness.hpp"
#include "util/fault.hpp"
#include "util/parse.hpp"
#include "util/stopwatch.hpp"

namespace sepe::engine {

namespace {

bool set_error(std::string* error, std::string what) {
  if (error && error->empty()) *error = std::move(what);
  return false;
}

/// The stable ids a spec is partitioned and merged by are the job names;
/// returns the duplicate name if the spec violates uniqueness.
std::optional<std::string> find_duplicate_name(const std::vector<JobSpec>& jobs) {
  std::unordered_set<std::string> seen;
  for (const JobSpec& job : jobs)
    if (!seen.insert(job.name).second) return job.name;
  return std::nullopt;
}

/// FNV-1a digest of everything that determines a job's verdict besides
/// the model builder itself: the job names, every budget knob, and the
/// full provenance — workload family, source id, property index, and
/// the per-file content hash corpus sources stamp on their jobs — plus
/// the caller's fingerprint for parameters hidden inside the builders.
/// Guards checkpoints against silent reuse under changed flags, and
/// refuses a resume against a corpus file edited since the journal was
/// written (same names, different content hash).
std::string spec_digest_of(const CampaignSpec& spec, const std::string& fingerprint) {
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
  mix_string(fingerprint);
  mix_u64(spec.jobs.size());
  for (const JobSpec& job : spec.jobs) {
    mix_string(job.name);
    mix_string(job.provenance.family);
    mix_string(job.provenance.source);
    mix_u64(job.provenance.property);
    mix_string(job.provenance.content_digest);
    mix_string(job.provenance.mode);
    mix_u64(job.budget.max_bound);
    mix_u64(job.budget.max_k);
    mix_u64(job.budget.conflict_budget);
    std::uint64_t seconds_bits = 0;
    static_assert(sizeof seconds_bits == sizeof job.budget.max_seconds);
    std::memcpy(&seconds_bits, &job.budget.max_seconds, sizeof seconds_bits);
    mix_u64(seconds_bits);
    mix_byte(job.budget.race_k_induction ? 1 : 0);
    mix_byte(job.budget.sequential_provers ? 1 : 0);
    mix_byte(job.budget.plaisted_greenbaum
                 ? (*job.budget.plaisted_greenbaum ? 2 : 1)
                 : 0);
    mix_byte(static_cast<unsigned char>(job.budget.backend));
    mix_u64(job.budget.memory_limit_mb);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace

bool parse_shard(const std::string& text, ShardSpec* out, std::string* error) {
  const std::size_t slash = text.find('/');
  const auto bad = [&] {
    return set_error(error, "shard must be I/N with 0 <= I < N, got '" + text + "'");
  };
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size())
    return bad();
  const auto index = parse_u64_strict(text.substr(0, slash));
  const auto count = parse_u64_strict(text.substr(slash + 1));
  if (!index || !count) return bad();
  if (*count == 0 || *index >= *count || *count > 1u << 20) return bad();
  out->index = static_cast<unsigned>(*index);
  out->count = static_cast<unsigned>(*count);
  return true;
}

std::vector<unsigned> shard_assignment(const std::vector<std::string>& ids,
                                       unsigned count) {
  // Rank-based round robin: sort the ids, give rank r to shard r % count.
  // Using ranks (not hashes) keeps the shards balanced to within one job;
  // using the ids (not the spec positions) makes membership a pure
  // function of the id set, reproducible on any host.
  std::vector<std::size_t> order(ids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ids[a] < ids[b]; });
  std::vector<unsigned> assignment(ids.size(), 0);
  if (count == 0) count = 1;
  for (std::size_t rank = 0; rank < order.size(); ++rank)
    assignment[order[rank]] = static_cast<unsigned>(rank % count);
  return assignment;
}

ShardPlan plan_shard(const CampaignSpec& full, const ShardSpec& shard) {
  ShardPlan plan;
  plan.total_jobs = full.jobs.size();
  plan.spec.seed = full.seed;
  if (shard.count == 0 || shard.index >= shard.count) {
    plan.error = "shard index " + std::to_string(shard.index) + " out of range for " +
                 std::to_string(shard.count) + " shards";
    return plan;
  }
  if (auto dup = find_duplicate_name(full.jobs)) {
    plan.error = "duplicate job name '" + *dup + "' — job names are the stable "
                 "shard/merge ids and must be unique";
    return plan;
  }
  std::vector<std::string> ids;
  ids.reserve(full.jobs.size());
  for (const JobSpec& job : full.jobs) ids.push_back(job.name);
  const std::vector<unsigned> assignment = shard_assignment(ids, shard.count);
  for (std::size_t i = 0; i < full.jobs.size(); ++i) {
    if (assignment[i] != shard.index) continue;
    plan.spec.jobs.push_back(full.jobs[i]);
    plan.spec_indices.push_back(i);
  }
  return plan;
}

std::optional<CampaignReport> CampaignReport::merge(
    const std::vector<CampaignReport>& shards, std::string* error) {
  if (error) error->clear();
  const auto reject = [&](std::string what) {
    set_error(error, std::move(what));
    return std::nullopt;
  };
  if (shards.empty()) return reject("nothing to merge");

  for (std::size_t i = 0; i < shards.size(); ++i)
    if (!shards[i].shard)
      return reject("report " + std::to_string(i) +
                    " carries no shard metadata — not a shard report");

  const ShardInfo& first = *shards[0].shard;
  if (shards.size() != first.shard.count)
    return reject("incomplete shard set: got " + std::to_string(shards.size()) +
                  " reports for a " + std::to_string(first.shard.count) +
                  "-shard campaign");

  std::vector<bool> index_seen(first.shard.count, false);
  for (const CampaignReport& r : shards) {
    if (r.shard->shard.count != first.shard.count ||
        r.shard->total_jobs != first.total_jobs)
      return reject("shard reports disagree on the campaign shape "
                    "(count/total_jobs)");
    if (r.seed != shards[0].seed)
      return reject("shard reports disagree on the campaign seed");
    if (r.shard->shard.index >= first.shard.count ||
        index_seen[r.shard->shard.index])
      return reject("overlapping shard set: shard " +
                    std::to_string(r.shard->shard.index) + " appears twice");
    index_seen[r.shard->shard.index] = true;
  }

  CampaignReport merged;
  merged.seed = shards[0].seed;
  merged.threads = 0;
  merged.jobs.resize(first.total_jobs);
  std::vector<bool> job_seen(first.total_jobs, false);
  std::unordered_set<std::string> names;
  // Collect every duplicated job id before rejecting: when a shard set
  // overlaps (e.g. a stolen shard's report hand-merged next to the
  // original attempt's), naming all the offending ids pinpoints which
  // legs collided instead of forcing a re-merge per duplicate.
  std::vector<std::string> duplicated;
  for (const CampaignReport& r : shards) {
    merged.wall_seconds += r.wall_seconds;
    for (const JobResult& job : r.jobs) {
      if (job.spec_index >= first.total_jobs)
        return reject("job '" + job.name + "' has spec_index " +
                      std::to_string(job.spec_index) + " outside the campaign (" +
                      std::to_string(first.total_jobs) + " jobs)");
      if (job_seen[job.spec_index] || !names.insert(job.name).second) {
        duplicated.push_back(job.name);
        continue;
      }
      job_seen[job.spec_index] = true;
      merged.jobs[job.spec_index] = job;
    }
  }
  if (!duplicated.empty()) {
    std::sort(duplicated.begin(), duplicated.end());
    duplicated.erase(std::unique(duplicated.begin(), duplicated.end()),
                     duplicated.end());
    constexpr std::size_t kListed = 8;
    std::string what = "overlapping shards: " + std::to_string(duplicated.size()) +
                       " job id(s) appear in more than one report:";
    for (std::size_t i = 0; i < duplicated.size() && i < kListed; ++i)
      what += (i ? ", '" : " '") + duplicated[i] + "'";
    if (duplicated.size() > kListed)
      what += ", ... (+" + std::to_string(duplicated.size() - kListed) + " more)";
    return reject(std::move(what));
  }
  for (std::size_t i = 0; i < merged.jobs.size(); ++i)
    if (!job_seen[i])
      return reject("incomplete shard set: job id " + std::to_string(i) +
                    " of " + std::to_string(first.total_jobs) + " is missing");
  return merged;
}

CampaignReport run_sharded(const CampaignSpec& full, const ShardRunOptions& options,
                           std::string* error) {
  // The report's wall time covers the whole call: checkpoint and cache
  // loads and the replay of cached FALSIFIED rows all happen before
  // run_campaign, which times only the jobs still pending.
  const Stopwatch clock;
  if (error) error->clear();
  CampaignReport empty;
  const ShardSpec effective = options.shard.value_or(ShardSpec{});
  ShardPlan plan = plan_shard(full, effective);
  if (!plan.ok()) {
    set_error(error, plan.error);
    return empty;
  }
  const CampaignReport::ShardInfo info{effective, plan.total_jobs};
  const std::string digest = spec_digest_of(full, options.fingerprint);

  std::unique_ptr<VerdictCache> cache;
  if (!options.cache_dir.empty()) {
    std::string cache_error;
    cache = VerdictCache::open(options.cache_dir, &cache_error);
    if (!cache) {
      set_error(error, "verdict cache: " + cache_error);
      return empty;
    }
  }

  // Resume: load finished jobs from the checkpoint, keyed by name.
  std::vector<JobResult> results(plan.spec.jobs.size());
  std::vector<bool> done(plan.spec.jobs.size(), false);
  std::unordered_map<std::string, std::size_t> position;
  for (std::size_t i = 0; i < plan.spec.jobs.size(); ++i)
    position[plan.spec.jobs[i].name] = i;

  if (!options.checkpoint_path.empty()) {
    std::error_code exists_error;
    const bool exists =
        std::filesystem::exists(options.checkpoint_path, exists_error);
    const auto text =
        exists ? read_text_file(options.checkpoint_path) : std::nullopt;
    if (exists && !text) {
      // Present but unreadable (permissions, transient I/O) is a hard
      // error: silently starting over would clobber the journal and
      // discard every recorded verdict on the first completion.
      set_error(error, "checkpoint '" + options.checkpoint_path +
                           "' exists but cannot be read — fix its "
                           "permissions or delete it to start over");
      return empty;
    }
    if (text) {
      CampaignReport saved;
      std::string parse_error;
      if (!parse_report(*text, &saved, &parse_error)) {
        set_error(error, "checkpoint '" + options.checkpoint_path +
                             "' is unreadable (" + parse_error +
                             ") — delete it to start over");
        return empty;
      }
      if (saved.seed != full.seed || !saved.shard ||
          saved.shard->shard.index != effective.index ||
          saved.shard->shard.count != effective.count ||
          saved.shard->total_jobs != plan.total_jobs) {
        set_error(error, "checkpoint '" + options.checkpoint_path +
                             "' belongs to a different campaign or shard — "
                             "delete it to start over");
        return empty;
      }
      if (saved.spec_digest != digest) {
        set_error(error, "checkpoint '" + options.checkpoint_path +
                             "' was recorded under different campaign "
                             "parameters (budgets/flags, or a workload "
                             "source — e.g. a corpus file — edited since "
                             "the journal was written) — delete it to "
                             "start over");
        return empty;
      }
      for (const JobResult& job : saved.jobs) {
        const auto it = position.find(job.name);
        if (it == position.end() || plan.spec_indices[it->second] != job.spec_index) {
          set_error(error, "checkpoint '" + options.checkpoint_path +
                               "' records unknown job '" + job.name +
                               "' — delete it to start over");
          return empty;
        }
        results[it->second] = job;
        done[it->second] = true;
      }
    }
  }

  // Verdict-cache hits fill in after the checkpoint: a hit restores the
  // stable verdict fields with solver counters zeroed and from_cache
  // set, and — like a checkpoint-resumed job — does not fire the user's
  // on_job_done hook: the job was not solved by this run. An unservable
  // entry (a FALSIFIED one without a stimulus) counts as a miss.
  if (cache) {
    for (std::size_t i = 0; i < plan.spec.jobs.size(); ++i) {
      if (done[i]) continue;
      const JobSpec& job = plan.spec.jobs[i];
      if (!VerdictCache::cacheable(job)) continue;
      auto hit = cache->lookup(VerdictCache::key_of(job, options.fingerprint));
      if (!hit || !hit->servable()) continue;
      JobResult r;
      r.name = job.name;
      r.spec_index = plan.spec_indices[i];
      r.provenance = job.provenance;
      r.verdict = hit->verdict;
      r.trace_length = hit->trace_length;
      r.bad_label = hit->bad_label;
      r.proved_k = hit->proved_k;
      r.note = std::move(hit->note);
      r.stimulus = std::move(hit->stimulus);
      r.from_cache = true;
      results[i] = std::move(r);
      done[i] = true;
    }
    // Cached FALSIFIED rows are re-validated like freshly solved ones:
    // the journal line's self-check proves integrity, not truth. The
    // post-pass replays the journaled stimulus on the simulator (and
    // shrinks it if the cold run journaled it raw), so a warm run reports
    // witness_checked / trace_length_shrunk byte-identically to a cold
    // one without starting a solver — and a poisoned cache entry demotes
    // to a diagnosed UNKNOWN instead of shipping. from_cache stays set
    // either way. Checkpoint-resumed rows round-trip their recorded check
    // and are not re-run.
    if (options.pool.witness.check) {
      for (std::size_t i = 0; i < plan.spec.jobs.size(); ++i)
        if (done[i] && results[i].from_cache && !results[i].witness_checked &&
            results[i].verdict == Verdict::Falsified)
          witness_post_pass(plan.spec.jobs[i], options.pool.witness, &results[i]);
    }
  }

  // The sub-spec of jobs the checkpoint does not already cover.
  CampaignSpec pending;
  pending.seed = full.seed;
  std::vector<std::size_t> pending_to_plan;
  for (std::size_t i = 0; i < plan.spec.jobs.size(); ++i) {
    if (done[i]) continue;
    pending.jobs.push_back(plan.spec.jobs[i]);
    pending_to_plan.push_back(i);
  }

  CampaignOptions pool = options.pool;
  std::mutex checkpoint_mutex;
  const auto user_hook = options.pool.on_job_done;
  const bool journal = !options.checkpoint_path.empty();
  if (journal || user_hook || cache || fault::armed()) {
    pool.on_job_done = [&, user_hook, journal](std::size_t pending_index,
                                               const JobResult& job) {
      const std::size_t i = pending_to_plan[pending_index];
      JobResult patched = job;
      patched.spec_index = plan.spec_indices[i];
      // A job wound down by the global stop (SIGTERM/SIGINT, or an
      // injected stop fault) reports Unknown only because it was
      // interrupted; journaling or caching that row would make the
      // resumed run differ from an uninterrupted one. Skip persistence —
      // the resume re-solves it properly.
      const bool interrupted_unknown =
          fault::global_stop_requested() && patched.verdict == Verdict::Unknown;
      // Persist freshly solved verdicts (VerdictCache serializes its own
      // journal; no need for the checkpoint mutex). Jobs served from the
      // cache never reach this hook — run_campaign only ran the misses.
      // A FALSIFIED row journals its trace: shrunk when the post-pass
      // checked it, else run_job's raw one.
      if (cache && !interrupted_unknown && VerdictCache::cacheable(plan.spec.jobs[i])) {
        VerdictCache::Entry entry;
        entry.verdict = patched.verdict;
        entry.trace_length = patched.trace_length;
        entry.bad_label = patched.bad_label;
        entry.proved_k = patched.proved_k;
        entry.note = patched.note;
        if (patched.verdict == Verdict::Falsified && patched.trace)
          entry.stimulus = render_stimulus(*patched.trace);
        cache->append(VerdictCache::key_of(plan.spec.jobs[i], options.fingerprint),
                      entry);
      }
      if (journal && !interrupted_unknown) {
        std::lock_guard<std::mutex> lock(checkpoint_mutex);
        results[i] = patched;
        done[i] = true;
        CampaignReport snapshot;
        snapshot.seed = full.seed;
        snapshot.shard = info;
        snapshot.spec_digest = digest;
        for (std::size_t k = 0; k < results.size(); ++k)
          if (done[k]) snapshot.jobs.push_back(results[k]);
        // Best-effort journal: an unwritable checkpoint only costs the
        // resume, never the run.
        write_text_file_atomic(options.checkpoint_path,
                               snapshot.to_json(/*include_timing=*/true),
                               "checkpoint.write");
      }
      // The hook contract is positions in the spec the caller handed to
      // run_sharded, not the internal pending sub-spec (jobs resumed from
      // the checkpoint do not re-fire the hook).
      if (user_hook) user_hook(patched.spec_index, patched);
      // Fault point "worker.job_done" (docs/ROBUSTNESS.md): fires only
      // after the finished job was journaled and reported, so an injected
      // kill/hang/stop always leaves a resumable checkpoint behind —
      // exactly the crash window the dispatcher's relaunch path covers.
      if (fault::armed()) {
        if (const auto action = fault::hit("worker.job_done"))
          fault::execute_process_action(*action);
      }
    };
  }

  const CampaignReport fresh = run_campaign(pending, pool);

  CampaignReport report;
  report.seed = full.seed;
  report.threads = fresh.threads;
  if (options.shard) report.shard = info;
  for (std::size_t i = 0; i < fresh.jobs.size(); ++i)
    results[pending_to_plan[i]] = fresh.jobs[i];
  report.jobs = std::move(results);
  for (std::size_t i = 0; i < report.jobs.size(); ++i)
    report.jobs[i].spec_index = plan.spec_indices[i];
  report.wall_seconds = clock.seconds();
  return report;
}

}  // namespace sepe::engine
