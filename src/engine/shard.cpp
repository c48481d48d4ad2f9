#include "engine/shard.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

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
    // Hand-launched legs can mix up their flags; the campaign digest
    // covers every job's name, budgets and provenance.
    if (r.shard->campaign != first.campaign)
      return reject("shard reports come from different campaigns (" + first.campaign +
                    " vs " + r.shard->campaign + ")");
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
  // overlaps, naming all the offending ids pinpoints which legs collided
  // instead of forcing a re-merge per duplicate.
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
  // The report's wall time covers the whole call: the journal load and
  // the replay of journaled FALSIFIED rows both happen before
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

  std::unique_ptr<VerdictCache> cache;
  if (!options.cache_dir.empty()) {
    std::string cache_error;
    cache = VerdictCache::open(options.cache_dir, &cache_error);
    if (!cache) {
      set_error(error, "verdict cache: " + cache_error);
      return empty;
    }
  }

  // Journal hits are how a run resumes: every job an earlier run (an
  // interrupted or killed one, an overlapping campaign) finished is
  // served here. A hit restores the stable verdict fields with solver
  // counters zeroed and from_cache set, and does not fire the user's
  // on_job_done hook: the job was not solved by this run.
  // An unservable entry (a FALSIFIED one without a stimulus) is a miss.
  std::vector<JobResult> results(plan.spec.jobs.size());
  if (cache) {
    for (std::size_t i = 0; i < plan.spec.jobs.size(); ++i) {
      const JobSpec& job = plan.spec.jobs[i];
      if (!VerdictCache::cacheable(job)) continue;
      auto hit = cache->lookup(VerdictCache::key_of(job, options.fingerprint));
      if (!hit || !hit->servable()) continue;
      JobResult& r = results[i];
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
      // A served FALSIFIED row is re-validated like a freshly solved one:
      // the line's self-check proves integrity, not truth. The post-pass
      // replays the journaled stimulus on the simulator (and shrinks it
      // if the cold run journaled it raw), so the row reports
      // witness_checked / trace_length_shrunk byte-identically to a cold
      // one without starting a solver, and a poisoned entry demotes to a
      // diagnosed UNKNOWN instead of shipping. from_cache stays set.
      if (options.pool.witness.check && r.verdict == Verdict::Falsified)
        witness_post_pass(job, options.pool.witness, &r);
    }
  }

  // The sub-spec of jobs the journal does not already cover.
  CampaignSpec pending;
  pending.seed = full.seed;
  std::vector<std::size_t> pending_to_plan;
  for (std::size_t i = 0; i < plan.spec.jobs.size(); ++i) {
    if (results[i].from_cache) continue;
    pending.jobs.push_back(plan.spec.jobs[i]);
    pending_to_plan.push_back(i);
  }

  CampaignOptions pool = options.pool;
  const auto user_hook = options.pool.on_job_done;
  if (user_hook || cache || fault::armed()) {
    pool.on_job_done = [&, user_hook](std::size_t pending_index, const JobResult& job) {
      const std::size_t i = pending_to_plan[pending_index];
      JobResult patched = job;
      patched.spec_index = plan.spec_indices[i];
      // Journal the freshly solved verdict (VerdictCache serializes its
      // own appends). run_campaign never hands this hook a job the global
      // stop wound down, so an interrupted row is never journaled. A
      // FALSIFIED row journals its trace: shrunk when the post-pass
      // checked it, else run_job's raw one.
      if (cache && VerdictCache::cacheable(plan.spec.jobs[i])) {
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
      // The hook contract is positions in the spec the caller handed to
      // run_sharded, not the internal pending sub-spec (jobs served from
      // the journal do not fire the hook).
      if (user_hook) user_hook(patched.spec_index, patched);
      // Fault point "worker.job_done" (docs/ROBUSTNESS.md): fires only
      // after the finished job was journaled and reported, so an injected
      // kill/hang/stop always leaves it in the journal for the rerun.
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
  if (options.shard)
    report.shard = CampaignReport::ShardInfo{
        effective, plan.total_jobs,
        VerdictCache::campaign_digest(full, options.fingerprint)};
  for (std::size_t i = 0; i < fresh.jobs.size(); ++i)
    results[pending_to_plan[i]] = fresh.jobs[i];
  report.jobs = std::move(results);
  for (std::size_t i = 0; i < report.jobs.size(); ++i)
    report.jobs[i].spec_index = plan.spec_indices[i];
  report.wall_seconds = clock.seconds();
  return report;
}

}  // namespace sepe::engine
