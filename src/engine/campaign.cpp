#include "engine/campaign.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <thread>

#include "engine/witness.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace sepe::engine {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Falsified: return "FALSIFIED";
    case Verdict::Proved: return "PROVED";
    case Verdict::BoundClean: return "BOUND_CLEAN";
    case Verdict::Unknown: return "UNKNOWN";
  }
  return "?";
}

std::optional<Verdict> parse_verdict(const std::string& name) {
  for (Verdict v : {Verdict::Falsified, Verdict::Proved, Verdict::BoundClean,
                    Verdict::Unknown})
    if (name == verdict_name(v)) return v;
  return std::nullopt;
}

JobResult run_job(const JobSpec& job,
                  const std::shared_ptr<smt::ConeCache>& cone_cache) {
  assert(job.build && "JobSpec needs a model builder");
  Stopwatch clock;
  JobResult r;
  r.name = job.name;
  r.provenance = job.provenance;

  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  std::string build_error;
  if (!job.build(ts, &build_error)) {
    // Build failures (e.g. a corpus file that does not parse) are
    // deterministic: report the diagnostic as an Unknown row instead of
    // aborting the campaign.
    r.note = build_error;
    r.seconds = clock.seconds();
    return r;
  }

  bmc::KInductionOptions ko;
  ko.max_bound = job.budget.max_bound;
  ko.max_k = job.budget.max_k;
  ko.conflict_budget = job.budget.conflict_budget;
  ko.max_seconds = job.budget.max_seconds;
  ko.solver_config.memory_limit_mb = job.budget.memory_limit_mb;
  // Workload families resolve their encoding default at expansion; a
  // spec-level nullopt means plain Tseitin.
  ko.plaisted_greenbaum = job.budget.plaisted_greenbaum.value_or(false);
  ko.cone_cache = cone_cache;
  const bmc::KInductionResult kr = bmc::prove_by_k_induction(ts, ko);

  r.work = kr;
  r.bmc_bounds_checked = kr.bmc_bounds_checked;

  if (kr.status == bmc::KInductionStatus::Falsified) {
    r.verdict = Verdict::Falsified;
    r.trace_length = kr.witness->length;
    r.bad_label = kr.witness->bad_label;
    // The index-ordered trace (for the witness post-pass) is read now,
    // while the job-local TransitionSystem is alive: the bmc::Witness is
    // keyed on its TermManager.
    r.trace = std::make_shared<const WitnessTrace>(extract_trace(ts, *kr.witness));
  } else if (kr.status == bmc::KInductionStatus::Proved) {
    r.verdict = Verdict::Proved;
    r.proved_k = kr.k;
  } else if (kr.bound_clean) {
    // A clean sweep to the bound is a definite bounded result even when
    // a step ran out of budget: that only forfeits the upgrade to PROVED.
    r.verdict = Verdict::BoundClean;
    r.hit_resource_limit = kr.hit_resource_limit;
  } else {
    r.hit_resource_limit = true;
    // A memory-ceiling trip is deterministic for a fixed spec and
    // budget, so the diagnosis belongs in the stable form: the Unknown
    // row explains itself (docs/ROBUSTNESS.md).
    if (r.work.hit_memory_limit) r.note = "resource: memory";
  }
  r.seconds = clock.seconds();
  return r;
}

CampaignReport run_campaign(const CampaignSpec& spec, const CampaignOptions& options) {
  Stopwatch clock;
  unsigned threads =
      options.threads != 0 ? options.threads : std::thread::hardware_concurrency();
  threads = std::max<std::size_t>(
      1, std::min<std::size_t>(threads, spec.jobs.empty() ? 1 : spec.jobs.size()));

  CampaignReport report;
  report.seed = spec.seed;
  report.threads = threads;
  report.jobs.resize(spec.jobs.size());

  // Every job of the campaign shares one cone store: identical cones
  // blast once, replay everywhere. Replay is exact (cone_cache.hpp), so
  // this cannot perturb the determinism contract.
  const auto cone_cache = std::make_shared<smt::ConeCache>();

  // Work queue: an atomic cursor over the job list. Each worker pops the
  // next index and runs the job in full isolation; results land in spec
  // order so the report is independent of scheduling.
  std::atomic<std::size_t> next{0};
  const auto worker = [&]() {
    for (;;) {
      // Crash-only envelope: once SIGTERM/SIGINT raised the global stop,
      // claim no further jobs — in-flight ones wind down via the solver
      // stop poll, finished ones are already journaled (docs/ROBUSTNESS.md).
      if (fault::global_stop_requested()) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= spec.jobs.size()) return;
      JobResult r = run_job(spec.jobs[i], cone_cache);
      // A job that ends UNKNOWN under the global stop may be UNKNOWN only
      // because it was interrupted. Its row stays unclaimed (no name, no
      // post-pass, no hook), so nothing journals it and the resume
      // re-solves it to the verdict an uninterrupted run reports.
      if (r.verdict == Verdict::Unknown && fault::global_stop_requested()) return;
      r.spec_index = i;
      // Witness post-pass before the completion hook, so the verdict
      // journal only ever records checked rows.
      witness_post_pass(spec.jobs[i], options.witness, &r);
      report.jobs[i] = std::move(r);
      if (options.on_job_done) options.on_job_done(i, report.jobs[i]);
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  report.wall_seconds = clock.seconds();
  return report;
}

unsigned CampaignReport::count(Verdict v) const {
  unsigned n = 0;
  for (const JobResult& j : jobs) n += (j.verdict == v);
  return n;
}

std::string CampaignReport::to_table() const {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line, "%-34s %-8s %-12s %-6s %10s %9s\n", "job", "mode",
                "verdict", "len/k", "conflicts", "time");
  os << line;
  os << std::string(83, '-') << "\n";
  for (const JobResult& j : jobs) {
    char lenk[16] = "-";
    if (j.verdict == Verdict::Falsified)
      std::snprintf(lenk, sizeof lenk, "%u", j.trace_length);
    else if (j.verdict == Verdict::Proved)
      std::snprintf(lenk, sizeof lenk, "k=%u", j.proved_k);
    // The mode column doubles as the workload column for families that
    // have no QED mode.
    const std::string& mode =
        j.provenance.mode.empty() ? j.provenance.family : j.provenance.mode;
    std::snprintf(line, sizeof line, "%-34s %-8s %-12s %-6s %10llu %8.2fs\n",
                  j.name.c_str(), mode.c_str(), verdict_name(j.verdict), lenk,
                  static_cast<unsigned long long>(j.work.solver_conflicts), j.seconds);
    os << line;
  }
  std::snprintf(line, sizeof line,
                "%zu jobs: %u falsified, %u proved, %u bound-clean, %u unknown "
                "(%u threads, %.2fs wall, seed %llu)\n",
                jobs.size(), count(Verdict::Falsified), count(Verdict::Proved),
                count(Verdict::BoundClean), count(Verdict::Unknown), threads,
                wall_seconds, static_cast<unsigned long long>(seed));
  os << line;
  return os.str();
}

std::string CampaignReport::to_json(bool include_timing) const {
  std::ostringstream os;
  os << "{\n  \"seed\": " << seed;
  if (shard) {
    os << ",\n  \"shard\": {\"index\": " << shard->shard.index
       << ", \"count\": " << shard->shard.count
       << ", \"total_jobs\": " << shard->total_jobs
       << ", \"campaign\": \"" << shard->campaign << "\"}";
  }
  if (include_timing) {
    os << ",\n  \"threads\": " << threads;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", wall_seconds);
    os << ",\n  \"wall_seconds\": " << buf;
  }
  os << ",\n  \"jobs\": [";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult& j = jobs[i];
    os << (i ? ",\n    {" : "\n    {");
    os << "\"name\": ";
    json_escape(os, j.name);
    // Only shard reports carry the job's position in the full spec —
    // merged output must stay byte-identical to an unsharded run.
    if (shard) os << ", \"spec_index\": " << j.spec_index;
    // QED jobs keep the original dialect (a "mode" column) so existing
    // campaign output stays byte-identical; other workload families
    // report their provenance instead.
    if (j.provenance.family == kQedFamily) {
      os << ", \"mode\": ";
      json_escape(os, j.provenance.mode);
    } else {
      os << ", \"workload\": ";
      json_escape(os, j.provenance.family);
      os << ", \"source\": ";
      json_escape(os, j.provenance.source);
      os << ", \"property\": " << j.provenance.property;
    }
    os << ", \"verdict\": \"" << verdict_name(j.verdict) << "\"";
    if (j.verdict == Verdict::Falsified) {
      os << ", \"trace_length\": " << j.trace_length;
      // Which bad condition fired is verdict-bearing and deterministic,
      // so it belongs in the stable form alongside the trace length.
      if (!j.bad_label.empty()) {
        os << ", \"bad_label\": ";
        json_escape(os, j.bad_label);
      }
    }
    if (j.verdict == Verdict::Proved) os << ", \"proved_k\": " << j.proved_k;
    // A build/parse diagnostic is deterministic for a fixed spec, so it
    // belongs in the stable form too (it explains the UNKNOWN verdict).
    if (!j.note.empty()) {
      os << ", \"error\": ";
      json_escape(os, j.note);
    }
    // Counters depend on the encoding and the cache (a hit zeroes them),
    // timings on the host; keeping them out makes the no-timing report
    // byte-stable across runs, thread counts and warm or cold caches for
    // a fixed spec.
    if (include_timing) {
      os << ", \"bmc_bounds_checked\": " << j.bmc_bounds_checked;
      os << ", \"hit_resource_limit\": " << (j.hit_resource_limit ? "true" : "false");
      for (const smt::WorkCounter& c : smt::kWorkCounters)
        os << ", \"" << c.name << "\": " << j.work.*c.member;
      os << ", \"hit_memory_limit\": " << (j.work.hit_memory_limit ? "true" : "false");
      os << ", \"from_cache\": " << (j.from_cache ? "true" : "false");
      // Witness-pipeline observables. Deterministic, but deliberately
      // kept out of the stable form: the post-pass must be
      // observationally invisible there (byte-identity with pre-witness
      // reports, and with --no-witness-check runs).
      os << ", \"witness_checked\": " << (j.witness_checked ? "true" : "false");
      os << ", \"trace_length_shrunk\": " << j.trace_length_shrunk;
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3f", j.seconds);
      os << ", \"seconds\": " << buf;
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace sepe::engine
