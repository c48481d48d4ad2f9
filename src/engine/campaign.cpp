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

const char* prover_name(Prover p) {
  switch (p) {
    case Prover::None: return "none";
    case Prover::Bmc: return "bmc";
    case Prover::KInduction: return "k-induction";
  }
  return "?";
}

namespace {

/// Outcome of one prover inside the race.
struct BmcSide {
  std::optional<bmc::Witness> found;
  bmc::BmcStats stats;
  std::string witness_text;
  std::string bad_label;
  std::string build_error;  // non-empty: the model never built
  /// Index-ordered trace for the witness post-pass, extracted while the
  /// job-local TransitionSystem is still alive (the bmc::Witness itself
  /// is keyed on that system's TermManager and dies with it).
  std::shared_ptr<const WitnessTrace> trace;
};

struct KindSide {
  bool ran = false;
  bmc::KInductionResult result;
  std::string witness_text;
  std::string bad_label;
  std::string build_error;
  std::shared_ptr<const WitnessTrace> trace;
};

constexpr int kClaimNone = -1;
constexpr int kClaimBmc = 0;
constexpr int kClaimKind = 1;

/// Re-derive the canonical witness of a falsified job with the native
/// default-config BMC sweep. A witness found through another backend is
/// shaped by that engine's model; replaying the native sweep up to the
/// (engine-independent) minimal violation length reproduces exactly the
/// trace a native run reports, keeping reports byte-identical across
/// backends. Costs one sweep, paid only on falsified jobs.
/// The replay deliberately runs without the job's budgets: the bound is
/// known SAT, and a claimed violation whose witness cannot be read back
/// is worse than a slightly-overspent cap (same rationale as the old
/// model-extension budget lift).
void canonical_witness(const JobSpec& job, unsigned length,
                       const std::shared_ptr<smt::ConeCache>& cone_cache,
                       BmcSide* out) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  std::string build_error;
  [[maybe_unused]] const bool built = job.build(ts, &build_error);
  assert(built && "a job that produced a witness must rebuild");
  // Same encoding as the job's own run, on the native backend: an
  // external engine's model is solver-shaped, and re-deriving it here is
  // what keeps stable reports backend-independent.
  bmc::Bmc checker(ts, sat::SolverConfig{},
                   job.budget.plaisted_greenbaum.value_or(false), cone_cache);
  bmc::BmcOptions bo;
  bo.max_bound = length;
  out->found = checker.check(bo);
  assert(out->found && out->found->length == length &&
         "canonical replay must reproduce the claimed violation");
  // Unbudgeted replay of a known-SAT bound cannot fail; still, never
  // dereference an empty optional in Release if that invariant breaks.
  if (!out->found) return;
  out->witness_text = bmc::witness_to_string(ts, *out->found);
  out->bad_label = out->found->bad_label;
  out->trace = std::make_shared<const WitnessTrace>(extract_trace(ts, *out->found));
}

/// Add one prover stack's work counters to the job's (BmcStats and
/// KInductionResult spell them alike).
template <class Stats>
void add_counters(const Stats& s, JobResult* r) {
  r->conflicts += s.solver_conflicts;
  r->propagations += s.solver_propagations;
  r->decisions += s.solver_decisions;
  r->cnf_vars += s.cnf_vars;
  r->cnf_clauses += s.cnf_clauses;
  r->cone_lookups += s.cone_lookups;
  r->cone_hits += s.cone_hits;
  r->cone_clauses_replayed += s.cone_clauses_replayed;
  r->eliminated_vars += s.eliminated_vars;
  r->subsumed_clauses += s.subsumed_clauses;
  r->vivified_clauses += s.vivified_clauses;
  r->hit_memory_limit = r->hit_memory_limit || s.hit_memory_limit;
  r->sat_retries += s.sat_retries;
}

}  // namespace

JobResult run_job(const JobSpec& job,
                  const std::shared_ptr<smt::ConeCache>& cone_cache) {
  assert(job.build && "JobSpec needs a model builder");
  Stopwatch clock;
  JobResult r;
  r.name = job.name;
  r.provenance = job.provenance;

  const bool with_kind = job.budget.race_k_induction && job.budget.max_k > 0;
  // Workload families resolve their encoding default at expansion; a
  // spec-level nullopt means plain Tseitin.
  const bool plaisted_greenbaum = job.budget.plaisted_greenbaum.value_or(false);
  // A native witness is canonical as found; another engine's trace is
  // re-derived after the race (canonical_witness).
  const bool native = job.budget.backend == sat::BackendKind::Native;
  sat::SolverConfig config;
  config.memory_limit_mb = job.budget.memory_limit_mb;

  BmcSide bside;
  KindSide kside;

  // The race state: the first prover with a *definite* verdict
  // (counterexample or proof) claims the job and raises the stop flag the
  // loser's CDCL loops poll. Indefinite outcomes (clean sweep, exhausted
  // max_k, budget) never cancel anyone — that is what keeps verdicts
  // deterministic across thread counts.
  std::atomic<bool> stop{false};
  std::atomic<int> claim{kClaimNone};
  const auto try_claim = [&](int who) {
    int expected = kClaimNone;
    if (claim.compare_exchange_strong(expected, who)) {
      stop.store(true, std::memory_order_release);
      return true;
    }
    return false;
  };

  const auto bmc_prover = [&](const std::atomic<bool>* stop_flag) {
    smt::TermManager mgr;
    ts::TransitionSystem ts(mgr);
    // Build failures (e.g. a corpus file that does not parse) are
    // deterministic: both provers fail identically, so recording the
    // diagnostic and returning leaves the race with no claimant and the
    // job reports Unknown with the note attached.
    if (!job.build(ts, &bside.build_error)) return;
    bmc::Bmc checker(ts, config, plaisted_greenbaum, cone_cache, job.budget.backend);
    bmc::BmcOptions bo;
    bo.max_bound = job.budget.max_bound;
    bo.conflict_budget_per_bound = job.budget.conflict_budget;
    bo.max_seconds = job.budget.max_seconds;
    bo.stop = stop_flag;
    bside.found = checker.check(bo);
    bside.stats = checker.stats();
    if (!bside.found || (stop_flag && !try_claim(kClaimBmc)) || !native) return;
    bside.witness_text = bmc::witness_to_string(ts, *bside.found);
    bside.bad_label = bside.found->bad_label;
    bside.trace = std::make_shared<const WitnessTrace>(extract_trace(ts, *bside.found));
  };

  const auto kind_prover = [&](const std::atomic<bool>* stop_flag) {
    kside.ran = true;
    smt::TermManager mgr;
    ts::TransitionSystem ts(mgr);
    if (!job.build(ts, &kside.build_error)) return;
    bmc::KInductionOptions ko;
    ko.max_k = job.budget.max_k;
    ko.conflict_budget = job.budget.conflict_budget;
    ko.max_seconds = job.budget.max_seconds;
    ko.stop = stop_flag;
    ko.solver_config = config;
    ko.plaisted_greenbaum = plaisted_greenbaum;
    ko.cone_cache = cone_cache;
    ko.backend = job.budget.backend;
    kside.result = bmc::prove_by_k_induction(ts, ko);
    if (kside.result.status == bmc::KInductionStatus::Unknown ||
        (stop_flag && !try_claim(kClaimKind)) || !kside.result.witness || !native)
      return;
    kside.witness_text = bmc::witness_to_string(ts, *kside.result.witness);
    kside.bad_label = kside.result.witness->bad_label;
    kside.trace =
        std::make_shared<const WitnessTrace>(extract_trace(ts, *kside.result.witness));
  };

  if (job.budget.sequential_provers) {
    // Deterministic perf mode: both provers run to completion on the
    // calling thread, nothing is cancelled, and the claim arbitration is
    // by fixed order (BMC's counterexample first, else k-induction's
    // verdict) — which yields exactly the verdict fields the race
    // produces, with fully reproducible work counters on top.
    bmc_prover(nullptr);
    if (bside.found) {
      claim.store(kClaimBmc);
    } else if (with_kind && bside.build_error.empty()) {
      kind_prover(nullptr);
      if (kside.result.status != bmc::KInductionStatus::Unknown) claim.store(kClaimKind);
    }
  } else {
    std::thread kind_thread;
    if (with_kind) kind_thread = std::thread([&] { kind_prover(&stop); });
    bmc_prover(&stop);
    if (kind_thread.joinable()) kind_thread.join();
  }

  const int who = claim.load(std::memory_order_acquire);
  // A race reports the winner's counters (the loser's depend on when it
  // was cancelled); sequential mode and a race nobody won report the
  // deterministic totals of both provers.
  if (job.budget.sequential_provers || who == kClaimNone) {
    add_counters(bside.stats, &r);
    if (kside.ran) add_counters(kside.result, &r);
  } else if (who == kClaimBmc) {
    add_counters(bside.stats, &r);
  } else {
    add_counters(kside.result, &r);
  }

  r.bmc_bounds_checked = bside.stats.bounds_checked;
  if (!bside.build_error.empty()) {
    // The model never built (deterministically — both provers see the
    // same source), so there is nothing a prover could have decided.
    // Report the diagnostic instead of aborting the campaign.
    r.verdict = Verdict::Unknown;
    r.note = bside.build_error;
  } else if (who == kClaimBmc) {
    r.verdict = Verdict::Falsified;
    r.winner = Prover::Bmc;
    r.trace_length = bside.found->length;
    if (!native) canonical_witness(job, r.trace_length, cone_cache, &bside);
    r.bad_label = bside.bad_label;
    r.witness = bside.witness_text;
    r.trace = bside.trace;
    r.loser_cancelled = kside.ran && kside.result.cancelled;
  } else if (who == kClaimKind) {
    r.winner = Prover::KInduction;
    r.loser_cancelled = bside.stats.cancelled;
    if (kside.result.status == bmc::KInductionStatus::Falsified) {
      r.verdict = Verdict::Falsified;
      r.trace_length = kside.result.witness ? kside.result.witness->length : 0;
      if (!native && kside.result.witness) {
        BmcSide canon;
        canonical_witness(job, r.trace_length, cone_cache, &canon);
        kside.witness_text = canon.witness_text;
        kside.bad_label = canon.bad_label;
        kside.trace = canon.trace;
      }
      r.bad_label = kside.bad_label;
      r.witness = kside.witness_text;
      r.trace = kside.trace;
    } else {
      r.verdict = Verdict::Proved;
      r.proved_k = kside.result.k;
    }
  } else {
    // No definite verdict from either prover. A completed BMC sweep is
    // itself a definite bounded result (BoundClean) even when the
    // induction side ran out of budget — only BMC's own budgets can
    // demote the verdict to Unknown. This keeps verdicts deterministic
    // under (deterministic) conflict budgets: a budget-truncated
    // k-induction run never changes the verdict, it only loses the
    // chance to upgrade it to Proved.
    if (bside.stats.hit_resource_limit || bside.stats.cancelled) {
      r.verdict = Verdict::Unknown;
      r.hit_resource_limit = true;
      // A memory-ceiling trip is deterministic for a fixed spec and
      // budget, so the diagnosis belongs in the stable form: the Unknown
      // row explains itself (docs/ROBUSTNESS.md).
      if (r.hit_memory_limit) r.note = "resource: memory";
    } else {
      r.verdict = Verdict::BoundClean;
      r.hit_resource_limit = kside.ran && kside.result.hit_resource_limit;
    }
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
  const std::shared_ptr<smt::ConeCache> cone_cache =
      options.cone_cache ? options.cone_cache : std::make_shared<smt::ConeCache>();

  // Work queue: an atomic cursor over the job list. Each worker pops the
  // next index and runs the job in full isolation; results land in spec
  // order so the report is independent of scheduling.
  std::atomic<std::size_t> next{0};
  const auto worker = [&]() {
    for (;;) {
      // Crash-only envelope: once SIGTERM/SIGINT raised the global stop,
      // claim no further jobs — in-flight ones wind down via the solver
      // stop poll, finished ones are already journaled, and the caller
      // flushes a resumable checkpoint (docs/ROBUSTNESS.md).
      if (fault::global_stop_requested()) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= spec.jobs.size()) return;
      report.jobs[i] = run_job(spec.jobs[i], cone_cache);
      report.jobs[i].spec_index = i;
      // Witness post-pass before the completion hook, so checkpoint
      // journals and verdict caches only ever record checked rows.
      witness_post_pass(spec.jobs[i], options.witness, &report.jobs[i]);
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
  std::snprintf(line, sizeof line, "%-34s %-8s %-12s %-6s %-12s %10s %9s\n", "job",
                "mode", "verdict", "len/k", "winner", "conflicts", "time");
  os << line;
  os << std::string(96, '-') << "\n";
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
    std::snprintf(line, sizeof line, "%-34s %-8s %-12s %-6s %-12s %10llu %8.2fs%s\n",
                  j.name.c_str(), mode.c_str(), verdict_name(j.verdict), lenk,
                  prover_name(j.winner), static_cast<unsigned long long>(j.conflicts),
                  j.seconds, j.loser_cancelled ? "  [loser cancelled]" : "");
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
       << ", \"total_jobs\": " << shard->total_jobs << "}";
  }
  if (include_timing) {
    if (!spec_digest.empty()) {
      os << ",\n  \"spec_digest\": ";
      json_escape(os, spec_digest);
    }
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
    // Winner, conflicts and timings depend on race scheduling; keeping
    // them out makes the no-timing report byte-stable across runs and
    // thread counts for a fixed spec.
    if (include_timing) {
      os << ", \"winner\": \"" << prover_name(j.winner) << "\"";
      os << ", \"conflicts\": " << j.conflicts;
      os << ", \"bmc_bounds_checked\": " << j.bmc_bounds_checked;
      os << ", \"loser_cancelled\": " << (j.loser_cancelled ? "true" : "false");
      os << ", \"hit_resource_limit\": " << (j.hit_resource_limit ? "true" : "false");
      // Cache traffic is workload-dependent scheduling detail (a verdict-
      // cache hit zeroes the solver counters entirely), so like the other
      // counters it stays out of the stable form.
      os << ", \"cone_lookups\": " << j.cone_lookups;
      os << ", \"cone_hits\": " << j.cone_hits;
      os << ", \"cone_clauses_replayed\": " << j.cone_clauses_replayed;
      os << ", \"eliminated_vars\": " << j.eliminated_vars;
      os << ", \"subsumed_clauses\": " << j.subsumed_clauses;
      os << ", \"vivified_clauses\": " << j.vivified_clauses;
      os << ", \"sat_retries\": " << j.sat_retries;
      os << ", \"hit_memory_limit\": " << (j.hit_memory_limit ? "true" : "false");
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
