// campaign.hpp — the parallel verification-campaign engine.
//
// The paper's headline experiments (Table 1, Fig. 3/4) are embarrassingly
// parallel sweeps: instruction classes × QED mode {EDDI-V, EDSEP-V} ×
// injected mutation, each cell an independent model-checking run. This
// engine is the architectural seam those sweeps (and every future scaling
// direction — sharding, multi-backend) plug into:
//
//   * a CampaignSpec is a declarative list of verification jobs; where
//     the jobs come from is a *workload family* concern (engine/
//     workload.hpp): the QED matrix cross-product and BTOR2 corpus
//     directories both expand into the same JobSpec shape, and this
//     layer never knows which family produced a job beyond the
//     provenance tag it carries into reports;
//   * a work-queue thread pool fans jobs out, one isolated TermManager /
//     solver stack per job (nothing below the engine is shared, so no
//     locking in the hot path);
//   * each job runs one prover loop on its worker thread
//     (bmc::prove_by_k_induction): BMC bound k, then the inductive step
//     at k, for k = 0, 1, … — BMC up to the falsification horizon
//     (JobBudget::max_bound), steps up to the proof horizon (max_k);
//   * results aggregate into a CampaignReport that is deterministic for a
//     fixed spec — verdicts, trace lengths, proof depths and the SAT work
//     counters are identical whatever the thread count, because nothing
//     in a job's search depends on scheduling. Caveat: the guarantee needs
//     deterministic budgets — conflict budgets qualify, wall-clock caps
//     (JobBudget::max_seconds) do not, since a cap that fires earlier
//     under core contention can demote a verdict to Unknown.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bmc/bmc.hpp"
#include "bmc/kind.hpp"

namespace sepe::engine {

struct WitnessTrace;  // engine/witness.hpp

/// Final answer for one job.
enum class Verdict {
  Falsified,   // BMC found a counterexample
  Proved,      // k-induction closed: no violation at any depth
  BoundClean,  // BMC swept 0..max_bound cleanly; no proof within max_k
               // (or a step's budget)
  Unknown,     // a resource budget cut the BMC sweep itself short, or
               // the model itself failed to build (JobResult::note)
};
const char* verdict_name(Verdict v);

/// Which prover delivered the verdict: BMC for FALSIFIED rows,
/// k-induction for PROVED rows, none otherwise.
enum class Prover { None, Bmc, KInduction };
const char* prover_name(Prover p);

/// Workload-family tags (JobProvenance::family).
inline constexpr const char* kQedFamily = "qed";
inline constexpr const char* kBtor2Family = "btor2";

/// Where a job came from: which workload family expanded it, from which
/// source, and which of the source's properties it checks. Stamped into
/// JobResult and the report columns, and folded into verdict-journal
/// keys so a resume under changed sources misses and re-solves.
struct JobProvenance {
  std::string family = kQedFamily;  // workload family tag
  /// Family-specific source id — e.g. the corpus-relative file path of
  /// a BTOR2 job. QED matrix jobs leave it empty (their names already
  /// encode mutation × mode).
  std::string source;
  unsigned property = 0;  // bad-property index within the source
  /// Hash of the source's content (corpus file bytes), covered by the
  /// verdict-journal key. Empty for in-process model builders.
  std::string content_digest;
  /// Legacy QED report column ("EDDI-V" / "EDSEP-V"). Non-QED families
  /// leave it empty and report workload/source/property instead; the
  /// default keeps hand-built JobSpecs byte-compatible with the
  /// pre-workload report dialect.
  std::string mode = "EDDI-V";
};

/// Search budgets for one job.
struct JobBudget {
  unsigned max_bound = 10;  // falsification horizon: BMC bounds 0..max_bound
  unsigned max_k = 10;      // proof horizon: inductive steps 1..max_k (0 = BMC only)
  std::uint64_t conflict_budget = 0;  // per-solver-call cap (0 = none)
  double max_seconds = 0.0;           // per-job wall cap (0 = none)
  /// Bit-blasting encoding for both solvers. nullopt = the workload
  /// family's default, resolved at expansion: QED keeps full Tseitin
  /// (Plaisted–Greenbaum measured ~7% MORE conflicts there, PR 3),
  /// the BTOR2 corpus family turns PG on (measured ~11% FEWER conflicts
  /// on the committed mini-corpus). Verdict-bearing report fields are
  /// encoding-independent either way.
  std::optional<bool> plaisted_greenbaum;
  /// SAT engine behind both solvers (sat/backend.hpp). Part of the
  /// verdict-cache key: a campaign solved by a different engine is a
  /// different campaign. Witnesses are always
  /// re-derived with the native default-config replay, so stable JSON is
  /// backend-independent for definite verdicts.
  sat::BackendKind backend = sat::BackendKind::Native;
  /// Per-solver SAT-arena memory ceiling in MiB (0 = none). A job whose
  /// solvers outgrow it degrades to Verdict::Unknown with a
  /// "resource: memory" note — a diagnosed row, never a process abort.
  /// Deterministic (the arena is a pure function of the clause stream),
  /// so it is part of the verdict-cache key.
  unsigned memory_limit_mb = 0;
};

/// One verification job: a self-contained model builder plus budgets.
/// `build` runs on a worker thread against a job-local TransitionSystem /
/// TermManager, so it must not touch mutable shared state. It returns
/// false and sets *error (never null) on failure — e.g. a malformed
/// corpus file parsed on the worker — and the engine then reports the
/// job as Verdict::Unknown with the diagnostic in JobResult::note
/// instead of aborting the campaign.
struct JobSpec {
  std::string name;
  std::function<bool(ts::TransitionSystem&, std::string*)> build;
  JobProvenance provenance;
  JobBudget budget;
};

/// A campaign: ordered jobs plus the RNG seed recorded in the report
/// (and used by spec generators that sample, e.g. sepe-run's random
/// opcode subsets). The engine itself is deterministic for a fixed spec.
struct CampaignSpec {
  std::vector<JobSpec> jobs;
  std::uint64_t seed = 1;
};

/// One slice of a campaign: shard `index` of `count` equal partitions of
/// the expanded job list (see engine/shard.hpp for the planner).
struct ShardSpec {
  unsigned index = 0;  // 0-based
  unsigned count = 1;  // total shards of the spec
};

/// Per-job outcome. Everything but the timings and the cone-cache
/// traffic is deterministic for a fixed spec; only the verdict-bearing
/// fields (verdict, trace_length, proved_k, bad_label, note) travel in
/// stable reports.
struct JobResult {
  std::string name;
  std::size_t spec_index = 0;  // position in the full (unsharded) spec
  JobProvenance provenance;
  Verdict verdict = Verdict::Unknown;
  Prover winner = Prover::None;
  unsigned trace_length = 0;  // Falsified: counterexample length
  unsigned proved_k = 0;      // Proved: depth at which induction closed
  std::string bad_label;      // Falsified: which bad condition fired
  std::string witness;        // Falsified: rendered trace table
  /// Unknown: the model-build diagnostic (e.g. a corpus parse error with
  /// its line number). Deterministic, so it travels in stable reports.
  std::string note;
  unsigned bmc_bounds_checked = 0;
  bool hit_resource_limit = false;
  /// Totals across the job's BMC and inductive-step solvers (timing
  /// report only; zero for a row served from a verdict cache). The cone
  /// traffic depends on scheduling, the rest is deterministic.
  smt::Work work;
  /// True when the verdict was loaded from a campaign verdict cache
  /// (engine/verdict_cache.hpp) instead of being solved in-process.
  bool from_cache = false;
  /// Witness pipeline (engine/witness.hpp; timing report only — the
  /// post-pass is observationally invisible to the stable form).
  /// witness_checked: this FALSIFIED row's trace was independently
  /// replayed (and shrunk) by the concrete simulator after the solve.
  /// trace_length_shrunk: the delta-debugged effective stimulus length,
  /// always <= trace_length. Deterministic for a fixed spec.
  bool witness_checked = false;
  unsigned trace_length_shrunk = 0;
  /// Falsified: the index-ordered trace of the counterexample. run_job
  /// sets the raw trace (alongside `witness`); the witness post-pass
  /// replaces it with the checked, shrunk one. The verdict journal
  /// records whichever is here. Never serialized in reports.
  std::shared_ptr<const WitnessTrace> trace;
  /// Falsified, served from a verdict cache: the journaled stimulus
  /// (engine/witness.hpp render_stimulus), which the witness post-pass
  /// parses against the rebuilt model and replays. Empty otherwise.
  std::string stimulus;
  double seconds = 0.0;  // job wall time
};

/// Witness post-pass configuration (engine/witness.hpp).
struct WitnessOptions {
  /// Replay + shrink every FALSIFIED verdict; a trace that does not
  /// replay demotes its row to a diagnosed UNKNOWN ("witness: replay
  /// mismatch"). Opt-out (sepe-run --no-witness-check): the check is the
  /// default correctness backstop, not an extra.
  bool check = true;
  /// When non-empty: write one standalone artifact per checked job into
  /// this directory (witness_artifact_filename), re-validatable by
  /// `sepe-run check-witness` without the SAT stack.
  std::string artifact_dir;
};

struct CampaignOptions {
  unsigned threads = 1;  // worker count (0 = hardware_concurrency)
  /// Witness replay/shrink post-pass, applied to every finished job
  /// before on_job_done fires (so journals and caches record the
  /// checked row).
  WitnessOptions witness;
  /// Called after each job completes with its spec position and result.
  /// Invoked from worker threads without serialization — the callback
  /// must synchronize itself. Used by the journaling shard runner. A job
  /// the global stop left UNKNOWN is not reported: its row stays
  /// unclaimed (empty name).
  std::function<void(std::size_t, const JobResult&)> on_job_done;
  /// Cone store shared by every job of the campaign. When null,
  /// run_campaign creates a fresh one per call — pass one explicitly to
  /// share blasted cones across *campaigns* in the same process (as
  /// bench/campaign_perf's warm run does).
  std::shared_ptr<smt::ConeCache> cone_cache;
};

struct CampaignReport {
  /// Present on reports produced by a sharded run: which slice of the
  /// full expanded job list this report covers. Reports carrying shard
  /// metadata also emit per-job spec_index, so a merge can restore the
  /// original spec order; unsharded (and merged) reports omit both,
  /// keeping their stable JSON byte-identical to a single-process run.
  struct ShardInfo {
    ShardSpec shard;
    std::uint64_t total_jobs = 0;  // job count of the full spec
  };

  std::vector<JobResult> jobs;  // in spec order, regardless of threads
  std::uint64_t seed = 0;
  unsigned threads = 0;
  double wall_seconds = 0.0;
  std::optional<ShardInfo> shard;

  unsigned count(Verdict v) const;
  /// Human-readable per-job stats table.
  std::string to_table() const;
  /// Machine-readable report. With include_timing=false only the
  /// deterministic fields are emitted (byte-identical across runs and
  /// thread counts for a fixed spec). QED-family jobs keep the original
  /// report dialect (a "mode" column); other families report
  /// workload/source/property provenance columns instead.
  std::string to_json(bool include_timing = true) const;

  /// Combine per-shard reports into the report of the full campaign.
  /// Order-insensitive and deterministic: any permutation of the same
  /// disjoint shard set yields the same report, whose stable JSON is
  /// byte-identical to an unsharded run of the spec. Rejects (returns
  /// nullopt, sets *error) inputs that are not shard reports, disagree
  /// on seed/count/total, overlap, or fail to cover every job id.
  static std::optional<CampaignReport> merge(const std::vector<CampaignReport>& shards,
                                             std::string* error);
};

/// Run one job on the calling thread: build its model once and run the
/// prover loop on it. `cone_cache` (may be null) is shared by every
/// solver stack the job spins up — BMC, the inductive step and the
/// canonical witness replay hit the same store.
JobResult run_job(const JobSpec& job,
                  const std::shared_ptr<smt::ConeCache>& cone_cache = nullptr);

/// Fan the campaign out over a worker pool and aggregate the report.
CampaignReport run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options = {});

}  // namespace sepe::engine
