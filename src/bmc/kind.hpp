// kind.hpp — k-induction over transition systems.
//
// BMC (bmc.hpp) can only ever *find* violations; k-induction can also
// *prove their absence* unboundedly, the second engine a Pono-style
// model checker ships (§6.2 toolchain seat). For each k:
//
//   base      — no bad state is reachable within k steps from init
//               (delegated to the BMC unroller);
//   inductive — from ANY state satisfying the step constraints, k
//               consecutive good steps imply a good step k+1. The check
//               starts from a fully symbolic state: init values and
//               init constraints are deliberately not assumed.
//
// If the base check finds a trace the property is Falsified with a
// witness; if the inductive query is unsatisfiable the property is
// Proved for every depth; otherwise k grows until max_k, and the result
// is Unknown.
//
// An optional simple-path constraint (all states in the inductive
// window pairwise distinct) makes the method complete for finite
// systems at the cost of quadratically many disequalities.
#pragma once

#include <optional>

#include "bmc/bmc.hpp"

namespace sepe::bmc {

enum class KInductionStatus { Proved, Falsified, Unknown };

struct KInductionOptions {
  unsigned max_k = 10;
  /// Add pairwise state-disequality constraints over the inductive
  /// window (completeness for finite systems; expensive).
  bool simple_path = true;
  /// Per-solver-call conflict cap (0 = unlimited).
  std::uint64_t conflict_budget = 0;
  /// Overall wall-clock cap in seconds (0 = none).
  double max_seconds = 0.0;
  /// Cooperative cancellation, threaded into both the base-case BMC and
  /// the inductive-step solver (see BmcOptions::stop).
  const std::atomic<bool>* stop = nullptr;
  /// CDCL heuristics of both internal solvers.
  sat::SolverConfig solver_config;
  /// Polarity-split (Plaisted–Greenbaum) bit-blasting in both internal
  /// solvers (see Bmc's constructor flag). Off = full Tseitin.
  bool plaisted_greenbaum = false;
  /// Campaign-wide cone sharing for both internal solvers (cone_cache.hpp).
  std::shared_ptr<smt::ConeCache> cone_cache;
  /// SAT engine for both internal solvers (sat/backend.hpp).
  sat::BackendKind backend = sat::BackendKind::Native;
};

struct KInductionResult {
  KInductionStatus status = KInductionStatus::Unknown;
  /// k at which the proof closed / the counterexample was found.
  unsigned k = 0;
  /// Counterexample when Falsified.
  std::optional<Witness> witness;
  bool hit_resource_limit = false;
  bool cancelled = false;
  double seconds = 0.0;
  /// Totals across the base-case and inductive solvers: SAT work
  /// counters (deterministic proxies) and CNF sizes.
  std::uint64_t solver_conflicts = 0;
  std::uint64_t solver_propagations = 0;
  std::uint64_t solver_decisions = 0;
  std::uint64_t cnf_vars = 0;
  std::uint64_t cnf_clauses = 0;
  /// Cone-cache traffic across both solvers (zero when uncached).
  std::uint64_t cone_lookups = 0;
  std::uint64_t cone_hits = 0;
  std::uint64_t cone_clauses_replayed = 0;
  /// Inprocessing totals across both solvers (zero when off/unsupported).
  std::uint64_t eliminated_vars = 0;
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t vivified_clauses = 0;
  /// Robustness observables across both solvers (docs/ROBUSTNESS.md).
  bool hit_memory_limit = false;
  std::uint64_t sat_retries = 0;
};

/// Run k-induction on every bad condition of `ts` (disjunctively: a
/// Falsified result pinpoints the violated one via the witness).
KInductionResult prove_by_k_induction(const ts::TransitionSystem& ts,
                                      const KInductionOptions& options);

}  // namespace sepe::bmc
