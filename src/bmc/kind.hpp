// kind.hpp — k-induction over transition systems, with BMC as its base
// case.
//
// BMC (bmc.hpp) can only ever *find* violations; k-induction can also
// *prove their absence* unboundedly, the second engine a Pono-style
// model checker ships (§6.2 toolchain seat). One loop runs both, in the
// incremental style of Eén & Sörensson ("Temporal Induction by
// Incremental SAT Solving", 2003). For k = 0, 1, …:
//
//   base      — BMC bound k: is a bad state reachable in exactly k
//               steps from init? Checked while k <= max_bound, the
//               falsification horizon. A hit is Falsified with a
//               witness.
//   inductive — from ANY state satisfying the step constraints, k
//               consecutive good steps imply a good step k+1. Checked
//               while 1 <= k <= max_k, the proof horizon. The check
//               starts from a fully symbolic state: init values and
//               init constraints are deliberately not assumed.
//
// An unsatisfiable step at k proves the property once bounds 0..k-1 are
// clean. When the step closes past max_bound, BMC is extended to k-1
// first, and a violation found there is still reported as Falsified.
// Without a closed step the result is Unknown; bound_clean says whether
// BMC swept 0..max_bound clean. A step that trips a budget forfeits only
// the proof: BMC still sweeps on to max_bound.
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
  /// Falsification horizon: BMC bounds 0..max_bound are swept. A step
  /// that closes at k > max_bound + 1 extends the sweep to its base case,
  /// bounds 0..k-1.
  unsigned max_bound = 0;
  /// Proof horizon: inductive steps 1..max_k (0 = BMC only).
  unsigned max_k = 10;
  /// Add pairwise state-disequality constraints over the inductive
  /// window (completeness for finite systems; expensive).
  bool simple_path = true;
  /// Per-solver-call conflict cap (0 = unlimited).
  std::uint64_t conflict_budget = 0;
  /// Overall wall-clock cap in seconds (0 = none).
  double max_seconds = 0.0;
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

/// smt::Work holds the totals across the base-case and inductive
/// solvers: SAT work counters, CNF sizes and cone-cache traffic.
struct KInductionResult : smt::Work {
  KInductionStatus status = KInductionStatus::Unknown;
  /// k at which the proof closed / the counterexample was found.
  unsigned k = 0;
  /// Counterexample when Falsified.
  std::optional<Witness> witness;
  /// Unknown only: BMC swept bounds 0..max_bound without a violation.
  bool bound_clean = false;
  /// BMC bounds attempted (BmcStats::bounds_checked).
  unsigned bmc_bounds_checked = 0;
  /// A conflict, wall or memory budget cut a BMC bound or a step short.
  bool hit_resource_limit = false;
  /// The process-global stop (fault::request_global_stop) interrupted
  /// the loop; never bound_clean.
  bool cancelled = false;
  double seconds = 0.0;
};

/// Run BMC and k-induction on every bad condition of `ts` (disjunctively:
/// a Falsified result pinpoints the violated one via the witness).
KInductionResult prove_by_k_induction(const ts::TransitionSystem& ts,
                                      const KInductionOptions& options);

}  // namespace sepe::bmc
