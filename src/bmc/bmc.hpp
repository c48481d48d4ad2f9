// bmc.hpp — bounded model checking over transition systems.
//
// The "Pono seat" of the reproduction (§6.2): given a TransitionSystem
// with bad-state conditions, unroll the transition relation step by step
// into the incremental SMT facade and search for a reachable bad state.
// A found violation yields a Witness — the counterexample trace whose
// length Figure 4 compares between SQED and SEPE-SQED.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "smt/eval.hpp"
#include "smt/smt_solver.hpp"
#include "smt/subst.hpp"
#include "ts/transition_system.hpp"

namespace sepe::bmc {

/// A counterexample trace.
struct Witness {
  unsigned length = 0;      // bad state holds after `length` steps
  std::size_t bad_index = 0;
  std::string bad_label;
  /// Per step 0..length: concrete values of inputs and states.
  std::vector<smt::Assignment> inputs;
  std::vector<smt::Assignment> states;
};

struct BmcOptions {
  unsigned max_bound = 20;
  /// Per-check() SAT conflict cap (0 = unlimited).
  std::uint64_t conflict_budget_per_bound = 0;
  /// Overall wall-clock cap in seconds (0 = none). When hit, check()
  /// returns nullopt with hit_resource_limit set in the stats.
  double max_seconds = 0.0;
};

/// The solver stack's lifetime work (smt::Work: cumulative across
/// check() calls) plus the last check()'s sweep.
struct BmcStats : smt::Work {
  /// Bounds known violation-free, including ones proven by *earlier*
  /// check() calls on the same instance (the frontier): after
  /// check(max_bound=3) then check(max_bound=6), the second call reports
  /// the same stats a single check(max_bound=6) would have.
  unsigned bounds_checked = 0;
  double seconds = 0.0;
  bool hit_resource_limit = false;
  /// The process-global stop (fault::request_global_stop) interrupted
  /// the sweep, between bounds or inside the CDCL loop.
  bool cancelled = false;
};

/// The unrolling engine. One instance per (transition system, run).
///
/// check() is frontier-incremental: bounds proven violation-free stay
/// proven (assertions are monotone — unrolling only ever adds
/// constraints, and the bad condition is a retractable assumption), so a
/// repeated or deepened call resumes from the highest clean bound instead
/// of re-solving from 0. k-induction's loop (kind.hpp) leans on this:
/// it deepens the sweep one bound per k, with learned clauses carried
/// across bounds by the incremental core.
class Bmc {
 public:
  /// `config` tunes the underlying CDCL heuristics;
  /// `plaisted_greenbaum` = true opts into polarity-split encoding (the
  /// equivalence tests run both encodings against each other);
  /// `cone_cache` shares bit-blasted cones campaign-wide (cone_cache.hpp);
  /// `backend` picks the SAT engine (sat/backend.hpp).
  explicit Bmc(const ts::TransitionSystem& ts, const sat::SolverConfig& config = {},
               bool plaisted_greenbaum = false,
               std::shared_ptr<smt::ConeCache> cone_cache = nullptr,
               sat::BackendKind backend = sat::BackendKind::Native);

  /// Search for any bad state reachable within options.max_bound steps.
  /// Nullopt = no violation found up to the bound (or resource limit hit —
  /// inspect stats().hit_resource_limit to distinguish).
  std::optional<Witness> check(const BmcOptions& options);

  const BmcStats& stats() const { return stats_; }

  /// Bounds proven violation-free so far (the resume point of the next
  /// check() call).
  unsigned frontier() const { return frontier_; }

  /// The solver facade, for budget inspection by tests.
  const smt::SmtSolver& solver() const { return solver_; }

  /// The timed copy of a state/input variable at a step (for inspection
  /// and tests). Valid after check() has unrolled that far.
  smt::TermRef timed(smt::TermRef var, unsigned step) const;

 private:
  void unroll_to(unsigned step);

  const ts::TransitionSystem& ts_;
  smt::TermManager& mgr_;
  smt::SmtSolver solver_;
  /// step -> substitution (model var -> timed var/term).
  std::vector<smt::SubstMap> time_maps_;
  std::vector<smt::SubstMap> subst_caches_;
  BmcStats stats_;
  /// Number of leading bounds proven UNSAT across all check() calls.
  unsigned frontier_ = 0;
};

/// Render a witness as a human-readable trace table.
std::string witness_to_string(const ts::TransitionSystem& ts, const Witness& w);

}  // namespace sepe::bmc
