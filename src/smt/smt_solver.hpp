// smt_solver.hpp — quantifier-free bit-vector SMT solver facade.
//
// The "Boolector seat" of the reproduction: CEGIS synthesis queries,
// CEGIS verification queries and BMC unrollings all go through this
// class. Solving is eager bit-blasting onto the in-repo CDCL core.
//
// The interface is deliberately close to an incremental SMT-LIB session:
// assert_formula() adds permanent constraints, check(assumptions) solves
// under retractable 1-bit assumptions (used by CEGIS to switch candidate
// programs without rebuilding the encoding), and value() reads back a
// model.
//
// Asserted formulas and assumptions are blasted at positive polarity, so
// under the opt-in Plaisted–Greenbaum mode interior gate literals are
// only constrained in the direction the query needs. Model read-back
// therefore never trusts gate literals: value() reads the model bits of
// the *variables* and evaluates the term over them, which is exact under
// any encoding polarity (and avoids the old re-solve-to-extend-the-model
// dance).
#pragma once

#include <memory>
#include <vector>

#include "sat/solver.hpp"
#include "smt/bitblast.hpp"
#include "smt/eval.hpp"
#include "smt/term.hpp"
#include "smt/work.hpp"

namespace sepe::smt {

enum class Result { Sat, Unsat, Unknown };

class SmtSolver {
 public:
  /// `config` tunes the CDCL heuristics.
  /// `plaisted_greenbaum` = true opts into polarity-split encoding (see
  /// bitblast.hpp for why full Tseitin is the default).
  /// `cone_cache`, when non-null, shares bit-blasted cones with the other
  /// solver stacks of a campaign (see cone_cache.hpp).
  explicit SmtSolver(TermManager& mgr, const sat::SolverConfig& config = {},
                     bool plaisted_greenbaum = false,
                     std::shared_ptr<ConeCache> cone_cache = nullptr)
      : mgr_(mgr),
        sat_(config),
        blaster_(mgr, sat_, plaisted_greenbaum, std::move(cone_cache)) {}
  // The blaster holds a reference to sat_, so the stack stays in place.
  SmtSolver(const SmtSolver&) = delete;
  SmtSolver& operator=(const SmtSolver&) = delete;

  TermManager& mgr() { return mgr_; }

  /// Permanently assert a 1-bit term.
  void assert_formula(TermRef t);

  Result check() { return check({}); }
  /// Solve under retractable assumptions (1-bit terms).
  Result check(const std::vector<TermRef>& assumptions);

  /// Model value of a term after Sat: the term evaluated over the model
  /// values of its variables. Variables never mentioned in any asserted
  /// formula or assumption read as zero (don't-care completion).
  BitVec value(TermRef t);

  /// Model values for a set of variables, as an Assignment usable by the
  /// Evaluator (CEGIS counterexample extraction).
  Assignment values(const std::vector<TermRef>& vars);

  /// Abort check() with Unknown after this many SAT conflicts (0 = off).
  void set_conflict_budget(std::uint64_t budget) { sat_.set_conflict_budget(budget); }
  std::uint64_t conflict_budget() const { return sat_.conflict_budget(); }

  /// Abort check() with Unknown after this many wall seconds (0 = off).
  void set_time_budget(double seconds) { sat_.set_time_budget(seconds); }
  double time_budget() const { return sat_.time_budget(); }

  /// True once the process-global crash-only stop is raised (see
  /// sat::Backend::stop_requested); check() then returns Unknown.
  bool stop_requested() const { return sat_.stop_requested(); }

  /// This stack's lifetime work: the SAT engine's counters, the CNF
  /// size and the blaster's cone-cache traffic (zeros when uncached).
  Work work() const;

 private:
  TermManager& mgr_;
  sat::Solver sat_;
  BitBlaster blaster_;
  bool last_sat_ = false;
  /// Lazily built per Sat result: model values of every blasted variable
  /// plus the evaluator memo over them. Invalidated by the next check().
  std::unique_ptr<Evaluator> evaluator_;
  Assignment model_vals_;
};

}  // namespace sepe::smt
