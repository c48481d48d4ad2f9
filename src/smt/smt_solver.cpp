#include "smt/smt_solver.hpp"

#include <cassert>

namespace sepe::smt {

void SmtSolver::assert_formula(TermRef t) {
  assert(mgr_.width(t) == 1);
  sat_->add_clause(blaster_.blast_bit(t, BitBlaster::kPos));
}

Result SmtSolver::check(const std::vector<TermRef>& assumptions) {
  std::vector<sat::Lit> lits;
  lits.reserve(assumptions.size());
  for (TermRef t : assumptions) {
    assert(mgr_.width(t) == 1);
    lits.push_back(blaster_.blast_bit(t, BitBlaster::kPos));
  }
  evaluator_.reset();
  model_vals_.clear();
  switch (sat_->solve(lits)) {
    case sat::SolveResult::Sat: last_sat_ = true; return Result::Sat;
    case sat::SolveResult::Unsat: last_sat_ = false; return Result::Unsat;
    case sat::SolveResult::Unknown: last_sat_ = false; return Result::Unknown;
  }
  return Result::Unknown;
}

Work SmtSolver::work() const {
  const sat::Stats s = sat_->stats();
  const BitBlaster::ConeStats& cone = blaster_.cone_stats();
  Work w;
  w.solver_conflicts = s.conflicts;
  w.solver_propagations = s.propagations;
  w.solver_decisions = s.decisions;
  w.cnf_vars = s.vars;
  w.cnf_clauses = s.clauses;
  w.cone_lookups = cone.lookups;
  w.cone_hits = cone.hits;
  w.cone_clauses_replayed = cone.clauses_replayed;
  w.eliminated_vars = s.eliminated_vars;
  w.subsumed_clauses = s.subsumed_clauses;
  w.vivified_clauses = s.vivified_clauses;
  w.sat_retries = s.retries;
  w.hit_memory_limit = s.out_of_memory;
  return w;
}

BitVec SmtSolver::value(TermRef t) {
  assert(last_sat_ && "value() requires a Sat result");
  if (!evaluator_) {
    // Build the model support once per Sat result: the model bits of
    // every variable the encoding knows about. Terms are then read back
    // by evaluation, which is exact whatever polarity their gates were
    // encoded at — interior gate literals are never trusted.
    for (TermRef v : blaster_.blasted_vars()) {
      const auto& bits = blaster_.blast(v);
      std::uint64_t val = 0;
      for (std::size_t i = 0; i < bits.size(); ++i)
        if (sat_->model_value(bits[i])) val |= 1ULL << i;
      model_vals_.emplace(v, BitVec(static_cast<unsigned>(bits.size()), val));
    }
    evaluator_ = std::make_unique<Evaluator>(mgr_);
  }
  return evaluator_->eval(t, model_vals_);
}

Assignment SmtSolver::values(const std::vector<TermRef>& vars) {
  Assignment a;
  for (TermRef v : vars) a.emplace(v, value(v));
  return a;
}

}  // namespace sepe::smt
