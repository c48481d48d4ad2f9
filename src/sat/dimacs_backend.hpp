// dimacs_backend.hpp — subprocess DIMACS bridge (sat::Backend over an
// external solver binary).
//
// The backend buffers the formula as plain literal vectors; every
// solve() writes a DIMACS CNF file (assumptions appended as unit
// clauses), execs the external solver, and maps its exit status back
// (10 = SAT with "v" model lines, 20 = UNSAT). This trades incremental
// state for engine diversity: a kissat or cadical on the host races the
// native CDCL through the same seam.
//
// Solver discovery: the SEPE_EXTERNAL_SOLVER environment variable (an
// executable path or bare command name) wins; otherwise the PATH is
// probed for kissat, then cadical. When neither resolves the backend
// still constructs but reports available() == false, and its solves
// return Unknown — callers surface that as "unavailable", never as a
// solver failure (docs/SOLVER.md, "The DIMACS subprocess backend").
#pragma once

#include <string>
#include <vector>

#include "sat/backend.hpp"

namespace sepe::sat {

class DimacsBackend final : public Backend {
 public:
  /// Probes for an external solver (see file header). Never throws.
  DimacsBackend();

  /// False when no external solver resolved (see file header).
  bool available() const { return !solver_path_.empty(); }

  /// The resolved external solver command ("" when unavailable).
  const std::string& solver_path() const { return solver_path_; }

  int new_var() override;

  using Backend::add_clause;
  bool add_clause(std::vector<Lit> lits) override;

  using Backend::solve;
  SolveResult solve(const std::vector<Lit>& assumptions) override;

  using Backend::model_value;
  bool model_value(int var) const override {
    return var < static_cast<int>(model_.size()) && model_[var] == Value::True;
  }

  /// The subprocess exposes no search counters: only vars, clauses and
  /// retries (transient subprocess failures — spawn errors, stuck
  /// children we killed, truncated model output — absorbed by
  /// respawning the solver) are nonzero.
  Stats stats() const override {
    Stats s;
    s.vars = static_cast<std::uint64_t>(num_vars_);
    s.clauses = clauses_.size();
    s.retries = retries_;
    return s;
  }

 private:
  /// One spawn/solve/parse attempt. Returns true with *result set on a
  /// definite outcome (including honest Unknown for stop/budget);
  /// returns false on a transient failure worth retrying.
  bool solve_attempt(const std::vector<Lit>& assumptions, SolveResult* result);
  /// True when `model_` satisfies every clause and assumption — the
  /// guard that turns a truncated "v"-line model into a retry instead of
  /// a silently wrong answer.
  bool model_satisfies(const std::vector<Lit>& assumptions) const;

  std::string solver_path_;
  int num_vars_ = 0;
  bool root_unsat_ = false;
  std::uint64_t retries_ = 0;
  std::vector<std::vector<Lit>> clauses_;
  std::vector<Value> model_;
};

}  // namespace sepe::sat
