// backend.hpp — the IPASIR-style seam under every SAT consumer.
//
// Everything above the SAT layer (the bit-blaster, the SMT facade, BMC,
// k-induction, the campaign engine) talks to an abstract sat::Backend:
// add clauses, solve under assumptions, read a model, set budgets. The
// native CDCL solver (sat::Solver, solver.hpp) is the one engine behind
// it; the seam keeps the six members a second, independent
// implementation (an oracle to test the solver against) would need.
//
// The contract a conforming backend must honor is documented in
// docs/SOLVER.md ("The backend seam"): deterministic verdicts for
// deterministic budgets, global-stop polling inside solve(), and variable
// indices issued densely by new_var() so cone-cache replay tapes stay
// byte-exact.
#pragma once

#include <cstdint>
#include <vector>

#include "util/fault.hpp"

namespace sepe::sat {

/// A propositional literal: variable index plus sign. Encoded as
/// 2*var + (negated ? 1 : 0), the classic MiniSat representation.
class Lit {
 public:
  Lit() : code_(-2) {}
  Lit(int var, bool negated) : code_(2 * var + (negated ? 1 : 0)) {}

  static Lit from_code(int code) {
    Lit l;
    l.code_ = code;
    return l;
  }

  int var() const { return code_ >> 1; }
  bool sign() const { return code_ & 1; }  // true = negated
  int code() const { return code_; }
  Lit operator~() const { return from_code(code_ ^ 1); }

  friend bool operator==(Lit a, Lit b) { return a.code_ == b.code_; }
  friend bool operator!=(Lit a, Lit b) { return a.code_ != b.code_; }

 private:
  int code_;
};

enum class Value : std::uint8_t { False = 0, True = 1, Unknown = 2 };

inline Value operator^(Value v, bool sign) {
  if (v == Value::Unknown) return v;
  return static_cast<Value>(static_cast<std::uint8_t>(v) ^
                            static_cast<std::uint8_t>(sign));
}

/// Result of a solve() call.
enum class SolveResult { Sat, Unsat, Unknown /* resource limit hit */ };

/// Lifetime counters of one engine, read through Backend::stats().
/// Deterministic for a fixed clause stream; an engine that cannot
/// observe a counter reports 0 rather than guessing.
struct Stats {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t vars = 0;     // allocated by new_var()
  std::uint64_t clauses = 0;  // problem clauses held
  // Inprocessing work (docs/SOLVER.md); zero for engines without it.
  std::uint64_t eliminated_vars = 0;
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t vivified_clauses = 0;
  /// A solve degraded to Unknown because the memory ceiling
  /// (SolverConfig::memory_limit_mb) tripped. Sticky.
  bool out_of_memory = false;
};

/// Abstract incremental SAT engine (the IPASIR shape: add / assume /
/// solve / model, plus the budgets the campaign engine relies on and
/// one counter snapshot).
///
/// Budgets live in the base class so every engine inherits identical
/// semantics; solve() implementations must poll stop_requested() often
/// enough that a SIGTERM aborts a solve within microseconds.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Allocate a fresh variable; returns its index. Indices are dense,
  /// starting at 0, in allocation order (the cone cache replays tapes of
  /// recorded allocations and depends on this).
  virtual int new_var() = 0;

  /// Add a clause (disjunction of literals). Returns false if the engine
  /// is already in an unsatisfiable root state.
  virtual bool add_clause(std::vector<Lit> lits) = 0;
  bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) { return add_clause(std::vector<Lit>{a, b, c}); }

  SolveResult solve() { return solve({}); }
  virtual SolveResult solve(const std::vector<Lit>& assumptions) = 0;

  /// Value of a variable in the last satisfying assignment. Variables
  /// created after that solve read as false.
  virtual bool model_value(int var) const = 0;
  bool model_value(Lit l) const { return model_value(l.var()) ^ l.sign(); }

  /// Counters since construction (see Stats).
  virtual Stats stats() const = 0;

  /// Abort solve() with Unknown after this many conflicts (0 = no
  /// limit).
  void set_conflict_budget(std::uint64_t budget) { conflict_budget_ = budget; }
  std::uint64_t conflict_budget() const { return conflict_budget_; }

  /// Abort solve() with Unknown after this many wall-clock seconds
  /// (0 = no limit).
  void set_time_budget(double seconds) { time_budget_seconds_ = seconds; }
  double time_budget() const { return time_budget_seconds_; }

  /// True once the process-global crash-only stop (SIGTERM/SIGINT,
  /// fault::Action::Stop) is raised; solve() polls it and aborts with
  /// Unknown at the next poll point.
  bool stop_requested() const { return fault::global_stop_requested(); }

 protected:
  std::uint64_t conflict_budget_ = 0;
  double time_budget_seconds_ = 0.0;
};

}  // namespace sepe::sat
