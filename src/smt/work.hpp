// work.hpp — the work counters of a solver stack, defined once.
//
// Every layer above the SAT seam reports the same counters: bmc::BmcStats
// and bmc::KInductionResult derive from Work, a campaign JobResult holds
// one, and the report writers, the perf bench and the determinism test
// iterate kWorkCounters instead of naming fields. SmtSolver::work() is
// the one place that translates the backend's sat::Stats and the
// blaster's cone-cache traffic into a Work.
#pragma once

#include <cstdint>

namespace sepe::smt {

/// Lifetime totals of one or more solver stacks.
struct Work {
  std::uint64_t solver_conflicts = 0;
  std::uint64_t solver_propagations = 0;
  std::uint64_t solver_decisions = 0;
  std::uint64_t cnf_vars = 0;
  std::uint64_t cnf_clauses = 0;
  std::uint64_t cone_lookups = 0;
  std::uint64_t cone_hits = 0;
  std::uint64_t cone_clauses_replayed = 0;
  std::uint64_t eliminated_vars = 0;
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t vivified_clauses = 0;
  /// A SAT engine degraded to Unknown on its memory ceiling (sticky;
  /// docs/ROBUSTNESS.md).
  bool hit_memory_limit = false;

  Work& operator+=(const Work& other);
};

/// One counter of Work: its report key, its member, and whether it is
/// the same at any thread count for a fixed spec.
struct WorkCounter {
  const char* name;
  decltype(&Work::solver_conflicts) member;  // any std::uint64_t member of Work
  bool deterministic;
};

/// Every counter, in report order. Only the cone-cache traffic depends
/// on scheduling: which job of a campaign blasts a shared cone first,
/// and which replays it.
inline constexpr WorkCounter kWorkCounters[] = {
    {"conflicts", &Work::solver_conflicts, true},
    {"propagations", &Work::solver_propagations, true},
    {"decisions", &Work::solver_decisions, true},
    {"cnf_vars", &Work::cnf_vars, true},
    {"cnf_clauses", &Work::cnf_clauses, true},
    {"cone_lookups", &Work::cone_lookups, false},
    {"cone_hits", &Work::cone_hits, false},
    {"cone_clauses_replayed", &Work::cone_clauses_replayed, false},
    {"eliminated_vars", &Work::eliminated_vars, true},
    {"subsumed_clauses", &Work::subsumed_clauses, true},
    {"vivified_clauses", &Work::vivified_clauses, true},
};

inline Work& Work::operator+=(const Work& other) {
  for (const WorkCounter& c : kWorkCounters) this->*c.member += other.*c.member;
  hit_memory_limit = hit_memory_limit || other.hit_memory_limit;
  return *this;
}

}  // namespace sepe::smt
