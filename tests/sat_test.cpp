// Unit and property tests for the CDCL SAT solver.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace sepe::sat {
namespace {

TEST(Sat, TrivialSat) {
  Solver s;
  const int a = s.new_var();
  s.add_clause(Lit(a, false));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Sat, TrivialUnsat) {
  Solver s;
  const int a = s.new_var();
  s.add_clause(Lit(a, false));
  s.add_clause(Lit(a, true));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Sat, EmptyClauseIsUnsat) {
  Solver s;
  const int a = s.new_var();
  s.add_clause(Lit(a, false));
  EXPECT_FALSE(s.add_clause(std::vector<Lit>{Lit(a, true)}));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Sat, UnitPropagationChain) {
  Solver s;
  std::vector<int> v;
  for (int i = 0; i < 20; ++i) v.push_back(s.new_var());
  // v0 and (vi -> vi+1) force all true.
  s.add_clause(Lit(v[0], false));
  for (int i = 0; i + 1 < 20; ++i) s.add_clause(Lit(v[i], true), Lit(v[i + 1], false));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(s.model_value(v[i]));
}

TEST(Sat, TautologyIgnored) {
  Solver s;
  const int a = s.new_var();
  EXPECT_TRUE(s.add_clause(Lit(a, false), Lit(a, true)));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Sat, PigeonHole3Into2IsUnsat) {
  // PHP(3,2): classic small unsat instance that requires real search.
  Solver s;
  int p[3][2];
  for (auto& row : p)
    for (int& x : row) x = s.new_var();
  for (auto& row : p) s.add_clause(Lit(row[0], false), Lit(row[1], false));
  for (int h = 0; h < 2; ++h)
    for (int i = 0; i < 3; ++i)
      for (int j = i + 1; j < 3; ++j)
        s.add_clause(Lit(p[i][h], true), Lit(p[j][h], true));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Sat, PigeonHole6Into5IsUnsat) {
  Solver s;
  constexpr int N = 6, H = 5;
  int p[N][H];
  for (auto& row : p)
    for (int& x : row) x = s.new_var();
  for (auto& row : p) {
    std::vector<Lit> clause;
    for (int x : row) clause.emplace_back(x, false);
    s.add_clause(clause);
  }
  for (int h = 0; h < H; ++h)
    for (int i = 0; i < N; ++i)
      for (int j = i + 1; j < N; ++j)
        s.add_clause(Lit(p[i][h], true), Lit(p[j][h], true));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Sat, AssumptionsSatAndUnsat) {
  Solver s;
  const int a = s.new_var(), b = s.new_var();
  s.add_clause(Lit(a, true), Lit(b, false));  // a -> b
  EXPECT_EQ(s.solve({Lit(a, false)}), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(b));
  s.add_clause(Lit(b, true));  // now b must be false => a must be false
  EXPECT_EQ(s.solve({Lit(a, false)}), SolveResult::Unsat);
  // Solver stays usable and consistent afterwards (incrementality).
  EXPECT_EQ(s.solve({Lit(a, true)}), SolveResult::Sat);
  EXPECT_FALSE(s.model_value(a));
}

TEST(Sat, IncrementalClauseAddition) {
  Solver s;
  std::vector<int> v;
  for (int i = 0; i < 8; ++i) v.push_back(s.new_var());
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  // Progressively pin variables; stays sat until contradiction.
  for (int i = 0; i < 8; ++i) {
    s.add_clause(Lit(v[i], false));
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.model_value(v[i]));
  }
  s.add_clause(Lit(v[3], true));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
  // A hard instance (PHP 8 into 7) with a tiny budget must give Unknown.
  Solver s;
  constexpr int N = 8, H = 7;
  std::vector<std::vector<int>> p(N, std::vector<int>(H));
  for (auto& row : p)
    for (int& x : row) x = s.new_var();
  for (auto& row : p) {
    std::vector<Lit> clause;
    for (int x : row) clause.emplace_back(x, false);
    s.add_clause(clause);
  }
  for (int h = 0; h < H; ++h)
    for (int i = 0; i < N; ++i)
      for (int j = i + 1; j < N; ++j)
        s.add_clause(Lit(p[i][h], true), Lit(p[j][h], true));
  s.set_conflict_budget(10);
  EXPECT_EQ(s.solve(), SolveResult::Unknown);
  s.set_conflict_budget(0);
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

// Reference brute-force checker for random property tests.
bool brute_force_sat(int nvars, const std::vector<std::vector<Lit>>& clauses) {
  for (int m = 0; m < (1 << nvars); ++m) {
    bool ok = true;
    for (const auto& c : clauses) {
      bool sat = false;
      for (Lit l : c)
        if (((m >> l.var()) & 1) != static_cast<int>(l.sign())) sat = true;
      if (!sat) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

class SatRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomTest, AgreesWithBruteForceOnRandom3Sat) {
  // Random 3-SAT near the phase transition (ratio ~4.3), cross-checked
  // against exhaustive enumeration; model validity checked on Sat.
  Rng rng(GetParam());
  constexpr int kVars = 10;
  const int n_clauses = 43;
  for (int round = 0; round < 20; ++round) {
    Solver s;
    for (int i = 0; i < kVars; ++i) s.new_var();
    std::vector<std::vector<Lit>> clauses;
    for (int i = 0; i < n_clauses; ++i) {
      std::vector<Lit> c;
      for (int j = 0; j < 3; ++j)
        c.emplace_back(static_cast<int>(rng.below(kVars)), rng.flip());
      clauses.push_back(c);
      s.add_clause(c);
    }
    const bool expect_sat = brute_force_sat(kVars, clauses);
    const auto r = s.solve();
    ASSERT_EQ(r, expect_sat ? SolveResult::Sat : SolveResult::Unsat);
    if (expect_sat) {
      for (const auto& c : clauses) {
        bool sat = false;
        for (Lit l : c)
          if (s.model_value(l)) sat = true;
        EXPECT_TRUE(sat) << "model does not satisfy a clause";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomTest, ::testing::Range(1, 9));

// --- SolverConfig: verdict agreement across heuristics ---

/// Four structurally different search trajectories: the default, long
/// restart bursts with eager inprocessing, frequent restarts without
/// elimination or vivification, and inprocessing off.
std::vector<SolverConfig> diverse_configs() {
  std::vector<SolverConfig> configs(4);
  configs[1].restart_base = 200;
  configs[1].inprocess_interval = 2000;
  configs[2].restart_base = 10;
  configs[2].bve_occurrence_limit = 0;
  configs[2].vivify = false;
  configs[3].restart_base = 100;
  configs[3].inprocess_interval = 0;
  return configs;
}

/// Pigeonhole: n+1 pigeons into n holes (UNSAT) — every config must
/// agree, whatever its restart and inprocessing policy.
void add_pigeonhole(Solver& s, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<int>> var(pigeons, std::vector<int>(holes));
  for (int p = 0; p < pigeons; ++p)
    for (int h = 0; h < holes; ++h) var[p][h] = s.new_var();
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(Lit(var[p][h], false));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_clause(Lit(var[p1][h], true), Lit(var[p2][h], true));
}

TEST(SolverConfig, AllConfigsRefutePigeonhole) {
  const std::vector<SolverConfig> configs = diverse_configs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Solver s(configs[i]);
    add_pigeonhole(s, 5);
    EXPECT_EQ(s.solve(), SolveResult::Unsat) << "config " << i;
  }
}

TEST(SolverConfig, AllConfigsAgreeOnRandom3Sat) {
  // Random 3-SAT at the satisfiability threshold: every config must
  // return the same verdict as the default solver, and Sat models must
  // satisfy the clauses.
  const std::vector<SolverConfig> configs = diverse_configs();
  Rng rng(0xc0ffee);
  for (int round = 0; round < 20; ++round) {
    const int nvars = 14;
    const int nclauses = 60;
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < nclauses; ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k)
        cl.push_back(Lit(static_cast<int>(rng.below(nvars)), rng.flip()));
      clauses.push_back(cl);
    }
    SolveResult reference = SolveResult::Unknown;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      Solver s(configs[i]);
      for (int v = 0; v < nvars; ++v) s.new_var();
      bool root_conflict = false;
      for (const auto& cl : clauses)
        if (!s.add_clause(cl)) root_conflict = true;
      const SolveResult r = root_conflict ? SolveResult::Unsat : s.solve();
      if (i == 0) {
        reference = r;
      } else {
        EXPECT_EQ(r, reference) << "config " << i << " round " << round;
      }
      if (r == SolveResult::Sat) {
        for (const auto& cl : clauses) {
          bool sat = false;
          for (Lit l : cl) sat |= s.model_value(l);
          EXPECT_TRUE(sat) << "config " << i << " model violates a clause";
        }
      }
    }
  }
}

// --- search fingerprint ---
//
// Exact search counters on fixed instances. A change meant to make the
// solver faster without changing its search (data layout, allocation,
// inlining) must leave every number here untouched; a change that moves
// one changed decisions, learnt clauses or inprocessing, and re-pins it
// on purpose. Each instance stays far below the ~40K conflicts at which
// clause-activity rescaling starts to matter.

struct Fingerprint {
  std::uint64_t conflicts, decisions, propagations;
  std::uint64_t eliminated_vars, subsumed_clauses, vivified_clauses;
};

void expect_fingerprint(const Stats& s, const Fingerprint& want) {
  EXPECT_EQ(s.conflicts, want.conflicts);
  EXPECT_EQ(s.decisions, want.decisions);
  EXPECT_EQ(s.propagations, want.propagations);
  EXPECT_EQ(s.eliminated_vars, want.eliminated_vars);
  EXPECT_EQ(s.subsumed_clauses, want.subsumed_clauses);
  EXPECT_EQ(s.vivified_clauses, want.vivified_clauses);
}

TEST(SearchFingerprint, Pigeonhole9Into8) {
  // Binary-heavy UNSAT at the default config: enough conflicts for two
  // learnt-DB reductions and for inprocessing to fire.
  Solver s;
  add_pigeonhole(s, 8);
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  expect_fingerprint(s.stats(), {27001, 33976, 363034, 9, 0, 0});
}

TEST(SearchFingerprint, IncrementalMixedCnfUnderAssumptions) {
  // 150 variables, one clause in six binary, added in 16 batches with
  // three solves under a random assumption after each; inprocessing
  // fires every 10 conflicts, so elimination, subsumption and
  // vivification all run between incremental calls.
  SolverConfig config;
  config.restart_base = 5;
  config.inprocess_interval = 10;
  Solver s(config);
  constexpr int kVars = 150;
  for (int v = 0; v < kVars; ++v) s.new_var();
  Rng rng(0x5e9e5ced);
  std::string verdicts;
  for (int batch = 0; batch < 16; ++batch) {
    for (int i = 0; i < 40; ++i) {
      const int width = rng.below(6) == 0 ? 2 : 3;
      std::vector<Lit> c;
      for (int k = 0; k < width; ++k)
        c.emplace_back(static_cast<int>(rng.below(kVars)), rng.flip());
      s.add_clause(c);
    }
    for (int solve = 0; solve < 3; ++solve) {
      const Lit assumption(static_cast<int>(rng.below(kVars)), rng.flip());
      verdicts += s.solve({assumption}) == SolveResult::Sat ? 'S' : 'U';
    }
  }
  EXPECT_EQ(verdicts, "SSSSSSSSSSSSSSSSSSSSUSSSSSSSSSSSSSSSUUUUUUUUUUUU");
  expect_fingerprint(s.stats(), {77, 3010, 22092, 32, 27, 321});
}

}  // namespace
}  // namespace sepe::sat
