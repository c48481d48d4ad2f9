// Differential test of the CDCL solver against a brute-force enumerator
// behind the same sat::Backend seam, on small binary-heavy CNFs.
//
// Both engines receive the same stream of calls: variables, clauses in
// batches, and solves under random assumptions between batches. The
// enumerator keeps one bit per assignment of at most 20 variables, so its
// answer is exact; the CDCL solver runs with inprocessing at every
// restart, so binary conflicts, binary reasons inside clause
// minimization, assumption levels and elimination/reactivation all meet
// in every instance. Each Sat model must satisfy every clause added so far
// and every assumption.
#include <gtest/gtest.h>

#include <cassert>
#include <cstdint>
#include <vector>

#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace sepe::sat {
namespace {

/// Exhaustive engine over at most 20 variables: bit m of sat_ says
/// whether assignment m (variable v = bit v of m) satisfies every clause
/// added so far.
class Enumerator final : public Backend {
 public:
  static constexpr int kMaxVars = 20;

  int new_var() override {
    assert(vars_ < kMaxVars);
    // A fresh variable doubles the assignment space; its new half
    // repeats the old one, since no clause mentions the variable yet.
    const std::size_t old_bits = std::size_t{1} << vars_;
    ++vars_;
    const std::size_t bits = std::size_t{1} << vars_;
    std::vector<std::uint64_t> next((bits + 63) / 64, 0);
    for (std::size_t m = 0; m < bits; ++m)
      if (bit(m % old_bits)) next[m / 64] |= std::uint64_t{1} << (m % 64);
    sat_ = std::move(next);
    return vars_ - 1;
  }

  using Backend::add_clause;
  bool add_clause(std::vector<Lit> lits) override {
    for (std::size_t w = 0; w < sat_.size(); ++w) {
      std::uint64_t satisfied = 0;
      for (const Lit l : lits) satisfied |= true_mask(l, w);
      sat_[w] &= satisfied;
    }
    ++clauses_;
    return true;
  }

  using Backend::solve;
  SolveResult solve(const std::vector<Lit>& assumptions) override {
    for (std::size_t w = 0; w < sat_.size(); ++w) {
      std::uint64_t candidates = sat_[w];
      for (const Lit a : assumptions) candidates &= true_mask(a, w);
      if (candidates != 0) {
        model_ = w * 64 + static_cast<std::size_t>(__builtin_ctzll(candidates));
        return SolveResult::Sat;
      }
    }
    return SolveResult::Unsat;
  }

  using Backend::model_value;
  bool model_value(int var) const override { return (model_ >> var) & 1; }

  Stats stats() const override {
    Stats s;
    s.vars = static_cast<std::uint64_t>(vars_);
    s.clauses = clauses_;
    return s;
  }

 private:
  bool bit(std::size_t m) const { return (sat_[m / 64] >> (m % 64)) & 1; }

  /// The assignments in word w under which literal l is true (bits past
  /// 2^vars_ in a lone partial word are never set in sat_).
  static std::uint64_t true_mask(Lit l, std::size_t w) {
    static constexpr std::uint64_t kLowVar[6] = {
        0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
        0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
    const int v = l.var();
    const std::uint64_t positive =
        v < 6 ? kLowVar[v] : (((w >> (v - 6)) & 1) ? ~std::uint64_t{0} : 0);
    return l.sign() ? ~positive : positive;
  }

  int vars_ = 0;
  std::uint64_t clauses_ = 0;
  std::vector<std::uint64_t> sat_{1};  // no variables: one assignment, no clause yet
  std::size_t model_ = 0;
};

bool satisfied_by_model(const Backend& s, const std::vector<Lit>& clause) {
  for (const Lit l : clause)
    if (s.model_value(l)) return true;
  return false;
}

/// Inprocess at every restart, restart after every conflict.
SolverConfig aggressive_config() {
  SolverConfig c;
  c.restart_base = 1;
  c.inprocess_interval = 1;
  return c;
}

std::vector<Lit> random_clause(Rng& rng, int nvars) {
  // Half the clauses binary, the rest of width 3 or 4.
  const int width = rng.flip() ? 2 : 3 + static_cast<int>(rng.below(2));
  std::vector<Lit> c;
  for (int k = 0; k < width; ++k)
    c.emplace_back(static_cast<int>(rng.below(nvars)), rng.flip());
  return c;
}

/// What a run of instances exercised, so a test can check that its
/// random stream still reaches both answers and the inprocessing passes.
struct Coverage {
  int sat = 0, unsat = 0;
  std::uint64_t conflicts = 0, eliminated_vars = 0, vivified_clauses = 0;
};

void run_instance(std::uint64_t seed, const SolverConfig& config, Coverage& coverage) {
  Rng rng(seed);
  Solver cdcl(config);
  Enumerator oracle;
  Backend* engines[] = {&cdcl, &oracle};
  const int nvars = 10 + static_cast<int>(rng.below(Enumerator::kMaxVars - 9));
  for (Backend* e : engines)
    for (int v = 0; v < nvars; ++v) e->new_var();
  std::vector<std::vector<Lit>> clauses;
  // Small batches until the formula itself is Unsat: the clause density
  // climbs through the satisfiability threshold, where search happens.
  for (int batch = 0; batch < 40; ++batch) {
    const int count = 1 + static_cast<int>(rng.below(nvars / 4));
    for (int i = 0; i < count; ++i) {
      clauses.push_back(random_clause(rng, nvars));
      for (Backend* e : engines) e->add_clause(clauses.back());
    }
    for (int solve = 0; solve < 4; ++solve) {
      std::vector<Lit> assumptions;
      const int n_assumptions = static_cast<int>(rng.below(7));
      for (int k = 0; k < n_assumptions; ++k)
        assumptions.emplace_back(static_cast<int>(rng.below(nvars)), rng.flip());
      const SolveResult expected = oracle.solve(assumptions);
      const SolveResult actual = cdcl.solve(assumptions);
      ASSERT_EQ(actual, expected)
          << "seed " << seed << " batch " << batch << " solve " << solve;
      ++(actual == SolveResult::Sat ? coverage.sat : coverage.unsat);
      if (actual != SolveResult::Sat) continue;
      for (const auto& c : clauses)
        ASSERT_TRUE(satisfied_by_model(cdcl, c))
            << "seed " << seed << ": model violates a clause";
      for (const Lit a : assumptions)
        ASSERT_TRUE(cdcl.model_value(a))
            << "seed " << seed << ": model violates an assumption";
    }
    if (oracle.solve({}) == SolveResult::Unsat) break;
  }
  const Stats stats = cdcl.stats();
  coverage.conflicts += stats.conflicts;
  coverage.eliminated_vars += stats.eliminated_vars;
  coverage.vivified_clauses += stats.vivified_clauses;
}

TEST(SatFuzz, EnumeratorMatchesOnSmallCnfs) {
  // The oracle itself, on fixed formulas.
  Enumerator e;
  const int a = e.new_var(), b = e.new_var();
  e.add_clause(Lit(a, false), Lit(b, false));
  EXPECT_EQ(e.solve({Lit(a, true)}), SolveResult::Sat);
  EXPECT_TRUE(e.model_value(b));
  e.add_clause(Lit(b, true));
  EXPECT_EQ(e.solve({Lit(a, true)}), SolveResult::Unsat);
  const int c = e.new_var();
  EXPECT_EQ(e.solve({Lit(c, false)}), SolveResult::Sat);
  EXPECT_TRUE(e.model_value(a));
  EXPECT_TRUE(e.model_value(c));
}

TEST(SatFuzz, CdclMatchesEnumeratorWithInprocessingForced) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    run_instance(seed, aggressive_config(), coverage);
    if (HasFatalFailure()) return;
  }
  // About half of what the fixed stream gives today (14,036 / 9,868
  // answers, 814 conflicts, 1,627 eliminations, 217 vivifications).
  EXPECT_GT(coverage.sat, 7000);
  EXPECT_GT(coverage.unsat, 5000);
  EXPECT_GT(coverage.conflicts, 400u);
  EXPECT_GT(coverage.eliminated_vars, 800u);
  EXPECT_GT(coverage.vivified_clauses, 100u);
}

TEST(SatFuzz, CdclMatchesEnumeratorAtDefaultConfig) {
  Coverage coverage;
  for (std::uint64_t seed = 1001; seed <= 1150; ++seed) {
    run_instance(seed, SolverConfig{}, coverage);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(coverage.sat, 3500);
  EXPECT_GT(coverage.unsat, 2500);
  EXPECT_GT(coverage.conflicts, 200u);
}

}  // namespace
}  // namespace sepe::sat
