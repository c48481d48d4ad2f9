// Tests for the campaign cone cache: canonical term digests agree across
// TermManagers, a shared cache replays cones onto isomorphic solver
// stacks with byte-identical CNF (same variable/clause counts, same
// results) while actually hitting, the memory budget rejects oversized
// stores, and cached solving is exercised against the exhaustive
// evaluator on random formulas.
#include <gtest/gtest.h>

#include <memory>

#include "smt/cone_cache.hpp"
#include "smt/smt_solver.hpp"
#include "util/rng.hpp"

namespace sepe::smt {
namespace {

/// The same structural formula built in any manager: a small ALU-ish
/// cone mixing arithmetic, comparison, and mux, parameterized so tests
/// can build distinct cones too.
TermRef build_cone(TermManager& m, unsigned width, std::uint64_t k) {
  // Width-suffixed names: a manager rejects re-declaring a variable at
  // a new width, and tests build cones of several widths side by side.
  const TermRef a = m.mk_var("a" + std::to_string(width), width);
  const TermRef b = m.mk_var("b" + std::to_string(width), width);
  const TermRef sum = m.mk_add(a, m.mk_mul(b, m.mk_const(width, 3)));
  const TermRef cmp = m.mk_ult(sum, m.mk_const(width, k));
  const TermRef sel = m.mk_ite(cmp, m.mk_sub(a, b), m.mk_xor(a, b));
  return m.mk_eq(sel, m.mk_const(width, k % (1u << (width - 1))));
}

TEST(TermDigest, CanonicalAcrossManagers) {
  TermManager m1, m2;
  const TermRef t1 = build_cone(m1, 8, 9);
  // Interleave unrelated junk into m2 so the TermRef indices diverge:
  // the digest must depend on structure only, never on intern order.
  m2.mk_add(m2.mk_var("junk", 13), m2.mk_const(13, 5));
  const TermRef t2 = build_cone(m2, 8, 9);
  EXPECT_NE(static_cast<unsigned>(t1), static_cast<unsigned>(t2));
  EXPECT_EQ(m1.digest(t1), m2.digest(t2));
}

TEST(TermDigest, StructurallyDistinctTermsDiffer) {
  TermManager m;
  const TermRef a = m.mk_var("a", 8);
  const TermRef b = m.mk_var("b", 8);
  // Same op/width, different operand order / names / constants.
  EXPECT_NE(m.digest(m.mk_sub(a, b)), m.digest(m.mk_sub(b, a)));
  EXPECT_NE(m.digest(a), m.digest(b));
  EXPECT_NE(m.digest(m.mk_const(8, 1)), m.digest(m.mk_const(8, 2)));
  EXPECT_NE(m.digest(m.mk_const(8, 1)), m.digest(m.mk_const(9, 1)));
  EXPECT_NE(m.digest(m.mk_add(a, a)), m.digest(m.mk_mul(a, a)));
}

/// Run the same assert/check sequence on a fresh stack, returning the
/// result plus the final CNF shape.
struct RunShape {
  Result r1;
  Result r2;
  std::uint64_t num_vars;
  std::uint64_t num_clauses;
};

RunShape run_sequence(const std::shared_ptr<ConeCache>& cache, bool pg) {
  TermManager m;
  SmtSolver s(m, {}, pg, cache);
  s.assert_formula(build_cone(m, 8, 9));
  s.assert_formula(build_cone(m, 6, 3));
  const Result r1 = s.check();
  const TermRef c = m.mk_var("c", 8);
  const Result r2 =
      s.check({m.mk_eq(m.mk_add(c, c), m.mk_const(8, 4)), build_cone(m, 8, 21)});
  EXPECT_EQ(r1, Result::Sat);
  return {r1, r2, s.work().cnf_vars, s.work().cnf_clauses};
}

TEST(ConeCache, ReplayIsByteIdenticalToStructuralEncoding) {
  for (const bool pg : {false, true}) {
    SCOPED_TRACE(pg ? "plaisted-greenbaum" : "tseitin");
    const RunShape uncached = run_sequence(nullptr, pg);
    const auto cache = std::make_shared<ConeCache>();
    const RunShape cold = run_sequence(cache, pg);
    const RunShape warm = run_sequence(cache, pg);

    // Identical results and CNF shape in all three runs: the cache must
    // be observationally invisible to the SAT core.
    EXPECT_EQ(uncached.r1, cold.r1);
    EXPECT_EQ(uncached.r2, cold.r2);
    EXPECT_EQ(uncached.r1, warm.r1);
    EXPECT_EQ(uncached.r2, warm.r2);
    EXPECT_EQ(uncached.num_vars, cold.num_vars);
    EXPECT_EQ(uncached.num_clauses, cold.num_clauses);
    EXPECT_EQ(uncached.num_vars, warm.num_vars);
    EXPECT_EQ(uncached.num_clauses, warm.num_clauses);

    const ConeCache::Stats st = cache->stats();
    EXPECT_GT(st.stores, 0u);
    EXPECT_GT(st.hits, 0u);  // the warm run replayed recorded cones
    EXPECT_EQ(st.validation_failures, 0u);
    EXPECT_GT(st.bytes, 0u);
  }
}

TEST(ConeCache, EncodingsDoNotShareTapes) {
  // Tseitin and PG blasters start from different state digests, so the
  // same cone under the other encoding must miss, not replay.
  const auto cache = std::make_shared<ConeCache>();
  run_sequence(cache, /*pg=*/false);
  const std::uint64_t hits_before = cache->stats().hits;
  run_sequence(cache, /*pg=*/true);
  EXPECT_EQ(cache->stats().hits, hits_before);
}

TEST(ConeCache, DivergentCallHistoryMisses) {
  // Two blasters that served different first calls are not isomorphic;
  // the second call must miss even though the cone itself was recorded.
  const auto cache = std::make_shared<ConeCache>();
  {
    TermManager m;
    SmtSolver s(m, {}, false, cache);
    s.assert_formula(build_cone(m, 8, 9));
    s.assert_formula(build_cone(m, 6, 3));
    EXPECT_EQ(s.check(), Result::Sat);
  }
  const std::uint64_t hits_before = cache->stats().hits;
  {
    TermManager m;
    SmtSolver s(m, {}, false, cache);
    s.assert_formula(build_cone(m, 6, 3));  // same cone, different position
    EXPECT_EQ(s.check(), Result::Sat);
  }
  EXPECT_EQ(cache->stats().hits, hits_before);
}

TEST(ConeCache, MemoryBudgetRejectsStores) {
  const auto cache = std::make_shared<ConeCache>(/*max_bytes=*/1);
  run_sequence(cache, false);
  const ConeCache::Stats st = cache->stats();
  EXPECT_GT(st.store_rejects, 0u);
  EXPECT_EQ(st.bytes, 0u);
  // And a budget-starved cache still solves correctly (shape asserted
  // inside run_sequence).
  run_sequence(cache, false);
}

TEST(ConeCache, RandomFormulasAgreeWithUncachedTwin) {
  // Randomized cross-check: a shared cache across many small solver
  // stacks never changes a result or the CNF shape.
  const auto cache = std::make_shared<ConeCache>();
  // Rounds 2i and 2i+1 reseed identically, so every random triple is
  // solved twice and the second stack is guaranteed a recorded tape to
  // replay (hits > 0 is asserted below).
  for (int round = 0; round < 30; ++round) {
    Rng rng(0xC0DECAFEu + static_cast<unsigned>(round / 2));
    const unsigned width = 3 + rng.next() % 6;
    const std::uint64_t k = rng.next() % (1ull << width);
    const bool pg = (rng.next() & 1) != 0;

    TermManager mc, mu;
    SmtSolver cached(mc, {}, pg, cache);
    SmtSolver uncached(mu, {}, pg, nullptr);
    cached.assert_formula(build_cone(mc, width, k));
    uncached.assert_formula(build_cone(mu, width, k));
    const Result rc = cached.check();
    const Result ru = uncached.check();
    ASSERT_EQ(rc, ru) << "width=" << width << " k=" << k << " pg=" << pg;
    ASSERT_EQ(cached.work().cnf_vars, uncached.work().cnf_vars);
    ASSERT_EQ(cached.work().cnf_clauses, uncached.work().cnf_clauses);
  }
  EXPECT_GT(cache->stats().hits, 0u);  // repeated (width, k) pairs replay
}

}  // namespace
}  // namespace sepe::smt
