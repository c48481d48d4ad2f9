// Tests for the bit-blaster and SMT solver facade: every word-level
// operator is cross-checked against the concrete evaluator by solving
// "op(a,b) != reference" (must be Unsat) and by model extraction sweeps.
#include <gtest/gtest.h>

#include "smt/smt_solver.hpp"
#include "util/rng.hpp"

namespace sepe::smt {
namespace {

TEST(SmtSolver, TrivialEquality) {
  TermManager m;
  SmtSolver s(m);
  const TermRef a = m.mk_var("a", 8);
  s.assert_formula(m.mk_eq(a, m.mk_const(8, 42)));
  ASSERT_EQ(s.check(), Result::Sat);
  EXPECT_EQ(s.value(a).uval(), 42u);
}

TEST(SmtSolver, UnsatContradiction) {
  TermManager m;
  SmtSolver s(m);
  const TermRef a = m.mk_var("a", 8);
  s.assert_formula(m.mk_eq(a, m.mk_const(8, 1)));
  s.assert_formula(m.mk_eq(a, m.mk_const(8, 2)));
  EXPECT_EQ(s.check(), Result::Unsat);
}

TEST(SmtSolver, SolvesLinearEquation) {
  // x + 3*x == 84  =>  x == 21 (mod 256).
  TermManager m;
  SmtSolver s(m);
  const TermRef x = m.mk_var("x", 8);
  const TermRef lhs = m.mk_add(x, m.mk_mul(m.mk_const(8, 3), x));
  s.assert_formula(m.mk_eq(lhs, m.mk_const(8, 84)));
  ASSERT_EQ(s.check(), Result::Sat);
  const BitVec v = s.value(x);
  EXPECT_EQ(((v + v + v + v).uval()), 84u);
}

TEST(SmtSolver, AssumptionsAreRetractable) {
  TermManager m;
  SmtSolver s(m);
  const TermRef a = m.mk_var("a", 4);
  const TermRef is3 = m.mk_eq(a, m.mk_const(4, 3));
  const TermRef is5 = m.mk_eq(a, m.mk_const(4, 5));
  EXPECT_EQ(s.check({is3}), Result::Sat);
  EXPECT_EQ(s.value(a).uval(), 3u);
  EXPECT_EQ(s.check({is5}), Result::Sat);
  EXPECT_EQ(s.value(a).uval(), 5u);
  EXPECT_EQ(s.check({is3, is5}), Result::Unsat);
  EXPECT_EQ(s.check({is3}), Result::Sat);  // still usable
}

// Exhaustive 4-bit equivalence: circuit output equals BitVec reference for
// EVERY input pair. 256 cases per op — a real exhaustiveness guarantee.
struct BlastOpCase {
  const char* name;
  TermRef (TermManager::*mk)(TermRef, TermRef);
  BitVec (*ref)(const BitVec&, const BitVec&);
};

class BlastExhaustiveTest : public ::testing::TestWithParam<BlastOpCase> {};

TEST_P(BlastExhaustiveTest, CircuitNeverDisagreesWithReference) {
  const BlastOpCase& oc = GetParam();
  constexpr unsigned W = 4;
  TermManager m;
  SmtSolver s(m);
  const TermRef a = m.mk_var("a", W), b = m.mk_var("b", W);
  const TermRef out = (m.*oc.mk)(a, b);
  // Mirror term evaluated concretely per model: instead assert disequality
  // with a fresh output var and enumerate — simpler: for each concrete
  // input pair, check the circuit forced to those inputs yields the
  // reference output (via assumptions).
  for (unsigned x = 0; x < 16; ++x) {
    for (unsigned y = 0; y < 16; ++y) {
      const TermRef ax = m.mk_eq(a, m.mk_const(W, x));
      const TermRef by = m.mk_eq(b, m.mk_const(W, y));
      ASSERT_EQ(s.check({ax, by}), Result::Sat);
      const BitVec expect = oc.ref(BitVec(W, x), BitVec(W, y));
      EXPECT_EQ(s.value(out), expect)
          << oc.name << "(" << x << ", " << y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, BlastExhaustiveTest,
    ::testing::Values(
        BlastOpCase{"add", &TermManager::mk_add,
                    [](const BitVec& a, const BitVec& b) { return a + b; }},
        BlastOpCase{"sub", &TermManager::mk_sub,
                    [](const BitVec& a, const BitVec& b) { return a - b; }},
        BlastOpCase{"mul", &TermManager::mk_mul,
                    [](const BitVec& a, const BitVec& b) { return a * b; }},
        BlastOpCase{"udiv", &TermManager::mk_udiv,
                    [](const BitVec& a, const BitVec& b) { return a.udiv(b); }},
        BlastOpCase{"urem", &TermManager::mk_urem,
                    [](const BitVec& a, const BitVec& b) { return a.urem(b); }},
        BlastOpCase{"sdiv", &TermManager::mk_sdiv,
                    [](const BitVec& a, const BitVec& b) { return a.sdiv(b); }},
        BlastOpCase{"srem", &TermManager::mk_srem,
                    [](const BitVec& a, const BitVec& b) { return a.srem(b); }},
        BlastOpCase{"shl", &TermManager::mk_shl,
                    [](const BitVec& a, const BitVec& b) { return a.shl(b); }},
        BlastOpCase{"lshr", &TermManager::mk_lshr,
                    [](const BitVec& a, const BitVec& b) { return a.lshr(b); }},
        BlastOpCase{"ashr", &TermManager::mk_ashr,
                    [](const BitVec& a, const BitVec& b) { return a.ashr(b); }},
        BlastOpCase{"ult", &TermManager::mk_ult,
                    [](const BitVec& a, const BitVec& b) { return a.ult(b); }},
        BlastOpCase{"ule", &TermManager::mk_ule,
                    [](const BitVec& a, const BitVec& b) { return a.ule(b); }},
        BlastOpCase{"slt", &TermManager::mk_slt,
                    [](const BitVec& a, const BitVec& b) { return a.slt(b); }},
        BlastOpCase{"sle", &TermManager::mk_sle,
                    [](const BitVec& a, const BitVec& b) { return a.sle(b); }}),
    [](const ::testing::TestParamInfo<BlastOpCase>& info) { return info.param.name; });

// Validity checks at 16 bits: assert the negation of an identity; Unsat
// means the identity holds for all 2^32 input pairs.
class BlastValidityTest : public ::testing::Test {
 protected:
  TermManager m;
  void expect_valid(TermRef property) {
    SmtSolver s(m);
    s.assert_formula(m.mk_not(property));
    EXPECT_EQ(s.check(), Result::Unsat);
  }
  void expect_falsifiable(TermRef property) {
    SmtSolver s(m);
    s.assert_formula(m.mk_not(property));
    EXPECT_EQ(s.check(), Result::Sat);
  }
};

TEST_F(BlastValidityTest, SubEqualsXoriAddXori) {
  // The paper's Listing 1 equivalence, proven for all 16-bit inputs.
  const TermRef a = m.mk_var("a", 16), b = m.mk_var("b", 16);
  const TermRef ones = m.mk_const(BitVec::ones(16));
  const TermRef t1 = m.mk_xor(a, ones);
  const TermRef t2 = m.mk_add(t1, b);
  const TermRef rd = m.mk_xor(t2, ones);
  expect_valid(m.mk_eq(m.mk_sub(a, b), rd));
}

TEST_F(BlastValidityTest, AddCommutes) {
  const TermRef a = m.mk_var("a", 16), b = m.mk_var("b", 16);
  expect_valid(m.mk_eq(m.mk_add(a, b), m.mk_add(b, a)));
}

TEST_F(BlastValidityTest, NegIsNotPlusOne) {
  const TermRef a = m.mk_var("a", 16);
  expect_valid(m.mk_eq(m.mk_neg(a), m.mk_add(m.mk_not(a), m.mk_const(16, 1))));
}

TEST_F(BlastValidityTest, DeMorgan) {
  const TermRef a = m.mk_var("a", 16), b = m.mk_var("b", 16);
  expect_valid(m.mk_eq(m.mk_not(m.mk_and(a, b)), m.mk_or(m.mk_not(a), m.mk_not(b))));
}

TEST_F(BlastValidityTest, ShlByOneIsDouble) {
  const TermRef a = m.mk_var("a", 16);
  expect_valid(m.mk_eq(m.mk_shl(a, m.mk_const(16, 1)), m.mk_add(a, a)));
}

TEST_F(BlastValidityTest, SltIsNotAntisymmetricWithoutEquality) {
  // A deliberately false "identity" — solver must find the counterexample.
  const TermRef a = m.mk_var("a", 16), b = m.mk_var("b", 16);
  expect_falsifiable(m.mk_eq(m.mk_slt(a, b), m.mk_not(m.mk_slt(b, a))));
}

TEST_F(BlastValidityTest, MulDistributesOverAdd) {
  // 6 bits: multiplication-heavy UNSAT proofs grow ~6x in conflicts per
  // extra bit on a plain CDCL core (measured); 6 bits proves the identity
  // in a couple of seconds, which is what a unit test can afford.
  const TermRef a = m.mk_var("a", 6), b = m.mk_var("b", 6), c = m.mk_var("c", 6);
  expect_valid(m.mk_eq(m.mk_mul(a, m.mk_add(b, c)),
                       m.mk_add(m.mk_mul(a, b), m.mk_mul(a, c))));
}

TEST_F(BlastValidityTest, UltTrichotomy) {
  const TermRef a = m.mk_var("a", 16), b = m.mk_var("b", 16);
  const TermRef lt = m.mk_ult(a, b), gt = m.mk_ult(b, a), eq = m.mk_eq(a, b);
  expect_valid(m.mk_or(lt, m.mk_or(gt, eq)));
  expect_valid(m.mk_not(m.mk_and(lt, gt)));
  expect_valid(m.mk_not(m.mk_and(lt, eq)));
}

TEST_F(BlastValidityTest, ExtractConcatRoundTrip) {
  const TermRef a = m.mk_var("a", 16);
  expect_valid(m.mk_eq(m.mk_concat(m.mk_extract(a, 15, 8), m.mk_extract(a, 7, 0)), a));
}

TEST_F(BlastValidityTest, IteSelects) {
  const TermRef c = m.mk_var("c", 1);
  const TermRef a = m.mk_var("a", 16), b = m.mk_var("b", 16);
  const TermRef ite = m.mk_ite(c, a, b);
  expect_valid(m.mk_implies(c, m.mk_eq(ite, a)));
  expect_valid(m.mk_implies(m.mk_not(c), m.mk_eq(ite, b)));
}

// --- Plaisted–Greenbaum (polarity-aware) encoding vs full Tseitin ---

/// Convenience: an SmtSolver using the opt-in polarity-split encoding.
smt::SmtSolver pg_solver(TermManager& m) {
  return smt::SmtSolver(m, sat::SolverConfig{}, /*plaisted_greenbaum=*/true);
}

TEST(PlaistedGreenbaum, AgreesOnValidities) {
  // The BlastValidityTest identities, re-proven under the polarity-split
  // encoding: Unsat must stay Unsat.
  TermManager m;
  const TermRef a = m.mk_var("a", 8), b = m.mk_var("b", 8);
  const TermRef ones = m.mk_const(BitVec::ones(8));
  const std::vector<TermRef> identities = {
      m.mk_eq(m.mk_sub(a, b),
              m.mk_xor(m.mk_add(m.mk_xor(a, ones), b), ones)),  // Listing 1
      m.mk_eq(m.mk_add(a, b), m.mk_add(b, a)),
      m.mk_eq(m.mk_neg(a), m.mk_add(m.mk_not(a), m.mk_const(8, 1))),
      m.mk_eq(m.mk_not(m.mk_and(a, b)), m.mk_or(m.mk_not(a), m.mk_not(b))),
      m.mk_or(m.mk_ult(a, b), m.mk_or(m.mk_ult(b, a), m.mk_eq(a, b))),
  };
  for (TermRef identity : identities) {
    auto s = pg_solver(m);
    s.assert_formula(m.mk_not(identity));
    EXPECT_EQ(s.check(), Result::Unsat) << m.to_string(identity);
  }
}

TEST(PlaistedGreenbaum, ExhaustivelyAgreesWithReferenceOps) {
  // 4-bit exhaustive sweep of a mixed circuit under assumptions, with
  // model read-back: exercises positive-polarity assumption cones and
  // the evaluation-based value() under partial encodings.
  constexpr unsigned W = 4;
  TermManager m;
  auto s = pg_solver(m);
  const TermRef a = m.mk_var("a", W), b = m.mk_var("b", W);
  const TermRef mixed =
      m.mk_ite(m.mk_ult(a, b), m.mk_mul(a, b), m.mk_sub(a, b));
  for (unsigned x = 0; x < 16; ++x) {
    for (unsigned y = 0; y < 16; ++y) {
      const TermRef ax = m.mk_eq(a, m.mk_const(W, x));
      const TermRef by = m.mk_eq(b, m.mk_const(W, y));
      ASSERT_EQ(s.check({ax, by}), Result::Sat);
      const BitVec va(W, x), vb(W, y);
      const BitVec expect = va.ult(vb).is_true() ? va * vb : va - vb;
      EXPECT_EQ(s.value(mixed), expect) << x << ", " << y;
    }
  }
}

TEST(PlaistedGreenbaum, VerdictsMatchFullTseitinOnRandomFormulas) {
  // Random Boolean-skeleton-heavy formulas solved under both encodings:
  // Sat/Unsat must agree, and Sat models (read through value()) must
  // evaluate the root to true in both.
  Rng rng(0xb1a57);
  for (int round = 0; round < 40; ++round) {
    TermManager m;
    const TermRef a = m.mk_var("a", 4), b = m.mk_var("b", 4), c = m.mk_var("c", 4);
    // A random comparison tree glued with random connectives.
    const auto atom = [&](int which) {
      switch (which % 5) {
        case 0: return m.mk_ult(a, b);
        case 1: return m.mk_eq(m.mk_add(a, c), b);
        case 2: return m.mk_slt(b, c);
        case 3: return m.mk_ne(m.mk_and(a, b), c);
        default: return m.mk_eq(m.mk_mul(a, m.mk_const(4, 3)), c);
      }
    };
    TermRef f = atom(static_cast<int>(rng.below(5)));
    for (int i = 0; i < 6; ++i) {
      const TermRef g = atom(static_cast<int>(rng.below(5)));
      switch (rng.below(4)) {
        case 0: f = m.mk_and(f, g); break;
        case 1: f = m.mk_or(f, g); break;
        case 2: f = m.mk_and(f, m.mk_not(g)); break;
        default: f = m.mk_ite(g, f, m.mk_not(f)); break;
      }
    }
    smt::SmtSolver full(m);
    auto pg = pg_solver(m);
    full.assert_formula(f);
    pg.assert_formula(f);
    const Result rf = full.check();
    const Result rp = pg.check();
    EXPECT_EQ(rf, rp) << "round " << round;
    if (rf == Result::Sat) {
      EXPECT_TRUE(full.value(f).is_true());
    }
    if (rp == Result::Sat) {
      EXPECT_TRUE(pg.value(f).is_true());
    }
  }
}

TEST(PlaistedGreenbaum, SingleSidedConeEmitsFewerClauses) {
  // Asserting a one-sided Boolean cone must cost strictly fewer clauses
  // under the polarity-split encoding than under full Tseitin.
  TermManager m;
  TermRef f = m.mk_true();
  for (int i = 0; i < 16; ++i) {
    const TermRef x = m.mk_var("x" + std::to_string(i), 4);
    const TermRef y = m.mk_var("y" + std::to_string(i), 4);
    f = m.mk_and(f, m.mk_or(m.mk_ult(x, y), m.mk_eq(x, m.mk_const(4, i))));
  }
  smt::SmtSolver full(m);
  auto pg = pg_solver(m);
  full.assert_formula(f);
  pg.assert_formula(f);
  EXPECT_LT(pg.work().cnf_clauses, full.work().cnf_clauses);
  // Same variables either way — PG prunes clauses, never literals.
  EXPECT_EQ(pg.work().cnf_vars, full.work().cnf_vars);
}

TEST(PlaistedGreenbaum, PolarityWideningKeepsVerdicts) {
  // The same cached cone used positively, then negatively: the second
  // use must add the missing clause direction, not corrupt the first.
  TermManager m;
  auto s = pg_solver(m);
  const TermRef a = m.mk_var("a", 8);
  const TermRef inside = m.mk_ult(a, m.mk_const(8, 10));
  EXPECT_EQ(s.check({inside}), Result::Sat);
  EXPECT_TRUE(s.value(a).ult(BitVec(8, 10)).is_true());
  EXPECT_EQ(s.check({m.mk_not(inside)}), Result::Sat);
  EXPECT_FALSE(s.value(a).ult(BitVec(8, 10)).is_true());
  EXPECT_EQ(s.check({inside, m.mk_not(inside)}), Result::Unsat);
  EXPECT_EQ(s.check({inside}), Result::Sat);  // still usable
}

TEST(BitBlasterSharing, SharedSubtermsEncodeOnce) {
  TermManager m;
  sat::Solver sat;
  BitBlaster bb(m, sat);
  const TermRef a = m.mk_var("a", 32), b = m.mk_var("b", 32);
  const TermRef sum = m.mk_add(a, b);
  bb.blast(sum);
  const std::uint64_t vars_after_first = sat.stats().vars;
  bb.blast(m.mk_add(a, b));  // same node — no new encoding
  EXPECT_EQ(sat.stats().vars, vars_after_first);
}

}  // namespace
}  // namespace sepe::smt
