// Tests for the bounded model checker: reachability depth, witness
// content and replayability, constraints (step and init), multiple bad
// conditions, and resource budgets.
#include <gtest/gtest.h>

#include "bmc/bmc.hpp"
#include "smt/eval.hpp"

namespace sepe::bmc {
namespace {

using smt::TermManager;
using smt::TermRef;

/// Counter that increments by an input-controlled step.
struct CounterSystem {
  TermManager mgr;
  ts::TransitionSystem ts{mgr};
  TermRef cnt, inc;

  explicit CounterSystem(unsigned width = 8, std::uint64_t start = 0) {
    cnt = ts.add_state("cnt", width);
    inc = ts.add_input("inc", 1);
    ts.set_init(cnt, mgr.mk_const(width, start));
    ts.set_next(cnt, mgr.mk_ite(inc, mgr.mk_add(cnt, mgr.mk_const(width, 1)), cnt));
  }
};

TEST(BmcTest, FindsBadAtExactDepth) {
  CounterSystem sys;
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 5)), "cnt-5");
  Bmc bmc(sys.ts);
  BmcOptions o;
  o.max_bound = 10;
  const auto w = bmc.check(o);
  ASSERT_TRUE(w.has_value());
  // cnt starts at 0 and can grow by at most 1 per step: depth is exactly 5.
  EXPECT_EQ(w->length, 5u);
  EXPECT_EQ(w->bad_label, "cnt-5");
  EXPECT_EQ(bmc.stats().bounds_checked, 6u);
}

TEST(BmcTest, BadAtStepZeroWhenInitMatches) {
  CounterSystem sys(8, 7);
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 7)), "init-bad");
  Bmc bmc(sys.ts);
  BmcOptions o;
  o.max_bound = 3;
  const auto w = bmc.check(o);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->length, 0u);
}

TEST(BmcTest, UnreachableWithinBoundReturnsNothing) {
  CounterSystem sys;
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 50)), "too-far");
  Bmc bmc(sys.ts);
  BmcOptions o;
  o.max_bound = 10;
  EXPECT_FALSE(bmc.check(o).has_value());
  EXPECT_FALSE(bmc.stats().hit_resource_limit);
  EXPECT_EQ(bmc.stats().bounds_checked, 11u);
}

TEST(BmcTest, WitnessInputsReplayToTheBadState) {
  CounterSystem sys;
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 4)), "cnt-4");
  Bmc bmc(sys.ts);
  BmcOptions o;
  o.max_bound = 8;
  const auto w = bmc.check(o);
  ASSERT_TRUE(w.has_value());
  // Replay: simulate the counter concretely with the witness inputs.
  std::uint64_t cnt = 0;
  for (unsigned t = 0; t < w->length; ++t) {
    const auto it = w->inputs[t].find(sys.inc);
    ASSERT_NE(it, w->inputs[t].end());
    if (it->second.is_true()) ++cnt;
  }
  EXPECT_EQ(cnt, 4u);
  // And the recorded state trace matches the replay at every step.
  std::uint64_t replay = 0;
  for (unsigned t = 0; t <= w->length; ++t) {
    EXPECT_EQ(w->states[t].at(sys.cnt).uval(), replay) << "step " << t;
    if (t < w->length && w->inputs[t].at(sys.inc).is_true()) ++replay;
  }
}

TEST(BmcTest, StepConstraintsRestrictInputs) {
  // Forbid incrementing: the bad state becomes unreachable.
  CounterSystem sys;
  sys.ts.add_constraint(sys.mgr.mk_not(sys.inc));
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 1)), "cnt-1");
  Bmc bmc(sys.ts);
  BmcOptions o;
  o.max_bound = 6;
  EXPECT_FALSE(bmc.check(o).has_value());
}

TEST(BmcTest, InitConstraintsBindSymbolicInitialState) {
  // Unconstrained initial counter, but an init constraint pins it >= 250;
  // wrap-around to 2 then takes at most 8 steps.
  TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef cnt = ts.add_state("cnt", 8);
  ts.set_next(cnt, mgr.mk_add(cnt, mgr.mk_const(8, 1)));  // no init: symbolic
  ts.add_init_constraint(mgr.mk_ule(mgr.mk_const(8, 250), cnt));
  ts.add_bad(mgr.mk_eq(cnt, mgr.mk_const(8, 2)), "cnt-2");
  Bmc bmc(ts);
  BmcOptions o;
  o.max_bound = 10;
  const auto w = bmc.check(o);
  ASSERT_TRUE(w.has_value());
  EXPECT_LE(w->length, 8u);
  // The initial state respected the constraint.
  EXPECT_GE(w->states[0].at(cnt).uval(), 250u);
}

TEST(BmcTest, SymbolicInitialStateFindsShortestPath) {
  // With a fully unconstrained initial state the bad holds at step 0.
  TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef x = ts.add_state("x", 8);
  ts.set_next(x, x);
  ts.add_bad(mgr.mk_eq(x, mgr.mk_const(8, 0x5a)), "x-5a");
  Bmc bmc(ts);
  BmcOptions o;
  o.max_bound = 4;
  const auto w = bmc.check(o);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->length, 0u);
  EXPECT_EQ(w->states[0].at(x).uval(), 0x5au);
}

TEST(BmcTest, MultipleBadsReportTheOneThatFired) {
  CounterSystem sys;
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 30)), "far");
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 2)), "near");
  Bmc bmc(sys.ts);
  BmcOptions o;
  o.max_bound = 10;
  const auto w = bmc.check(o);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->length, 2u);
  EXPECT_EQ(w->bad_index, 1u);
  EXPECT_EQ(w->bad_label, "near");
}

TEST(BmcTest, TwoInteractingStates) {
  // a follows the input, b latches a: bad needs two steps of history.
  TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef a = ts.add_state("a", 4);
  const TermRef b = ts.add_state("b", 4);
  const TermRef in = ts.add_input("in", 4);
  ts.set_init(a, mgr.mk_const(4, 0));
  ts.set_init(b, mgr.mk_const(4, 0));
  ts.set_next(a, in);
  ts.set_next(b, a);
  ts.add_bad(mgr.mk_and(mgr.mk_eq(a, mgr.mk_const(4, 9)),
                        mgr.mk_eq(b, mgr.mk_const(4, 9))),
             "a-and-b-9");
  Bmc bmc(ts);
  BmcOptions o;
  o.max_bound = 5;
  const auto w = bmc.check(o);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->length, 2u);
  EXPECT_EQ(w->inputs[0].at(in).uval(), 9u);
  EXPECT_EQ(w->inputs[1].at(in).uval(), 9u);
}

TEST(BmcTest, ConflictBudgetReportsResourceLimit) {
  // The bad condition negates multiplication distributivity — an UNSAT
  // query that needs far more than 5 conflicts to refute at 12 bits. A
  // tiny conflict budget must end in hit_resource_limit, not a verdict.
  TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef a = ts.add_state("a", 12);
  const TermRef b = ts.add_state("b", 12);
  const TermRef c = ts.add_state("c", 12);
  ts.set_next(a, a);
  ts.set_next(b, b);
  ts.set_next(c, c);
  const TermRef lhs = mgr.mk_mul(a, mgr.mk_add(b, c));
  const TermRef rhs = mgr.mk_add(mgr.mk_mul(a, b), mgr.mk_mul(a, c));
  ts.add_bad(mgr.mk_ne(lhs, rhs), "distributivity-violated");
  Bmc bmc(ts);
  BmcOptions o;
  o.max_bound = 0;
  o.conflict_budget_per_bound = 5;
  const auto w = bmc.check(o);
  EXPECT_FALSE(w.has_value());
  EXPECT_TRUE(bmc.stats().hit_resource_limit);
}

TEST(BmcTest, WitnessToStringMentionsStepsAndLabel) {
  CounterSystem sys;
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 1)), "one");
  Bmc bmc(sys.ts);
  BmcOptions o;
  o.max_bound = 3;
  const auto w = bmc.check(o);
  ASSERT_TRUE(w.has_value());
  const std::string s = witness_to_string(sys.ts, *w);
  EXPECT_NE(s.find("counterexample of length 1"), std::string::npos);
  EXPECT_NE(s.find("one"), std::string::npos);
  EXPECT_NE(s.find("step 0"), std::string::npos);
  EXPECT_NE(s.find("step 1"), std::string::npos);
}

// --- frontier-incremental resume ---

TEST(BmcFrontier, ResumedSweepMatchesSingleSweep) {
  // Two check() calls (max_bound 3, then 10) must end with the same
  // verdict and stats as one call at max_bound 10 on a fresh instance.
  CounterSystem resumed_sys;
  resumed_sys.ts.add_bad(
      resumed_sys.mgr.mk_eq(resumed_sys.cnt, resumed_sys.mgr.mk_const(8, 5)), "cnt-5");
  Bmc resumed(resumed_sys.ts);
  BmcOptions shallow;
  shallow.max_bound = 3;
  EXPECT_FALSE(resumed.check(shallow).has_value());
  EXPECT_EQ(resumed.stats().bounds_checked, 4u);
  EXPECT_EQ(resumed.frontier(), 4u);

  BmcOptions deep;
  deep.max_bound = 10;
  const auto w2 = resumed.check(deep);

  CounterSystem fresh_sys;
  fresh_sys.ts.add_bad(fresh_sys.mgr.mk_eq(fresh_sys.cnt, fresh_sys.mgr.mk_const(8, 5)),
                       "cnt-5");
  Bmc fresh(fresh_sys.ts);
  const auto w1 = fresh.check(deep);

  ASSERT_TRUE(w1.has_value());
  ASSERT_TRUE(w2.has_value());
  EXPECT_EQ(w2->length, w1->length);
  EXPECT_EQ(w2->bad_label, w1->bad_label);
  EXPECT_EQ(resumed.stats().bounds_checked, fresh.stats().bounds_checked);
  EXPECT_EQ(resumed.frontier(), fresh.frontier());
}

TEST(BmcFrontier, RepeatedCheckDoesNotResolveCleanBounds) {
  CounterSystem sys;
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 50)), "too-far");
  Bmc bmc(sys.ts);
  BmcOptions o;
  o.max_bound = 8;
  EXPECT_FALSE(bmc.check(o).has_value());
  EXPECT_EQ(bmc.frontier(), 9u);
  const std::uint64_t conflicts_after_first = bmc.stats().solver_conflicts;
  const std::uint64_t decisions_after_first = bmc.stats().solver_decisions;

  // Same bound again: everything is below the frontier — no new solving.
  EXPECT_FALSE(bmc.check(o).has_value());
  EXPECT_EQ(bmc.stats().bounds_checked, 9u);
  EXPECT_EQ(bmc.stats().solver_conflicts, conflicts_after_first);
  EXPECT_EQ(bmc.stats().solver_decisions, decisions_after_first);

  // A shallower bound is also already known clean.
  BmcOptions shallow;
  shallow.max_bound = 2;
  EXPECT_FALSE(bmc.check(shallow).has_value());
  EXPECT_EQ(bmc.stats().bounds_checked, 3u);
  EXPECT_FALSE(bmc.stats().hit_resource_limit);
}

TEST(BmcFrontier, WitnessBoundIsNotAddedToTheFrontier) {
  // A found violation must stay findable by a later call.
  CounterSystem sys;
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 2)), "cnt-2");
  Bmc bmc(sys.ts);
  BmcOptions o;
  o.max_bound = 6;
  const auto w1 = bmc.check(o);
  ASSERT_TRUE(w1.has_value());
  EXPECT_EQ(bmc.frontier(), 2u);
  const auto w2 = bmc.check(o);
  ASSERT_TRUE(w2.has_value());
  EXPECT_EQ(w2->length, w1->length);
  EXPECT_EQ(w2->bad_label, w1->bad_label);
}

// --- per-call budget hygiene ---

TEST(BmcBudgets, WallBudgetDoesNotLeakIntoUncappedCall) {
  CounterSystem sys;
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 3)), "cnt-3");
  Bmc bmc(sys.ts);
  BmcOptions capped;
  capped.max_bound = 1;  // stays below the violation: a clean capped sweep
  capped.max_seconds = 500.0;
  EXPECT_FALSE(bmc.check(capped).has_value());
  // The solver still carries (a remainder of) the wall budget...
  EXPECT_GT(bmc.solver().time_budget(), 0.0);

  // ...which an uncapped follow-up call must clear, not inherit.
  BmcOptions uncapped;
  uncapped.max_bound = 6;
  const auto w = bmc.check(uncapped);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->length, 3u);
  EXPECT_EQ(bmc.solver().time_budget(), 0.0);
}

// The solver reads a time budget of 0 as "no limit", so a cap spent
// before the solve (say, during the unroll) must still hand it a
// positive budget; no cap must stay 0.
TEST(BmcBudgets, SpentWallCapStaysPositive) {
  EXPECT_GT(remaining_seconds(0.5, 0.5), 0.0);
  EXPECT_GT(remaining_seconds(0.5, 3.0), 0.0);
  EXPECT_LT(remaining_seconds(0.5, 3.0), 1e-6);
  EXPECT_DOUBLE_EQ(remaining_seconds(2.0, 0.5), 1.5);
  EXPECT_EQ(remaining_seconds(0.0, 0.0), 0.0);
  EXPECT_EQ(remaining_seconds(0.0, 7.0), 0.0);
}

TEST(BmcBudgets, ConflictBudgetDoesNotLeakIntoUnbudgetedCall) {
  CounterSystem sys;
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 4)), "cnt-4");
  Bmc bmc(sys.ts);
  BmcOptions budgeted;
  budgeted.max_bound = 1;
  budgeted.conflict_budget_per_bound = 7;
  (void)bmc.check(budgeted);

  BmcOptions unbudgeted;
  unbudgeted.max_bound = 8;
  const auto w = bmc.check(unbudgeted);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->length, 4u);
  EXPECT_EQ(bmc.solver().conflict_budget(), 0u);
}

TEST(BmcTest, TimedMapsExposeUnrolledVariables) {
  CounterSystem sys;
  sys.ts.add_bad(sys.mgr.mk_eq(sys.cnt, sys.mgr.mk_const(8, 2)), "two");
  Bmc bmc(sys.ts);
  BmcOptions o;
  o.max_bound = 4;
  ASSERT_TRUE(bmc.check(o).has_value());
  // Step-0 counter unrolls to its init constant.
  EXPECT_EQ(bmc.timed(sys.cnt, 0), sys.mgr.mk_const(8, 0));
  // Later steps are real terms of the right width.
  EXPECT_EQ(sys.mgr.width(bmc.timed(sys.cnt, 2)), 8u);
}

}  // namespace
}  // namespace sepe::bmc
