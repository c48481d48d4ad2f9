// Tests for the concrete evaluator, the substitution engine and the flat
// exhaustive sweep — the term-DAG services under the BMC unroller, CEGIS
// counterexample replay and verification, and the TsSim harness.
#include <gtest/gtest.h>

#include <algorithm>

#include "smt/eval.hpp"
#include "smt/flat_eval.hpp"
#include "smt/subst.hpp"
#include "util/rng.hpp"

namespace sepe::smt {
namespace {

TEST(Evaluator, ConstantsEvaluateToThemselves) {
  TermManager mgr;
  EXPECT_EQ(eval_term(mgr, mgr.mk_const(8, 42), {}), BitVec(8, 42));
  EXPECT_EQ(eval_term(mgr, mgr.mk_true(), {}), BitVec::boolean(true));
}

TEST(Evaluator, UnassignedVariablesReadZero) {
  TermManager mgr;
  const TermRef x = mgr.mk_var("x", 16);
  EXPECT_EQ(eval_term(mgr, x, {}), BitVec::zeros(16));
  EXPECT_EQ(eval_term(mgr, mgr.mk_add(x, mgr.mk_const(16, 5)), {}), BitVec(16, 5));
}

TEST(Evaluator, AssignmentDrivesVariables) {
  TermManager mgr;
  const TermRef x = mgr.mk_var("x", 8), y = mgr.mk_var("y", 8);
  const Assignment a{{x, BitVec(8, 200)}, {y, BitVec(8, 100)}};
  EXPECT_EQ(eval_term(mgr, mgr.mk_add(x, y), a), BitVec(8, 44));  // wraps
  EXPECT_EQ(eval_term(mgr, mgr.mk_ult(y, x), a), BitVec::boolean(true));
}

TEST(Evaluator, CoversEveryOperator) {
  // One term per Op; each checked against the BitVec reference.
  TermManager mgr;
  const BitVec va(8, 0xb6), vb(8, 0x2f);
  const TermRef a = mgr.mk_var("a", 8), b = mgr.mk_var("b", 8);
  const Assignment assign{{a, va}, {b, vb}};
  const auto chk = [&](TermRef t, const BitVec& expect) {
    EXPECT_EQ(eval_term(mgr, t, assign), expect) << mgr.to_string(t);
  };
  chk(mgr.mk_not(a), ~va);
  chk(mgr.mk_and(a, b), va & vb);
  chk(mgr.mk_or(a, b), va | vb);
  chk(mgr.mk_xor(a, b), va ^ vb);
  chk(mgr.mk_neg(a), -va);
  chk(mgr.mk_add(a, b), va + vb);
  chk(mgr.mk_sub(a, b), va - vb);
  chk(mgr.mk_mul(a, b), va * vb);
  chk(mgr.mk_udiv(a, b), va.udiv(vb));
  chk(mgr.mk_urem(a, b), va.urem(vb));
  chk(mgr.mk_sdiv(a, b), va.sdiv(vb));
  chk(mgr.mk_srem(a, b), va.srem(vb));
  chk(mgr.mk_shl(a, b), va.shl(vb));
  chk(mgr.mk_lshr(a, b), va.lshr(vb));
  chk(mgr.mk_ashr(a, b), va.ashr(vb));
  chk(mgr.mk_ult(a, b), va.ult(vb));
  chk(mgr.mk_ule(a, b), va.ule(vb));
  chk(mgr.mk_slt(a, b), va.slt(vb));
  chk(mgr.mk_sle(a, b), va.sle(vb));
  chk(mgr.mk_eq(a, b), va.eq(vb));
  chk(mgr.mk_ne(a, b), va.ne(vb));
  chk(mgr.mk_ite(mgr.mk_ult(a, b), a, b), va.ult(vb).is_true() ? va : vb);
  chk(mgr.mk_concat(a, b), va.concat(vb));
  chk(mgr.mk_extract(a, 6, 2), va.extract(6, 2));
  chk(mgr.mk_zext(a, 12), va.zext(12));
  chk(mgr.mk_sext(a, 12), va.sext(12));
}

TEST(Evaluator, MemoizesAcrossSharedSubterms) {
  // A DAG whose tree expansion is exponential: evaluation must finish
  // instantly because shared nodes are computed once.
  TermManager mgr;
  const TermRef x = mgr.mk_var("x", 32);
  TermRef t = x;
  for (int i = 0; i < 60; ++i) t = mgr.mk_add(t, t);  // t = x * 2^60
  const Assignment a{{x, BitVec(32, 3)}};
  // 3 * 2^60 mod 2^32 = 0 (2^60 ≡ 0 mod 2^32).
  EXPECT_EQ(eval_term(mgr, t, a), BitVec::zeros(32));
}

TEST(Evaluator, InstanceIsBoundToOneAssignment) {
  TermManager mgr;
  const TermRef x = mgr.mk_var("x", 8);
  const TermRef t = mgr.mk_add(x, mgr.mk_const(8, 1));
  Evaluator ev(mgr);
  EXPECT_EQ(ev.eval(t, {{x, BitVec(8, 1)}}), BitVec(8, 2));
  // Same instance + same assignment: cached result is consistent.
  EXPECT_EQ(ev.eval(t, {{x, BitVec(8, 1)}}), BitVec(8, 2));
}

// --- substitution ---

TEST(Substitute, ReplacesVariables) {
  TermManager mgr;
  const TermRef x = mgr.mk_var("x", 8), y = mgr.mk_var("y", 8);
  const TermRef t = mgr.mk_add(x, y);
  const SubstMap map{{x, mgr.mk_const(8, 3)}};
  const TermRef out = substitute(mgr, t, map);
  EXPECT_EQ(out, mgr.mk_add(mgr.mk_const(8, 3), y));
}

TEST(Substitute, IdentityWhenNoVariableMatches) {
  TermManager mgr;
  const TermRef x = mgr.mk_var("x", 8);
  const TermRef t = mgr.mk_mul(x, x);
  EXPECT_EQ(substitute(mgr, t, {}), t);  // hash-consing: same node back
}

TEST(Substitute, MapsVariablesToArbitraryTerms) {
  TermManager mgr;
  const TermRef x = mgr.mk_var("x", 8), y = mgr.mk_var("y", 8);
  const TermRef t = mgr.mk_sub(x, mgr.mk_const(8, 1));
  const SubstMap map{{x, mgr.mk_add(y, y)}};
  const TermRef out = substitute(mgr, t, map);
  const Assignment a{{y, BitVec(8, 5)}};
  EXPECT_EQ(eval_term(mgr, out, a), BitVec(8, 9));  // (5+5)-1
}

TEST(Substitute, ComposesLikeTheBmcUnroller) {
  // next(s) = s + in; two unrolling steps by repeated substitution must
  // equal s0 + in0 + in1.
  TermManager mgr;
  const TermRef s = mgr.mk_var("s", 8), in = mgr.mk_var("in", 8);
  const TermRef next = mgr.mk_add(s, in);

  const TermRef s0 = mgr.mk_var("s@0", 8), in0 = mgr.mk_var("in@0", 8),
                in1 = mgr.mk_var("in@1", 8);
  const TermRef s1 = substitute(mgr, next, SubstMap{{s, s0}, {in, in0}});
  const TermRef s2 = substitute(mgr, next, SubstMap{{s, s1}, {in, in1}});
  const Assignment a{{s0, BitVec(8, 1)}, {in0, BitVec(8, 2)}, {in1, BitVec(8, 4)}};
  EXPECT_EQ(eval_term(mgr, s2, a), BitVec(8, 7));
}

TEST(Substitute, SharedCacheIsStablePerMap) {
  TermManager mgr;
  const TermRef x = mgr.mk_var("x", 8);
  TermRef t = x;
  for (int i = 0; i < 100; ++i) t = mgr.mk_add(t, mgr.mk_const(8, 1));
  SubstMap map{{x, mgr.mk_const(8, 0)}};
  SubstMap cache;
  const TermRef a = substitute(mgr, t, map, &cache);
  const TermRef b = substitute(mgr, t, map, &cache);  // fully cached
  EXPECT_EQ(a, b);
  EXPECT_EQ(eval_term(mgr, a, {}), BitVec(8, 100));
}

TEST(Substitute, DeepDagDoesNotOverflowTheStack) {
  TermManager mgr;
  const TermRef x = mgr.mk_var("x", 8);
  TermRef t = x;
  for (int i = 0; i < 200000; ++i) t = mgr.mk_add(t, mgr.mk_const(8, 1));
  const TermRef out = substitute(mgr, t, SubstMap{{x, mgr.mk_const(8, 1)}});
  EXPECT_EQ(eval_term(mgr, out, {}), BitVec(8, (1 + 200000) & 0xff));
}

// Random differential property: substitute-then-evaluate equals
// evaluate-with-extended-assignment.
TEST(SubstituteProperty, CommutesWithEvaluation) {
  Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    TermManager mgr;
    const TermRef x = mgr.mk_var("x", 8), y = mgr.mk_var("y", 8), z = mgr.mk_var("z", 8);
    // Build a random little expression over x, y, z.
    std::vector<TermRef> pool{x, y, z, mgr.mk_const(8, rng.below(256))};
    for (int i = 0; i < 12; ++i) {
      const TermRef a = pool[rng.below(pool.size())];
      const TermRef b = pool[rng.below(pool.size())];
      switch (rng.below(5)) {
        case 0: pool.push_back(mgr.mk_add(a, b)); break;
        case 1: pool.push_back(mgr.mk_xor(a, b)); break;
        case 2: pool.push_back(mgr.mk_mul(a, b)); break;
        case 3: pool.push_back(mgr.mk_ite(mgr.mk_ult(a, b), a, b)); break;
        default: pool.push_back(mgr.mk_sub(a, b)); break;
      }
    }
    const TermRef t = pool.back();
    const BitVec vy = rng.bitvec(8), vz = rng.bitvec(8), vx = rng.bitvec(8);
    // Path 1: substitute x := y ^ z, then evaluate with {y, z}.
    const TermRef sub = substitute(mgr, t, SubstMap{{x, mgr.mk_xor(y, z)}});
    const BitVec r1 = eval_term(mgr, sub, {{y, vy}, {z, vz}});
    // Path 2: evaluate the original with x bound to vy ^ vz.
    const BitVec r2 = eval_term(mgr, t, {{x, vy ^ vz}, {y, vy}, {z, vz}});
    ASSERT_EQ(r1, r2) << "round " << round;
    (void)vx;
  }
}

// --- flat sweep (flat_eval.hpp), differentially against Evaluator ---

using Operands = std::vector<BitVec>;

/// Every combination of each operand width's edge values (0, 1, all-ones,
/// INT_MIN, INT_MAX, and the shift amounts width-1, width and width+1),
/// then 32 uniformly random tuples.
std::vector<Operands> operand_tuples(const std::vector<unsigned>& widths, Rng& rng) {
  std::vector<Operands> out{{}};
  for (unsigned w : widths) {
    const std::uint64_t ones = BitVec::mask(w), int_min = std::uint64_t{1} << (w - 1);
    const std::uint64_t edges[] = {0, 1, ones, int_min, ones >> 1, w - 1u, w, w + 1u};
    std::vector<Operands> grown;
    for (const Operands& prefix : out) {
      for (std::uint64_t e : edges) {
        Operands t = prefix;
        t.push_back(BitVec(w, e));
        if (std::find(grown.begin(), grown.end(), t) == grown.end()) grown.push_back(t);
      }
    }
    out = std::move(grown);
  }
  for (int i = 0; i < 32; ++i) {
    Operands t;
    for (unsigned w : widths) t.push_back(rng.bitvec(w));
    out.push_back(std::move(t));
  }
  return out;
}

/// One term to check: an operator, its operand widths, Extract's bit
/// range and the width ZExt/SExt extend to.
struct Shape {
  Op op;
  std::vector<unsigned> widths;
  unsigned hi, lo, to;
};

TermRef build(TermManager& m, const Shape& shape, const std::vector<TermRef>& o) {
  switch (shape.op) {
    case Op::Const:
    case Op::Var: break;
    case Op::Not: return m.mk_not(o[0]);
    case Op::And: return m.mk_and(o[0], o[1]);
    case Op::Or: return m.mk_or(o[0], o[1]);
    case Op::Xor: return m.mk_xor(o[0], o[1]);
    case Op::Neg: return m.mk_neg(o[0]);
    case Op::Add: return m.mk_add(o[0], o[1]);
    case Op::Sub: return m.mk_sub(o[0], o[1]);
    case Op::Mul: return m.mk_mul(o[0], o[1]);
    case Op::Udiv: return m.mk_udiv(o[0], o[1]);
    case Op::Urem: return m.mk_urem(o[0], o[1]);
    case Op::Sdiv: return m.mk_sdiv(o[0], o[1]);
    case Op::Srem: return m.mk_srem(o[0], o[1]);
    case Op::Shl: return m.mk_shl(o[0], o[1]);
    case Op::Lshr: return m.mk_lshr(o[0], o[1]);
    case Op::Ashr: return m.mk_ashr(o[0], o[1]);
    case Op::Ult: return m.mk_ult(o[0], o[1]);
    case Op::Ule: return m.mk_ule(o[0], o[1]);
    case Op::Slt: return m.mk_slt(o[0], o[1]);
    case Op::Sle: return m.mk_sle(o[0], o[1]);
    case Op::Eq: return m.mk_eq(o[0], o[1]);
    case Op::Ne: return m.mk_ne(o[0], o[1]);
    case Op::Ite: return m.mk_ite(o[0], o[1], o[2]);
    case Op::Concat: return m.mk_concat(o[0], o[1]);
    case Op::Extract: return m.mk_extract(o[0], shape.hi, shape.lo);
    case Op::ZExt: return m.mk_zext(o[0], shape.to);
    case Op::SExt: return m.mk_sext(o[0], shape.to);
  }
  return kNullTerm;
}

/// Widths one w-bit operand grows to: one bit wider, and 64 bits.
std::vector<unsigned> wider_than(unsigned w) {
  std::vector<unsigned> out;
  if (w < 64) out.push_back(w + 1);
  if (w + 1 < 64) out.push_back(64);
  return out;
}

/// Every operator at width `w`: binary operators over two w-bit operands,
/// Ite under a 1-bit condition, Extract of the top bit and of a middle
/// slice, extensions and concatenations one bit wider and up to 64 bits
/// (so SExt from width 1 at w = 1).
std::vector<Shape> shapes_at(unsigned w) {
  std::vector<Shape> out;
  for (int i = static_cast<int>(Op::Not); i <= static_cast<int>(Op::SExt); ++i) {
    const Op op = static_cast<Op>(i);
    switch (op) {
      case Op::Not:
      case Op::Neg: out.push_back({op, {w}, 0, 0, 0}); break;
      case Op::Ite: out.push_back({op, {1, w, w}, 0, 0, 0}); break;
      case Op::Extract:
        out.push_back({op, {w}, w - 1, w - 1, 0});
        if (w >= 3) out.push_back({op, {w}, w - 2, 1, 0});
        break;
      case Op::ZExt:
      case Op::SExt:
        for (unsigned to : wider_than(w)) out.push_back({op, {w}, 0, 0, to});
        break;
      case Op::Concat:
        for (unsigned to : wider_than(w)) out.push_back({op, {w, to - w}, 0, 0, 0});
        break;
      default: out.push_back({op, {w, w}, 0, 0, 0}); break;
    }
  }
  return out;
}

/// Checks the sweep against Evaluator on `shape` at every tuple of
/// `points`, all in one sweep: a selector input `s` picks the tuple, each
/// operand is an ite-chain of its constants over `s`, and the expected
/// side is an ite-chain of what Evaluator computes for the same term at
/// each `s`. That miter must be proved; with one expected bit flipped it
/// must not be.
void expect_sweep_agrees(const Shape& shape, const std::vector<Operands>& points) {
  std::string label = op_name(shape.op);
  for (unsigned w : shape.widths) label += ' ' + std::to_string(w);
  TermManager mgr;
  unsigned k = 1;
  while ((std::size_t{1} << k) < points.size()) ++k;
  ASSERT_LE(k, kSweepMaxInputBits) << label;
  const TermRef s = mgr.mk_var("s", k);
  // An ite-chain over s; selector values past the last tuple read tuple 0.
  const auto chain = [&](const auto& value_at) {
    TermRef acc = mgr.mk_const(value_at(0));
    for (std::size_t i = 1; i < points.size(); ++i)
      acc = mgr.mk_ite(mgr.mk_eq(s, mgr.mk_const(k, i)), mgr.mk_const(value_at(i)), acc);
    return acc;
  };
  std::vector<TermRef> operands;
  for (std::size_t j = 0; j < shape.widths.size(); ++j)
    operands.push_back(chain([&](std::size_t i) { return points[i][j]; }));
  const TermRef t = build(mgr, shape, operands);

  std::vector<BitVec> expected;
  for (std::size_t i = 0; i < points.size(); ++i)
    expected.push_back(eval_term(mgr, t, {{s, BitVec(k, i)}}));
  const TermRef want = chain([&](std::size_t i) { return expected[i]; });
  EXPECT_TRUE(sweep_proves_false(mgr, mgr.mk_ne(t, want), {s})) << label;

  std::vector<BitVec> wrong = expected;
  const std::size_t flip = points.size() / 2;
  wrong[flip] = wrong[flip] ^ BitVec(wrong[flip].width(), 1);
  const TermRef unwanted = chain([&](std::size_t i) { return wrong[i]; });
  EXPECT_FALSE(sweep_proves_false(mgr, mgr.mk_ne(t, unwanted), {s})) << label;
}

TEST(FlatSweep, MatchesEvaluatorOnEveryOpAtEveryWidth) {
  Rng rng(2024);
  for (unsigned w : {1u, 2u, 7u, 8u, 33u, 63u, 64u}) {
    for (const Shape& shape : shapes_at(w))
      expect_sweep_agrees(shape, operand_tuples(shape.widths, rng));
  }
}

TEST(FlatSweep, VariablesOutsideTheInputsReadZero) {
  // Like Evaluator's don't-care completion: y is not swept, so x + y == x
  // at every point; swept, it is not.
  TermManager mgr;
  const TermRef x = mgr.mk_var("x", 8), y = mgr.mk_var("y", 8);
  const TermRef miter = mgr.mk_ne(mgr.mk_add(x, y), x);
  EXPECT_TRUE(sweep_proves_false(mgr, miter, {x}));
  EXPECT_FALSE(sweep_proves_false(mgr, miter, {x, y}));
}

TEST(FlatSweep, ProvesAnIdentityOver16Bits) {
  // a + b == (a ^ b) + ((a & b) << 1) at all 2^16 points; dropping the
  // carry's shift breaks it.
  TermManager mgr;
  const TermRef a = mgr.mk_var("a", 8), b = mgr.mk_var("b", 8);
  const TermRef sum = mgr.mk_add(a, b);
  const TermRef half = mgr.mk_xor(a, b);
  const TermRef carry = mgr.mk_and(a, b);
  const TermRef shifted = mgr.mk_shl(carry, mgr.mk_const(8, 1));
  EXPECT_TRUE(sweep_proves_false(mgr, mgr.mk_ne(sum, mgr.mk_add(half, shifted)), {a, b}));
  EXPECT_FALSE(sweep_proves_false(mgr, mgr.mk_ne(sum, mgr.mk_add(half, carry)), {a, b}));
}

TEST(FlatSweep, FindsTheOnePointOfTwoToTheTwenty) {
  // An 8-bit register next to a 12-bit immediate, the I-type shape at
  // xlen 8: the miter is true at one of the 2^20 points, whether the sweep
  // reaches it first, mid-way or last.
  TermManager mgr;
  const TermRef reg = mgr.mk_var("reg", 8), imm = mgr.mk_var("imm", 12);
  const TermRef both = mgr.mk_concat(reg, imm);
  for (std::uint64_t point : {0x00000ULL, 0x5a5a5ULL, 0xfffffULL}) {
    const TermRef miter = mgr.mk_eq(both, mgr.mk_const(20, point));
    EXPECT_FALSE(sweep_proves_false(mgr, miter, {reg, imm})) << point;
  }
}

TEST(FlatSweep, RefusesMoreThanTwentyInputBits) {
  // The identity holds everywhere. Over 20 input bits the sweep proves it;
  // one more swept bit, even one the miter never reads, and it refuses.
  static_assert(kSweepMaxInputBits == 20);
  TermManager mgr;
  const TermRef a = mgr.mk_var("a", 10), b = mgr.mk_var("b", 10);
  const TermRef c = mgr.mk_var("c", 1);
  const TermRef carry = mgr.mk_shl(mgr.mk_and(a, b), mgr.mk_const(10, 1));
  const TermRef miter = mgr.mk_ne(mgr.mk_add(a, b), mgr.mk_add(mgr.mk_xor(a, b), carry));
  EXPECT_TRUE(sweep_proves_false(mgr, miter, {a, b}));
  EXPECT_FALSE(sweep_proves_false(mgr, miter, {a, b, c}));
}

}  // namespace
}  // namespace sepe::smt
