// Tests for the synthesis engine: the multiset CEGIS core (encoding +
// refinement loop), the identity-exclusion constraint, the same-component
// symmetry cut, the three search drivers (classical / iterative / HPF),
// the priority bookkeeping of Algorithm 1, and the equivalence table.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/iss.hpp"
#include "smt/flat_eval.hpp"
#include "synth/cegis.hpp"
#include "util/rng.hpp"

namespace sepe::synth {
namespace {

using isa::Opcode;

const Component* by_name(const std::vector<Component>& lib, const std::string& name) {
  for (const Component& c : lib)
    if (c.name == name) return &c;
  return nullptr;
}

CegisOptions fast_cegis() {
  CegisOptions o;
  o.xlen = 8;  // keep solver work unit-test sized
  return o;
}

// --- combinations with replacement (§2.2) ---

TEST(Combinations, MatchesBinomialCount) {
  // |multisets| = C(N + n - 1, n).
  EXPECT_EQ(combinations_with_replacement(3, 2).size(), 6u);    // C(4,2)
  EXPECT_EQ(combinations_with_replacement(5, 3).size(), 35u);   // C(7,3)
  EXPECT_EQ(combinations_with_replacement(1, 4).size(), 1u);
}

TEST(Combinations, PaperExampleCount) {
  // §2.2: N=29 components, n=6 => 1,344,904 multisets.
  // Computing the count without materializing: C(34,6).
  std::uint64_t c = 1;
  for (unsigned i = 0; i < 6; ++i) c = c * (34 - i) / (i + 1);
  EXPECT_EQ(c, 1344904u);
  // And the materialized n=3 case the benches use: C(31,3) = 4495.
  EXPECT_EQ(combinations_with_replacement(29, 3).size(), 4495u);
}

TEST(Combinations, TuplesAreSortedAndUnique) {
  const auto ms = combinations_with_replacement(4, 3);
  for (const auto& m : ms) EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
  auto copy = ms;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(std::adjacent_find(copy.begin(), copy.end()), copy.end());
}

// --- the CEGIS core on hand-picked multisets ---

TEST(CegisMultiset, SynthesizesSubFromNotAddNot) {
  // The paper's Listing 1: SUB == XORI(-1) ; ADD ; XORI(-1).
  const auto lib = make_standard_library();
  const SynthSpec spec = make_spec(Opcode::SUB);
  const std::vector<const Component*> multiset = {
      by_name(lib, "NOT"), by_name(lib, "ADD"), by_name(lib, "NOT")};
  CegisStats stats;
  const auto program = cegis_multiset(spec, multiset, fast_cegis(), &stats);
  ASSERT_TRUE(program.has_value());
  EXPECT_EQ(program->lines.size(), 3u);
  EXPECT_GE(stats.iterations, 1u);
  // The found program must be verifiable at the synthesis width and at a
  // wider one (width-genericity of the equivalence).
  EXPECT_TRUE(verify_program(*program, 8));
  EXPECT_TRUE(verify_program(*program, 16));
}

TEST(CegisMultiset, SynthesizedSubEvaluatesCorrectly) {
  const auto lib = make_standard_library();
  const SynthSpec spec = make_spec(Opcode::SUB);
  const std::vector<const Component*> multiset = {
      by_name(lib, "NOT"), by_name(lib, "ADD"), by_name(lib, "NOT")};
  const auto program = cegis_multiset(spec, multiset, fast_cegis());
  ASSERT_TRUE(program.has_value());
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const BitVec a = rng.bitvec(8), b = rng.bitvec(8);
    EXPECT_EQ(program->eval({a, b}, 8), a - b);
  }
}

TEST(CegisMultiset, SynthesizesNegFromNotAddi) {
  // NEG(a) = ADDI(NOT(a), 1): forces the solver to pick the constant 1.
  const auto lib = make_standard_library();
  SynthSpec spec;
  spec.name = "NEG_SPEC";
  spec.opcode = Opcode::SUB;
  spec.inputs = {InputClass::Reg};
  spec.semantics = [](smt::TermManager& mgr, const std::vector<smt::TermRef>& in,
                      unsigned) { return mgr.mk_neg(in[0]); };
  const std::vector<const Component*> multiset = {by_name(lib, "NOT"),
                                                  by_name(lib, "ADDI")};
  const auto program = cegis_multiset(spec, multiset, fast_cegis());
  ASSERT_TRUE(program.has_value());
  EXPECT_TRUE(verify_program(*program, 8));
  EXPECT_EQ(program->eval({BitVec(8, 5)}, 8), BitVec(8, 251));  // -5 mod 256
}

TEST(CegisMultiset, SynthesizesXoriViaImmediatePassthrough) {
  // XORI(a, imm) == NOT(XORI(NOT(a), imm)) — requires wiring the spec's
  // symbolic immediate *through* the component attribute, not solving a
  // constant (no constant works for all imm).
  const auto lib = make_standard_library();
  const SynthSpec spec = make_spec(Opcode::XORI);
  const std::vector<const Component*> multiset = {
      by_name(lib, "NOT"), by_name(lib, "XORI"), by_name(lib, "NOT")};
  const auto program = cegis_multiset(spec, multiset, fast_cegis());
  ASSERT_TRUE(program.has_value());
  EXPECT_TRUE(verify_program(*program, 8));
  bool uses_passthrough = false;
  for (const SynthLine& l : program->lines)
    for (const AttrBinding& ab : l.attrs) uses_passthrough |= ab.passthrough;
  EXPECT_TRUE(uses_passthrough);
}

TEST(CegisMultiset, IdentityExclusionBlocksSelfDuplication) {
  // §4.1's input constraint: with only a SUB component available, the
  // "equivalent program" for SUB would have to be SUB itself — which the
  // constraint forbids, because it would degenerate into SQED.
  const auto lib = make_standard_library();
  const SynthSpec spec = make_spec(Opcode::SUB);
  const std::vector<const Component*> multiset = {by_name(lib, "SUB")};
  EXPECT_FALSE(cegis_multiset(spec, multiset, fast_cegis()).has_value());

  CegisOptions no_exclusion = fast_cegis();
  no_exclusion.exclude_identity = false;
  const auto program = cegis_multiset(spec, multiset, no_exclusion);
  ASSERT_TRUE(program.has_value());  // the identity is found once allowed
  EXPECT_TRUE(verify_program(*program, 8));
}

TEST(CegisMultiset, SubIsExpressibleWithSubDifferently) {
  // {SUB, SUB, SUB} admits a non-identity equivalent (the paper's §4.2
  // example pattern: SUB t1,rs1,rs1; SUB t2,t1,rs2; SUB rd,rs1,t2 — any
  // wiring that differs from the verbatim operands satisfies §4.1).
  const auto lib = make_standard_library();
  const SynthSpec spec = make_spec(Opcode::SUB);
  const std::vector<const Component*> multiset = {
      by_name(lib, "SUB"), by_name(lib, "SUB"), by_name(lib, "SUB")};
  const auto program = cegis_multiset(spec, multiset, fast_cegis());
  ASSERT_TRUE(program.has_value());
  EXPECT_TRUE(verify_program(*program, 8));
}

TEST(CegisMultiset, RejectsInexpressibleSpecs) {
  // AND cannot be built from ADD components alone.
  const auto lib = make_standard_library();
  const SynthSpec spec = make_spec(Opcode::AND);
  const std::vector<const Component*> multiset = {by_name(lib, "ADD"),
                                                  by_name(lib, "ADD")};
  EXPECT_FALSE(cegis_multiset(spec, multiset, fast_cegis()).has_value());
}

TEST(CegisMultiset, SweptProgramHoldsOnlyAtItsWidth) {
  // SLT == SLTU(XORI(a, m), XORI(b, m)) where m flips the sign bit, which
  // is a different constant at each width. At xlen 4 the spec has 8 input
  // bits, so CEGIS accepts the candidate by the exhaustive sweep; the SAT
  // re-proof agrees at 4 and refutes it at 8.
  static_assert(2 * 4 <= smt::kSweepMaxInputBits);
  const auto lib = make_standard_library();
  const SynthSpec spec = make_spec(Opcode::SLT);
  const std::vector<const Component*> multiset = {
      by_name(lib, "XORI"), by_name(lib, "XORI"), by_name(lib, "SLTU")};
  CegisOptions o = fast_cegis();
  o.xlen = 4;
  const auto program = cegis_multiset(spec, multiset, o);
  ASSERT_TRUE(program.has_value());
  EXPECT_TRUE(verify_program(*program, 4));
  EXPECT_FALSE(verify_program(*program, 8));
}

TEST(CegisMultiset, AcceptsAboveTheSweepCapBySat) {
  // At xlen 12 SUB's two register inputs total 24 bits, over the sweep
  // cap, so CEGIS accepts on the SAT verifier's UNSAT answer.
  static_assert(2 * 12 > smt::kSweepMaxInputBits);
  const auto lib = make_standard_library();
  const SynthSpec spec = make_spec(Opcode::SUB);
  const std::vector<const Component*> multiset = {
      by_name(lib, "NOT"), by_name(lib, "ADD"), by_name(lib, "NOT")};
  CegisOptions o = fast_cegis();
  o.xlen = 12;
  const auto program = cegis_multiset(spec, multiset, o);
  ASSERT_TRUE(program.has_value());
  EXPECT_TRUE(verify_program(*program, 12));
  EXPECT_EQ(program->eval({BitVec(12, 5), BitVec(12, 7)}, 12), BitVec(12, 0xffe));
}

TEST(CegisMultiset, SameComponentCutKeepsEveryProgram) {
  // The encoder orders the output slots of lines that share a Component
  // pointer. A copy of the component sits at another address, so the cut
  // cannot pair it, and [A, copy, B] searches the uncut space. Were the
  // cut to remove programs rather than permutations, some [A, A, B] would
  // fail where [A, copy, B] succeeds. The battery mixes refutations with
  // the pinned table's duplicated-component programs (NOT, NOT, SUB for
  // ADD; XORI, XORI, SLTU for SLT; ...), plus [A, A, A] against two copies.
  const auto lib = make_standard_library();
  const auto cases = make_figure3_cases();
  // Each name is both a Figure-3 case and a partner component B.
  const auto names = {"ADD", "SUB", "SLT", "SLTU", "SRA", "ADDI", "XORI", "SRAI"};
  unsigned found = 0;
  auto check = [&](const SynthSpec& spec, const std::vector<const Component*>& cut,
                   const std::vector<const Component*>& uncut) {
    const auto p_cut = cegis_multiset(spec, cut, fast_cegis());
    const auto p_uncut = cegis_multiset(spec, uncut, fast_cegis());
    std::string where = spec.name + ":";
    for (const Component* c : cut) where += " " + c->name;
    EXPECT_EQ(p_cut.has_value(), p_uncut.has_value()) << where;
    EXPECT_TRUE(!p_cut || verify_program(*p_cut, 8)) << where;
    EXPECT_TRUE(!p_uncut || verify_program(*p_uncut, 8)) << where;
    found += p_cut.has_value();
  };
  for (const SynthSpec& spec : cases) {
    if (std::find(names.begin(), names.end(), spec.name) == names.end()) continue;
    for (const char* a_name : {"NOT", "XORI"}) {
      const Component* a = by_name(lib, a_name);
      const Component copy = *a, copy2 = *a;
      check(spec, {a, a, a}, {a, &copy, &copy2});
      for (const std::string b : names) {
        if (b == a_name) continue;
        const Component* partner = by_name(lib, b);
        check(spec, {a, a, partner}, {a, &copy, partner});
      }
    }
  }
  EXPECT_GE(found, 8u);  // every spec above has a duplicated-NOT or -XORI program
}

TEST(CegisMultiset, LoweredProgramRunsOnTheIss) {
  // End-to-end: synthesized SUB-equivalent, lowered to registers, matches
  // a direct SUB on the simulator (the EDSEP-V testing path in miniature).
  const auto lib = make_standard_library();
  const SynthSpec spec = make_spec(Opcode::SUB);
  const std::vector<const Component*> multiset = {
      by_name(lib, "NOT"), by_name(lib, "ADD"), by_name(lib, "NOT")};
  const auto program = cegis_multiset(spec, multiset, fast_cegis());
  ASSERT_TRUE(program.has_value());

  const isa::Program lowered = program->lower({2, 3}, 1, {}, {26, 27, 28, 29, 30, 31});
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const BitVec a = rng.bitvec(16), b = rng.bitvec(16);
    sim::Iss direct(16, 8), equiv(16, 8);
    direct.state().set_reg(2, a);
    direct.state().set_reg(3, b);
    equiv.state().set_reg(2, a);
    equiv.state().set_reg(3, b);
    direct.step(isa::Instruction::rtype(Opcode::SUB, 1, 2, 3));
    equiv.run(lowered);
    ASSERT_EQ(direct.state().reg(1), equiv.state().reg(1));
  }
}

// --- the priority dictionary of Algorithm 1 ---

TEST(PriorityDict, InitialPriorityIsUniformWithoutPenalty) {
  HpfOptions hpf;
  PriorityDict dict(4, hpf);
  const auto lib = make_standard_library();
  const SynthSpec spec = make_spec(Opcode::AND);  // matches no component below
  const double p1 = dict.priority({0, 1}, spec, lib);
  const double p2 = dict.priority({2, 3}, spec, lib);
  EXPECT_DOUBLE_EQ(p1, p2);
}

TEST(PriorityDict, AlphaPenalizesSameNameComponents) {
  const auto lib = make_standard_library();
  HpfOptions hpf;
  PriorityDict dict(lib.size(), hpf);
  const SynthSpec spec = make_spec(Opcode::SUB);
  // Find SUB's index and a neutral one.
  unsigned sub = 0, add = 0;
  for (unsigned j = 0; j < lib.size(); ++j) {
    if (lib[j].name == "SUB") sub = j;
    if (lib[j].name == "ADD") add = j;
  }
  EXPECT_LT(dict.priority({sub, sub, sub}, spec, lib),
            dict.priority({add, add, add}, spec, lib));
}

TEST(PriorityDict, RewardRaisesAndPenalizeLowersPriority) {
  const auto lib = make_standard_library();
  HpfOptions hpf;
  PriorityDict dict(lib.size(), hpf);
  const SynthSpec spec = make_spec(Opcode::AND);
  const std::vector<unsigned> a = {0, 1}, b = {2, 3};
  const double before = dict.priority(a, spec, lib);
  dict.reward(a);
  EXPECT_GT(dict.priority(a, spec, lib), before);
  dict.penalize(b);
  EXPECT_LT(dict.priority(b, spec, lib), before);
}

TEST(PriorityDict, AblationKnobsDisableUpdates) {
  HpfOptions off;
  off.enable_choice_updates = false;
  off.enable_exclusion_updates = false;
  PriorityDict dict(4, off);
  dict.reward({0});
  dict.penalize({1});
  EXPECT_EQ(dict.choice_weight(0), off.initial_choice_weight);
  EXPECT_EQ(dict.exclusion_weight(1), off.initial_exclusion_weight);
}

// --- drivers ---

DriverOptions fast_driver(unsigned n, unsigned k) {
  DriverOptions o;
  o.cegis = fast_cegis();
  o.multiset_size = n;
  o.target_programs = k;
  o.max_seconds = 30.0;
  return o;
}

std::vector<Component> small_library() {
  const auto lib = make_standard_library();
  std::vector<Component> out;
  for (const char* name : {"ADD", "SUB", "XOR", "NOT", "ADDI"})
    out.push_back(*by_name(lib, name));
  return out;
}

TEST(HpfCegis, FindsEquivalentsForSub) {
  const SynthSpec spec = make_spec(Opcode::SUB);
  const auto lib = small_library();  // must outlive the returned programs
  HpfOptions hpf;
  const auto result = hpf_cegis(spec, lib, fast_driver(3, 2), hpf);
  ASSERT_GE(result.programs.size(), 1u);
  for (const SynthProgram& p : result.programs) EXPECT_TRUE(verify_program(p, 8));
  EXPECT_GE(result.multisets_tried, 1u);
  EXPECT_GE(result.multisets_succeeded, 1u);
}

TEST(HpfCegis, ProgramsAreDeduplicated) {
  const SynthSpec spec = make_spec(Opcode::SUB);
  const auto lib = small_library();
  HpfOptions hpf;
  const auto result = hpf_cegis(spec, lib, fast_driver(3, 4), hpf);
  std::vector<std::string> fps;
  for (const SynthProgram& p : result.programs) fps.push_back(p.fingerprint());
  std::sort(fps.begin(), fps.end());
  EXPECT_EQ(std::adjacent_find(fps.begin(), fps.end()), fps.end());
}

TEST(HpfCegis, SharedDictLearnsAcrossInstructions) {
  // After synthesizing SUB, the weights of the components used should have
  // grown (choice) or shrunk (exclusion) relative to their initial values.
  const auto lib = small_library();
  HpfOptions hpf;
  PriorityDict dict(lib.size(), hpf);
  const SynthSpec spec = make_spec(Opcode::SUB);
  const auto result = hpf_cegis(spec, lib, fast_driver(3, 2), hpf, &dict);
  ASSERT_GE(result.programs.size(), 1u);
  bool any_learned = false;
  for (unsigned j = 0; j < lib.size(); ++j) {
    if (dict.choice_weight(j) != hpf.initial_choice_weight ||
        dict.exclusion_weight(j) != hpf.initial_exclusion_weight)
      any_learned = true;
  }
  EXPECT_TRUE(any_learned);
}

TEST(IterativeCegis, FindsEquivalentsForSub) {
  const SynthSpec spec = make_spec(Opcode::SUB);
  const auto lib = small_library();
  const auto result = iterative_cegis(spec, lib, fast_driver(3, 1));
  ASSERT_GE(result.programs.size(), 1u);
  EXPECT_TRUE(verify_program(result.programs.front(), 8));
}

TEST(IterativeCegis, ShuffleSeedChangesVisitOrder) {
  // Different shuffles should (generically) reach the first program after
  // a different number of attempts; at minimum both runs succeed.
  const SynthSpec spec = make_spec(Opcode::SUB);
  auto o1 = fast_driver(3, 1);
  o1.shuffle_seed = 1;
  auto o2 = fast_driver(3, 1);
  o2.shuffle_seed = 99;
  const auto lib = small_library();
  const auto r1 = iterative_cegis(spec, lib, o1);
  const auto r2 = iterative_cegis(spec, lib, o2);
  EXPECT_GE(r1.programs.size(), 1u);
  EXPECT_GE(r2.programs.size(), 1u);
}

TEST(ClassicalCegis, SolvesWhenTheWholeLibraryIsTheProgram) {
  // Classical CEGIS instantiates every library component; it can only
  // succeed when the full library happens to form a program. {NOT, ADDI}
  // for NEG(a) = ADDI(NOT(a), 1) is exactly such a library.
  const auto lib = make_standard_library();
  std::vector<Component> tiny = {*by_name(lib, "NOT"), *by_name(lib, "ADDI")};
  SynthSpec spec;
  spec.name = "NEG_SPEC";
  spec.opcode = Opcode::SUB;
  spec.inputs = {InputClass::Reg};
  spec.semantics = [](smt::TermManager& mgr, const std::vector<smt::TermRef>& in,
                      unsigned) { return mgr.mk_neg(in[0]); };
  const auto result = classical_cegis(spec, tiny, fast_driver(0, 1), 1);
  ASSERT_EQ(result.programs.size(), 1u);
  EXPECT_TRUE(verify_program(result.programs.front(), 8));
}

TEST(ClassicalCegis, FailsWhenLibraryHasIrrelevantComponents) {
  // Adding an unused component makes the monolithic encoding (which must
  // wire in *every* instance) unsatisfiable for this spec — the structural
  // reason classical CEGIS collapses on realistic libraries (§6.1).
  const auto lib = make_standard_library();
  std::vector<Component> tiny = {*by_name(lib, "NOT"), *by_name(lib, "ADDI"),
                                 *by_name(lib, "SLL")};
  SynthSpec spec;
  spec.name = "NEG_SPEC";
  spec.opcode = Opcode::SUB;
  spec.inputs = {InputClass::Reg};
  spec.semantics = [](smt::TermManager& mgr, const std::vector<smt::TermRef>& in,
                      unsigned) { return mgr.mk_neg(in[0]); };
  const auto result = classical_cegis(spec, tiny, fast_driver(0, 1), 1);
  EXPECT_TRUE(result.programs.empty());
}

// --- equivalence table ---

SynthesisResult sub_programs() {
  static const SynthSpec spec = make_spec(Opcode::SUB);
  static const auto lib = small_library();
  HpfOptions hpf;
  return hpf_cegis(spec, lib, fast_driver(3, 3), hpf);
}

TEST(EquivalenceTableTest, StoresAndLooksUp) {
  const auto result = sub_programs();
  ASSERT_GE(result.programs.size(), 1u);
  EquivalenceTable table;
  for (const SynthProgram& p : result.programs) table.add("SUB", p);
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.find("SUB"), nullptr);
  EXPECT_EQ(table.find("SUB")->size(), result.programs.size());
  EXPECT_NE(table.first("SUB"), nullptr);
  EXPECT_EQ(table.find("ADD"), nullptr);
  EXPECT_EQ(table.first("ADD"), nullptr);
}

TEST(EquivalenceTableTest, FirstAvoidingSkipsTheOpcode) {
  const auto result = sub_programs();
  EquivalenceTable table;
  for (const SynthProgram& p : result.programs) table.add("SUB", p);
  if (const SynthProgram* p = table.first_avoiding("SUB", Opcode::SUB)) {
    EXPECT_FALSE(p->uses_opcode(Opcode::SUB));
  }
}

TEST(EquivalenceTableTest, SelectDistinctKeepsOnePerInstruction) {
  const auto result = sub_programs();
  ASSERT_GE(result.programs.size(), 1u);
  EquivalenceTable table;
  for (const SynthProgram& p : result.programs) table.add("SUB", p);
  const EquivalenceTable distinct = table.select_distinct();
  ASSERT_NE(distinct.find("SUB"), nullptr);
  EXPECT_EQ(distinct.find("SUB")->size(), 1u);
}

TEST(EquivalenceTableTest, ToStringListsPrograms) {
  const auto result = sub_programs();
  ASSERT_GE(result.programs.size(), 1u);
  EquivalenceTable table;
  table.add("SUB", result.programs.front());
  const std::string s = table.to_string();
  EXPECT_NE(s.find("# SUB"), std::string::npos);
}

TEST(BuildEquivalenceTable, CoversRequestedSpecs) {
  const std::vector<SynthSpec> specs = {make_spec(Opcode::SUB), make_spec(Opcode::ADD)};
  DriverOptions opts = fast_driver(3, 1);
  const auto lib = small_library();
  const EquivalenceTable table = build_equivalence_table(specs, lib, opts, 1);
  EXPECT_NE(table.first("SUB"), nullptr);
  EXPECT_NE(table.first("ADD"), nullptr);
  // Every stored program verifies at the synthesis width and wider.
  for (const char* name : {"SUB", "ADD"}) {
    const SynthProgram* p = table.first(name);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(verify_program(*p, 8)) << name;
    EXPECT_TRUE(verify_program(*p, 16)) << name;
  }
}

}  // namespace
}  // namespace sepe::synth
