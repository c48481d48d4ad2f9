// Tests for the parallel verification-campaign engine: verdict parity
// between multi-threaded and single-threaded runs, deterministic reports
// and counters, the two horizons of the per-job prover loop (--bound
// falsifies, --max-k proves), budgets that forfeit only the proof, and
// the crash-only global stop interrupting every solver layer.
#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <sstream>

#include "engine/campaign.hpp"
#include "engine/pinned_table.hpp"
#include "engine/witness.hpp"
#include "engine/workload.hpp"
#include "proc/mutations.hpp"
#include "sat/solver.hpp"
#include "smt/smt_solver.hpp"
#include "util/fault.hpp"

namespace sepe::engine {
namespace {

using smt::TermRef;

/// Job over a counter that increments by an input-controlled step:
/// falsified at depth `target` when target <= max_bound, bound-clean
/// otherwise (never provable — a symbolic window state can sit at the
/// target, so the inductive step stays satisfiable).
JobSpec counter_job(const std::string& name, unsigned width, std::uint64_t target,
                    const JobBudget& budget) {
  JobSpec job;
  job.name = name;
  job.budget = budget;
  job.build = [width, target](ts::TransitionSystem& ts, std::string*) {
    smt::TermManager& mgr = ts.mgr();
    const TermRef cnt = ts.add_state("cnt", width);
    const TermRef inc = ts.add_input("inc", 1);
    ts.set_init(cnt, mgr.mk_const(width, 0));
    ts.set_next(cnt, mgr.mk_ite(inc, mgr.mk_add(cnt, mgr.mk_const(width, 1)), cnt));
    ts.add_bad(mgr.mk_eq(cnt, mgr.mk_const(width, target)), "cnt-target");
    return true;
  };
  return job;
}

/// Job over a frozen register: init 0, never changes, bad = (x == 1).
/// k-induction proves it at k = 1 (x != 1 stays x != 1); BMC alone can
/// only ever sweep bounds.
JobSpec frozen_job(const std::string& name, unsigned width, const JobBudget& budget) {
  JobSpec job;
  job.name = name;
  job.budget = budget;
  job.build = [width](ts::TransitionSystem& ts, std::string*) {
    smt::TermManager& mgr = ts.mgr();
    const TermRef x = ts.add_state("x", width);
    ts.set_init(x, mgr.mk_const(width, 0));
    ts.set_next(x, x);
    ts.add_bad(mgr.mk_eq(x, mgr.mk_const(width, 1)), "x-one");
    return true;
  };
  return job;
}

/// Job over a 2-bit counter that saturates at 3 (0 -> 1 -> 2 -> 3 -> 3),
/// bad = (c == 2). The inductive step first closes at k = 3 (no state
/// steps into 0), but the base case for that proof reaches bound 2,
/// where the bad fires.
JobSpec saturating_job(const std::string& name, const JobBudget& budget) {
  JobSpec job;
  job.name = name;
  job.budget = budget;
  job.build = [](ts::TransitionSystem& ts, std::string*) {
    smt::TermManager& mgr = ts.mgr();
    const TermRef c = ts.add_state("c", 2);
    const TermRef three = mgr.mk_const(2, 3);
    ts.set_init(c, mgr.mk_const(2, 0));
    ts.set_next(c, mgr.mk_ite(mgr.mk_eq(c, three), three,
                              mgr.mk_add(c, mgr.mk_const(2, 1))));
    ts.add_bad(mgr.mk_eq(c, mgr.mk_const(2, 2)), "c-two");
    return true;
  };
  return job;
}

/// Job whose bad condition is never true but costs SAT search to refute:
/// (a*b)*c != a*(b*c) over 8-bit registers stepping a += 1, b += 3,
/// c += 5. With `concrete_init` every BMC bound folds to constants and
/// solves without a conflict, so only the inductive step (from a
/// symbolic state) searches; without it BMC bound 0 already searches.
JobSpec associativity_job(const std::string& name, bool concrete_init,
                          const JobBudget& budget) {
  JobSpec job;
  job.name = name;
  job.budget = budget;
  job.build = [concrete_init](ts::TransitionSystem& ts, std::string*) {
    smt::TermManager& mgr = ts.mgr();
    constexpr unsigned kWidth = 8;
    TermRef regs[3];
    for (unsigned i = 0; i < 3; ++i) {
      regs[i] = ts.add_state(std::string(1, static_cast<char>('a' + i)), kWidth);
      if (concrete_init) ts.set_init(regs[i], mgr.mk_const(kWidth, 3 + 2 * i));
      ts.set_next(regs[i], mgr.mk_add(regs[i], mgr.mk_const(kWidth, 1 + 2 * i)));
    }
    const auto [a, b, c] = regs;
    const TermRef lhs = mgr.mk_mul(mgr.mk_mul(a, b), c);
    const TermRef rhs = mgr.mk_mul(a, mgr.mk_mul(b, c));
    ts.add_bad(mgr.mk_ne(lhs, rhs), "associativity");
    return true;
  };
  return job;
}

TEST(EngineJob, FalsifiesReachableCounter) {
  JobBudget budget;
  budget.max_bound = 10;
  budget.max_k = 4;
  const JobResult r = run_job(counter_job("cnt5", 8, 5, budget));
  EXPECT_EQ(r.verdict, Verdict::Falsified);
  EXPECT_EQ(r.trace_length, 5u);
  EXPECT_EQ(r.bad_label, "cnt-target");
  ASSERT_TRUE(r.trace != nullptr);
  EXPECT_EQ(r.trace->length, 5u);
}

TEST(EngineJob, ProvesFrozenRegisterByInduction) {
  JobBudget budget;
  budget.max_bound = 3;
  budget.max_k = 4;
  const JobResult r = run_job(frozen_job("frozen", 8, budget));
  EXPECT_EQ(r.verdict, Verdict::Proved);
  EXPECT_GE(r.proved_k, 1u);
}

TEST(EngineJob, BoundCleanWhenUnreachableWithinBound) {
  JobBudget budget;
  budget.max_bound = 5;
  budget.max_k = 3;
  const JobResult r = run_job(counter_job("cnt40", 8, 40, budget));
  EXPECT_EQ(r.verdict, Verdict::BoundClean);
  EXPECT_EQ(r.bmc_bounds_checked, 6u);  // bounds 0..5, all clean
}

TEST(EngineJob, RaceDisabledNeverProves) {
  JobBudget budget;
  budget.max_bound = 3;
  budget.max_k = 0;  // BMC only
  const JobResult r = run_job(frozen_job("frozen", 8, budget));
  EXPECT_EQ(r.verdict, Verdict::BoundClean);
}

// The frozen register is 1-inductive, while the falsification horizon is
// five orders of magnitude deeper than anyone could sweep. The loop must
// stop at the proof depth: bounds 0 and 1, then the closing step at 1.
TEST(EngineJob, ProofStopsTheSweepAtItsDepth) {
  JobBudget budget;
  budget.max_bound = 200000;
  budget.max_k = 4;
  const JobResult r = run_job(frozen_job("frozen-deep", 24, budget));
  EXPECT_EQ(r.verdict, Verdict::Proved);
  EXPECT_EQ(r.proved_k, 1u);
  EXPECT_EQ(r.bmc_bounds_checked, 2u);
}

// --bound is the falsification horizon, --max-k the proof horizon: a
// proof horizon deeper than the bound never falsifies past the bound.
TEST(EngineJob, MaxKPastTheBoundDoesNotFalsifyPastIt) {
  JobBudget budget;
  budget.max_bound = 3;
  budget.max_k = 8;
  const JobResult r = run_job(counter_job("cnt5", 8, 5, budget));
  EXPECT_EQ(r.verdict, Verdict::BoundClean);
  EXPECT_EQ(r.bmc_bounds_checked, 4u);  // bounds 0..3
}

// A step that closes past the bound still needs its base case: bounds
// 0..k-1 clean. Extending BMC to get there finds the violation at 2, so
// the job is FALSIFIED, never PROVED.
TEST(EngineJob, ProofPastTheBoundExtendsTheBaseCase) {
  JobBudget budget;
  budget.max_bound = 1;
  budget.max_k = 3;
  const JobResult r = run_job(saturating_job("saturating", budget));
  EXPECT_EQ(r.verdict, Verdict::Falsified);
  EXPECT_EQ(r.trace_length, 2u);
  EXPECT_EQ(r.bad_label, "c-two");
  ASSERT_TRUE(r.trace != nullptr);
  EXPECT_EQ(r.trace->length, 2u);
}

// A budget that trips in an inductive step forfeits only the proof: BMC
// still sweeps to the bound, and the row is BOUND_CLEAN. The same budget
// tripping in a BMC bound leaves nothing definite: UNKNOWN.
TEST(EngineJob, StepBudgetForfeitsOnlyTheProof) {
  JobBudget budget;
  budget.max_bound = 4;
  budget.max_k = 2;
  budget.conflict_budget = 1;
  const JobResult step_tripped =
      run_job(associativity_job("concrete-init", /*concrete_init=*/true, budget));
  EXPECT_EQ(step_tripped.verdict, Verdict::BoundClean);
  EXPECT_TRUE(step_tripped.hit_resource_limit);
  EXPECT_EQ(step_tripped.bmc_bounds_checked, 5u);  // bounds 0..4

  const JobResult bmc_tripped =
      run_job(associativity_job("symbolic-init", /*concrete_init=*/false, budget));
  EXPECT_EQ(bmc_tripped.verdict, Verdict::Unknown);
  EXPECT_TRUE(bmc_tripped.hit_resource_limit);
  EXPECT_TRUE(bmc_tripped.note.empty());  // a conflict budget, not memory
}

/// The crash-only stop is process-global: every test leaves it cleared.
class EngineCancellation : public ::testing::Test {
 protected:
  void TearDown() override { fault::clear_global_stop(); }
};

TEST_F(EngineCancellation, PresetStopFlagCancelsBmcBeforeAnyBound) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef cnt = ts.add_state("cnt", 8);
  ts.set_init(cnt, mgr.mk_const(8, 0));
  ts.set_next(cnt, mgr.mk_add(cnt, mgr.mk_const(8, 1)));
  ts.add_bad(mgr.mk_eq(cnt, mgr.mk_const(8, 3)), "cnt-3");

  fault::request_global_stop();
  bmc::Bmc checker(ts);
  bmc::BmcOptions bo;
  bo.max_bound = 10;
  EXPECT_FALSE(checker.check(bo).has_value());
  EXPECT_TRUE(checker.stats().cancelled);
  EXPECT_FALSE(checker.stats().hit_resource_limit);
  EXPECT_EQ(checker.stats().bounds_checked, 0u);
}

TEST_F(EngineCancellation, PresetStopFlagCancelsKInduction) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef x = ts.add_state("x", 8);
  ts.set_init(x, mgr.mk_const(8, 0));
  ts.set_next(x, x);
  ts.add_bad(mgr.mk_eq(x, mgr.mk_const(8, 1)), "x-one");

  fault::request_global_stop();
  bmc::KInductionOptions ko;
  ko.max_bound = 5;
  ko.max_k = 5;
  const bmc::KInductionResult r = bmc::prove_by_k_induction(ts, ko);
  EXPECT_EQ(r.status, bmc::KInductionStatus::Unknown);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.bound_clean);
  EXPECT_EQ(r.bmc_bounds_checked, 0u);
}

// A SIGTERM can land after a Sat result, while the witness is read back.
// Model extension inside value() (triggered by blasting a term the last
// solve never covered) must ignore the stop instead of tearing the model
// mid-read.
TEST_F(EngineCancellation, WitnessExtractionSurvivesLateStopFlag) {
  smt::TermManager mgr;
  smt::SmtSolver solver(mgr);
  const smt::TermRef x = mgr.mk_var("x", 8);
  solver.assert_formula(mgr.mk_eq(x, mgr.mk_const(8, 42)));
  ASSERT_EQ(solver.check(), smt::Result::Sat);
  // The stop arrives now...
  fault::request_global_stop();
  // ...and reading a not-yet-blasted term still extends the model.
  const smt::TermRef doubled = mgr.mk_add(x, x);
  EXPECT_EQ(solver.value(doubled), BitVec(8, 84));
  EXPECT_EQ(solver.value(x), BitVec(8, 42));
}

TEST_F(EngineCancellation, PresetStopFlagAbortsSatSolve) {
  sat::Solver solver;
  const int a = solver.new_var(), b = solver.new_var();
  solver.add_clause(sat::Lit(a, false), sat::Lit(b, false));
  fault::request_global_stop();
  EXPECT_EQ(solver.solve(), sat::SolveResult::Unknown);
  fault::clear_global_stop();
  EXPECT_EQ(solver.solve(), sat::SolveResult::Sat);
}

/// A mixed 12-job campaign covering every verdict class.
CampaignSpec mixed_spec() {
  JobBudget budget;
  budget.max_bound = 8;
  budget.max_k = 3;
  CampaignSpec spec;
  spec.seed = 42;
  for (unsigned t = 1; t <= 6; ++t)
    spec.jobs.push_back(
        counter_job("cnt-" + std::to_string(t), 6 + t % 3, t, budget));
  for (unsigned w = 4; w <= 7; ++w)
    spec.jobs.push_back(frozen_job("frozen-" + std::to_string(w), w, budget));
  spec.jobs.push_back(counter_job("clean-20", 8, 20, budget));
  spec.jobs.push_back(counter_job("clean-30", 8, 30, budget));
  return spec;
}

TEST(EngineCampaign, MultiThreadedVerdictsMatchSequential) {
  const CampaignSpec spec = mixed_spec();
  CampaignOptions seq;
  seq.threads = 1;
  CampaignOptions par;
  par.threads = 4;
  const CampaignReport a = run_campaign(spec, seq);
  const CampaignReport b = run_campaign(spec, par);
  ASSERT_EQ(a.jobs.size(), spec.jobs.size());
  ASSERT_EQ(b.jobs.size(), spec.jobs.size());
  for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].name, spec.jobs[i].name) << "report out of spec order";
    EXPECT_EQ(a.jobs[i].name, b.jobs[i].name);
    EXPECT_EQ(a.jobs[i].verdict, b.jobs[i].verdict) << spec.jobs[i].name;
    EXPECT_EQ(a.jobs[i].trace_length, b.jobs[i].trace_length) << spec.jobs[i].name;
    EXPECT_EQ(a.jobs[i].proved_k, b.jobs[i].proved_k) << spec.jobs[i].name;
  }
  // Expected verdict mix: 6 falsified counters, 4 proved frozen
  // registers, 2 clean sweeps.
  EXPECT_EQ(a.count(Verdict::Falsified), 6u);
  EXPECT_EQ(a.count(Verdict::Proved), 4u);
  EXPECT_EQ(a.count(Verdict::BoundClean), 2u);
  EXPECT_EQ(a.count(Verdict::Unknown), 0u);
}

TEST(EngineCampaign, StableReportIsByteDeterministic) {
  const CampaignSpec spec = mixed_spec();
  CampaignOptions par;
  par.threads = 4;
  const std::string a = run_campaign(spec, par).to_json(/*include_timing=*/false);
  const std::string b = run_campaign(spec, par).to_json(/*include_timing=*/false);
  EXPECT_EQ(a, b);
  CampaignOptions seq;
  seq.threads = 1;
  EXPECT_EQ(a, run_campaign(spec, seq).to_json(/*include_timing=*/false));
  EXPECT_NE(a.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(a.find("\"verdict\": \"FALSIFIED\""), std::string::npos);
  EXPECT_NE(a.find("\"verdict\": \"PROVED\""), std::string::npos);
}

TEST(EngineCampaign, TableReportCountsVerdicts) {
  CampaignSpec spec;
  JobBudget budget;
  budget.max_bound = 4;
  budget.max_k = 2;
  spec.jobs.push_back(counter_job("cnt-2", 8, 2, budget));
  spec.jobs.push_back(frozen_job("frozen", 8, budget));
  CampaignOptions two;
  two.threads = 2;
  const CampaignReport report = run_campaign(spec, two);
  const std::string table = report.to_table();
  EXPECT_NE(table.find("cnt-2"), std::string::npos);
  EXPECT_NE(table.find("FALSIFIED"), std::string::npos);
  EXPECT_NE(table.find("PROVED"), std::string::npos);
  EXPECT_NE(table.find("1 falsified"), std::string::npos);
}

TEST(EngineMatrix, ExpandsMutationsTimesModes) {
  CampaignMatrix matrix;
  matrix.modes = {qed::QedMode::EddiV, qed::QedMode::EdsepV};
  auto bugs = proc::table1_single_instruction_bugs();
  bugs.resize(3);
  matrix.mutations = bugs;
  const auto pinned = make_pinned_table(4);
  matrix.equivalences = &pinned->table;
  const CampaignSpec spec = expand(matrix, 7);
  ASSERT_EQ(spec.jobs.size(), 6u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.jobs[0].name, bugs[0].name + "/EDDI-V");
  EXPECT_EQ(spec.jobs[1].name, bugs[0].name + "/EDSEP-V");
  EXPECT_EQ(spec.jobs[1].provenance.family, kQedFamily);
  EXPECT_EQ(spec.jobs[1].provenance.mode, "EDSEP-V");
  EXPECT_EQ(spec.jobs[1].provenance.source, bugs[0].name);
  for (const JobSpec& job : spec.jobs) EXPECT_TRUE(static_cast<bool>(job.build));
}

// --- deterministic counters (the counter guard: the job rows of a
// --- `sepe-run --json` report, summed by bench/compare_perf.py) ---

/// Every JobResult field but the wall time, for a fixed spec. Work
/// counters the table marks scheduling-dependent (which job of a
/// campaign blasts a shared cone first, and which replays it) are
/// compared only between runs with the same schedule; the replay is
/// exact, so every other counter matches at any thread count.
void expect_same_counters(const JobResult& a, const JobResult& b, bool same_schedule) {
  EXPECT_EQ(a.verdict, b.verdict) << a.name;
  EXPECT_EQ(a.trace_length, b.trace_length) << a.name;
  EXPECT_EQ(a.proved_k, b.proved_k) << a.name;
  EXPECT_EQ(a.bad_label, b.bad_label) << a.name;
  EXPECT_EQ(a.bmc_bounds_checked, b.bmc_bounds_checked) << a.name;
  EXPECT_EQ(a.hit_resource_limit, b.hit_resource_limit) << a.name;
  for (const smt::WorkCounter& c : smt::kWorkCounters) {
    if (!c.deterministic && !same_schedule) continue;
    EXPECT_EQ(a.work.*c.member, b.work.*c.member) << a.name << ": " << c.name;
  }
  EXPECT_EQ(a.work.hit_memory_limit, b.work.hit_memory_limit) << a.name;
  EXPECT_EQ(a.witness_checked, b.witness_checked) << a.name;
  EXPECT_EQ(a.trace_length_shrunk, b.trace_length_shrunk) << a.name;
}

TEST(EngineDeterminism, CountersMatchAcrossRunsAndThreadCounts) {
  const CampaignSpec spec = mixed_spec();
  CampaignOptions one;
  one.threads = 1;
  CampaignOptions four;
  four.threads = 4;
  const CampaignReport a = run_campaign(spec, one);
  const CampaignReport b = run_campaign(spec, one);
  const CampaignReport c = run_campaign(spec, four);
  ASSERT_EQ(a.jobs.size(), spec.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    // On one thread the jobs run in spec order, so even the cone-cache
    // traffic repeats.
    expect_same_counters(a.jobs[i], b.jobs[i], /*same_schedule=*/true);
    expect_same_counters(a.jobs[i], c.jobs[i], /*same_schedule=*/false);
    EXPECT_GT(a.jobs[i].work.cnf_vars, 0u);
  }
  // Tiny jobs can fold to zero problem clauses, but not a whole campaign.
  std::uint64_t total_clauses = 0;
  for (const JobResult& j : a.jobs) total_clauses += j.work.cnf_clauses;
  EXPECT_GT(total_clauses, 0u);
}

TEST(EngineReport, TimingRowsCarryEveryWorkCounter) {
  const CampaignReport report = run_campaign(mixed_spec());
  std::istringstream json(report.to_json(/*include_timing=*/true));
  // The timing form writes one job object per line.
  const std::regex number_field("\"(\\w+)\": (\\d+)[,}]");
  std::size_t row = 0;
  std::uint64_t nonzero = 0;
  for (std::string line; std::getline(json, line);) {
    if (line.find("{\"name\": ") == std::string::npos) continue;
    ASSERT_LT(row, report.jobs.size());
    const JobResult& j = report.jobs[row++];
    std::map<std::string, std::uint64_t> fields;
    const std::sregex_iterator end;
    for (std::sregex_iterator it(line.begin(), line.end(), number_field); it != end; ++it)
      fields[(*it)[1]] = std::stoull((*it)[2]);
    for (const smt::WorkCounter& c : smt::kWorkCounters) {
      const auto field = fields.find(c.name);
      ASSERT_NE(field, fields.end()) << j.name << " lacks " << c.name;
      EXPECT_EQ(field->second, j.work.*c.member) << j.name << ": " << c.name;
      nonzero += field->second != 0;
    }
  }
  EXPECT_EQ(row, report.jobs.size());
  EXPECT_GT(nonzero, 0u);  // real values, not a row of defaults
}

// --- Plaisted–Greenbaum vs full Tseitin across the pinned QED table ---

TEST(EngineQedEncoding, PlaistedGreenbaumMatchesTseitinVerdicts) {
  // Both encodings must agree on the QED verification models themselves:
  // one falsifiable EDSEP-V job (Sat path) and one clean EDDI-V sweep
  // (Unsat path) per sampled Table-1 bug, driven through Bmc directly so
  // the encoding is the only difference.
  const auto pinned = make_pinned_table(4);
  const auto bugs = proc::table1_single_instruction_bugs();
  CampaignMatrix matrix;
  matrix.xlen = 4;
  matrix.modes = {qed::QedMode::EddiV, qed::QedMode::EdsepV};
  matrix.equivalences = &pinned->table;
  for (std::size_t bi = 0; bi < 2; ++bi) {
    for (qed::QedMode mode : matrix.modes) {
      matrix.mutations = {bugs[bi]};
      const proc::ProcConfig config = derive_duv_config(matrix, &bugs[bi]);
      const JobSpec job =
          make_qed_job(bugs[bi].name, mode, config, bugs[bi], &pinned->table, {});
      // EDDI-V misses these bugs (clean sweep); keep its bound shallow so
      // the double encode stays unit-test sized. EDSEP-V falsifies at 6.
      const unsigned bound = mode == qed::QedMode::EddiV ? 3 : 6;
      std::optional<unsigned> lengths[2];
      for (int pg = 0; pg < 2; ++pg) {
        smt::TermManager mgr;
        ts::TransitionSystem ts(mgr);
        std::string build_error;
        ASSERT_TRUE(job.build(ts, &build_error)) << build_error;
        bmc::Bmc checker(ts, sat::SolverConfig{}, /*plaisted_greenbaum=*/pg == 1);
        bmc::BmcOptions bo;
        bo.max_bound = bound;
        const auto w = checker.check(bo);
        lengths[pg] = w ? std::optional<unsigned>(w->length) : std::nullopt;
      }
      EXPECT_EQ(lengths[0], lengths[1])
          << bugs[bi].name << " " << mode_tag(mode) << ": encodings disagree";
      if (mode == qed::QedMode::EdsepV) {
        ASSERT_TRUE(lengths[0].has_value()) << bugs[bi].name;
        EXPECT_EQ(*lengths[0], 6u);
      } else {
        EXPECT_FALSE(lengths[0].has_value()) << bugs[bi].name;
      }
    }
  }
}

// End-to-end integration: a real Table-1 QED job through the engine. The
// xor_as_or bug is invisible to EDDI-V (uniform corruption) and must be
// falsified under EDSEP-V with the pinned equivalence table.
TEST(EngineQedIntegration, EdsepFalsifiesSingleInstructionBug) {
  const auto pinned = make_pinned_table(4);
  proc::Mutation bug;
  bool found = false;
  for (const proc::Mutation& m : proc::table1_single_instruction_bugs())
    if (m.name == "xor_as_or") {
      bug = m;
      found = true;
    }
  ASSERT_TRUE(found);

  CampaignMatrix matrix;
  matrix.xlen = 4;
  matrix.modes = {qed::QedMode::EdsepV};
  matrix.mutations = {bug};
  matrix.equivalences = &pinned->table;
  matrix.budget.max_bound = 6;
  matrix.budget.max_k = 2;
  CampaignOptions two;
  two.threads = 2;
  const CampaignReport report = run_campaign(expand(matrix, 1), two);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].verdict, Verdict::Falsified);
  EXPECT_EQ(report.jobs[0].trace_length, 6u);
}

}  // namespace
}  // namespace sepe::engine
