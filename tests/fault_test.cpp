// Tests for the unified fault-injection framework (util/fault.hpp) and
// the crash-only execution envelope built on it: plan-grammar parsing,
// per-point trigger determinism (Nth / probability), the
// per-job memory ceiling degrading both workload families to a diagnosed
// UNKNOWN row, an injected mid-campaign stop leaving a verdict journal
// whose resumed run is byte-identical to an uninterrupted one, concurrent
// verdict-cache writers with torn appends never yielding a wrong verdict,
// and the retrying atomic report writer masking transient write faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/report_io.hpp"
#include "engine/shard.hpp"
#include "engine/verdict_cache.hpp"
#include "engine/workload.hpp"
#include "proc/mutations.hpp"
#include "sat/solver.hpp"
#include "ts/btor2_parser.hpp"
#include "util/fault.hpp"

namespace sepe::engine {
namespace {

using smt::TermRef;

/// Every test runs against process-global fault state; tear it all down
/// so no plan (or a raised stop flag) leaks into the next test.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::configure("");
    fault::clear_global_stop();
  }
};

using FaultGrammar = FaultTest;
using FaultTrigger = FaultTest;
using FaultEnvelope = FaultTest;
using FaultSolver = FaultTest;
using FaultCampaign = FaultTest;
using FaultJournal = FaultTest;
using FaultCache = FaultTest;
using FaultReportIo = FaultTest;

/// Same shape as engine_test's helper: input-gated counter, falsified at
/// depth `target` when reachable within the bound.
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

std::filesystem::path fresh_dir(const char* name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- plan grammar ---

TEST_F(FaultGrammar, FullPlanParsesAndArms) {
  std::string error;
  EXPECT_TRUE(fault::configure(
      "seed=42;point=report.write:fail@3;point=cache.append:torn;"
      "point=solver.alloc:oom@0.01",
      &error))
      << error;
  EXPECT_TRUE(fault::armed());
  EXPECT_TRUE(error.empty());
}

TEST_F(FaultGrammar, EmptyPlanDisarms) {
  ASSERT_TRUE(fault::configure("point=p:fail"));
  ASSERT_TRUE(fault::armed());
  EXPECT_TRUE(fault::configure(""));
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::hit("p").has_value());
}

TEST_F(FaultGrammar, MalformedPlansAreRejectedAndDisarm) {
  const char* bad[] = {
      "seed=x",                // non-numeric seed
      "point=p",               // missing action
      "point=p:frobnicate",    // unknown action
      "point=p:fail@0",        // Nth trigger is 1-based
      "point=:fail",           // empty point name
      "frobnicate=1",          // unknown key
      "point=p:fail@",         // empty trigger
  };
  for (const char* plan : bad) {
    ASSERT_TRUE(fault::configure("point=armed.check:fail"));
    std::string error;
    EXPECT_FALSE(fault::configure(plan, &error)) << plan;
    EXPECT_FALSE(error.empty()) << plan;
    EXPECT_FALSE(fault::armed()) << plan;  // a bad plan never half-arms
  }
}

// --- trigger semantics ---

TEST_F(FaultTrigger, NthFiresExactlyOnce) {
  ASSERT_TRUE(fault::configure("point=p.nth:fail@2"));
  EXPECT_FALSE(fault::hit("p.nth").has_value());
  const auto second = fault::hit("p.nth");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, fault::Action::Fail);
  EXPECT_FALSE(fault::hit("p.nth").has_value());  // one-shot
  EXPECT_FALSE(fault::hit("p.nth").has_value());
}

TEST_F(FaultTrigger, AlwaysFiresEveryHitAndPointsAreIndependent) {
  ASSERT_TRUE(fault::configure("point=p.always:torn"));
  for (int i = 0; i < 3; ++i) {
    const auto a = fault::hit("p.always");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, fault::Action::Torn);
    EXPECT_FALSE(fault::hit("p.other").has_value());
  }
}

TEST_F(FaultTrigger, FirstMatchingEntryWins) {
  // Two entries on the same point: the one-shot fires on hit 1, then the
  // always-entry takes over.
  ASSERT_TRUE(fault::configure("point=p.dual:fail@1;point=p.dual:torn"));
  const auto first = fault::hit("p.dual");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, fault::Action::Fail);
  const auto second = fault::hit("p.dual");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, fault::Action::Torn);
}

TEST_F(FaultTrigger, ProbabilityStreamIsDeterministicPerSeed) {
  const auto draw = [](const char* plan) {
    EXPECT_TRUE(fault::configure(plan));
    std::string bits;
    for (int i = 0; i < 64; ++i)
      bits.push_back(fault::hit("p.prob").has_value() ? '1' : '0');
    return bits;
  };
  const std::string run1 = draw("seed=5;point=p.prob:fail@0.5");
  const std::string run2 = draw("seed=5;point=p.prob:fail@0.5");
  EXPECT_EQ(run1, run2);  // same seed, same plan -> same firing sites
  EXPECT_NE(run1.find('1'), std::string::npos);
  EXPECT_NE(run1.find('0'), std::string::npos);
  const std::string other = draw("seed=6;point=p.prob:fail@0.5");
  EXPECT_NE(run1, other);  // the seed actually reaches the stream
}

// --- crash-only envelope ---

TEST_F(FaultEnvelope, StopActionRaisesTheGlobalFlag) {
  EXPECT_FALSE(fault::global_stop_requested());
  fault::execute_process_action(fault::Action::Stop);
  EXPECT_TRUE(fault::global_stop_requested());
  fault::clear_global_stop();
  EXPECT_FALSE(fault::global_stop_requested());
}

TEST_F(FaultEnvelope, DataActionsAreNoOpsInExecute) {
  fault::execute_process_action(fault::Action::Fail);
  fault::execute_process_action(fault::Action::Torn);
  fault::execute_process_action(fault::Action::Enospc);
  EXPECT_FALSE(fault::global_stop_requested());
}

// --- per-job memory ceiling (solver layer) ---

TEST_F(FaultSolver, RealArenaCeilingDegradesToUnknown) {
  sat::SolverConfig cfg;
  cfg.memory_limit_mb = 1;
  sat::Solver solver(cfg);
  const int a = solver.new_var();
  const int b = solver.new_var();
  const int c = solver.new_var();
  // ~80k three-literal clauses outgrow a 1 MiB arena deterministically.
  for (int i = 0; i < 80000; ++i)
    solver.add_clause({sat::Lit(a, i % 2 == 0), sat::Lit(b, i % 3 == 0),
                       sat::Lit(c, i % 5 == 0)});
  EXPECT_EQ(solver.solve(), sat::SolveResult::Unknown);
  EXPECT_TRUE(solver.stats().out_of_memory);
}

TEST_F(FaultSolver, InjectedOomDegradesToUnknown) {
  ASSERT_TRUE(fault::configure("point=solver.alloc:oom"));
  sat::Solver solver;  // no real ceiling — the fault alone trips it
  const int x = solver.new_var();
  solver.add_clause({sat::Lit(x, true)});
  EXPECT_EQ(solver.solve(), sat::SolveResult::Unknown);
  EXPECT_TRUE(solver.stats().out_of_memory);
}

// --- OOM degrade at the campaign layer, both workload families ---

TEST_F(FaultCampaign, OomDegradesSyntheticJobToDiagnosedUnknown) {
  ASSERT_TRUE(fault::configure("point=solver.alloc:oom"));
  JobBudget budget;
  budget.max_bound = 4;
  budget.max_k = 2;
  const JobResult r = run_job(counter_job("oom-cnt", 8, 3, budget));
  EXPECT_EQ(r.verdict, Verdict::Unknown);
  EXPECT_TRUE(r.hit_resource_limit);
  EXPECT_TRUE(r.work.hit_memory_limit);
  EXPECT_EQ(r.note, "resource: memory");
}

TEST_F(FaultCampaign, OomDegradesQedJobToDiagnosedUnknown) {
  auto bugs = proc::table1_single_instruction_bugs();
  ASSERT_FALSE(bugs.empty());
  CampaignMatrix matrix;
  matrix.xlen = 4;
  matrix.modes = {qed::QedMode::EddiV};
  matrix.mutations = {bugs[0]};
  const proc::ProcConfig config = derive_duv_config(matrix, &bugs[0]);
  JobBudget budget;
  budget.max_bound = 3;
  budget.max_k = 2;
  const JobSpec job = make_qed_job("oom-qed", qed::QedMode::EddiV, config, bugs[0],
                                   /*equivalences=*/nullptr, budget);
  ASSERT_TRUE(fault::configure("point=solver.alloc:oom"));
  const JobResult r = run_job(job);
  EXPECT_EQ(r.verdict, Verdict::Unknown);
  EXPECT_TRUE(r.work.hit_memory_limit);
  EXPECT_EQ(r.note, "resource: memory");
}

TEST_F(FaultCampaign, OomDegradesBtor2JobToDiagnosedUnknown) {
  // The corpus family's job shape: a model parsed from BTOR2 text.
  const char* kCounter =
      "1 sort bitvec 4\n"
      "2 sort bitvec 1\n"
      "10 state 1 cnt\n"
      "11 constd 1 0\n"
      "12 init 1 10 11\n"
      "13 constd 1 1\n"
      "14 add 1 10 13\n"
      "15 next 1 10 14\n"
      "16 constd 1 5\n"
      "17 eq 2 10 16\n"
      "18 bad 17 ; cnt-five\n";
  JobSpec job;
  job.name = "oom-btor2";
  job.provenance.family = kBtor2Family;
  job.provenance.source = "oom.btor2";
  job.provenance.mode.clear();
  job.budget.max_bound = 6;
  job.budget.max_k = 2;
  job.build = [text = std::string(kCounter)](ts::TransitionSystem& ts,
                                             std::string* error) {
    const ts::Btor2ParseResult r = ts::parse_btor2(text, ts);
    if (!r.ok) *error = r.error;
    return r.ok;
  };
  ASSERT_TRUE(fault::configure("point=solver.alloc:oom"));
  const JobResult r = run_job(job);
  EXPECT_EQ(r.verdict, Verdict::Unknown);
  EXPECT_TRUE(r.work.hit_memory_limit);
  EXPECT_EQ(r.note, "resource: memory");
}

TEST_F(FaultCampaign, MemoryCeilingIsPartOfTheCacheKey) {
  JobBudget a;
  JobSpec job = counter_job("keyed", 8, 3, a);
  const std::string base = VerdictCache::key_of(job, "fp");
  job.budget.memory_limit_mb = 64;
  EXPECT_NE(VerdictCache::key_of(job, "fp"), base)
      << "a memory-starved run answers a different question";
}

// --- injected stop mid-campaign: resumable journal ---

TEST_F(FaultJournal, InjectedStopLeavesAResumableJournal) {
  const auto dir = fresh_dir("fault_journal_test");
  JobBudget budget;
  budget.max_bound = 6;
  budget.max_k = 2;
  CampaignSpec spec;
  spec.jobs.push_back(counter_job("a-cnt", 8, 3, budget));
  spec.jobs.push_back(counter_job("b-cnt", 8, 4, budget));
  spec.seed = 11;

  // Reference: the uninterrupted run's stable JSON.
  ShardRunOptions plain;
  plain.pool.threads = 1;
  std::string error;
  const CampaignReport reference = run_sharded(spec, plain, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(reference.jobs.size(), 2u);

  // Interrupted run: the first finished job raises the global stop flag
  // from the worker's job-done hook — after the job was journaled,
  // exactly like a SIGTERM landing between jobs.
  ShardRunOptions journaled;
  journaled.pool.threads = 1;
  journaled.cache_dir = (dir / "journal").string();
  ASSERT_TRUE(fault::configure("point=worker.job_done:stop@1"));
  const CampaignReport interrupted = run_sharded(spec, journaled, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_TRUE(fault::global_stop_requested());
  unsigned finished = 0;
  for (const JobResult& r : interrupted.jobs)
    if (!r.name.empty()) ++finished;
  EXPECT_EQ(finished, 1u);  // the second job was never claimed
  const auto text = read_text_file(VerdictCache::journal_path(journaled.cache_dir));
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(std::count(text->begin(), text->end(), '\n'), 1);

  // Resume with the envelope cleared: the finished job is served from the
  // journal, only the other one runs, and the final stable JSON is
  // byte-identical to the uninterrupted run.
  ASSERT_TRUE(fault::configure(""));
  fault::clear_global_stop();
  const CampaignReport resumed = run_sharded(spec, journaled, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(resumed.jobs.size(), 2u);
  EXPECT_TRUE(resumed.jobs[0].from_cache);
  EXPECT_FALSE(resumed.jobs[1].from_cache);
  EXPECT_EQ(resumed.to_json(/*include_timing=*/false),
            reference.to_json(/*include_timing=*/false));
}

TEST_F(FaultJournal, AJobTheStopWindsDownIsNeitherReportedNorJournaled) {
  const auto dir = fresh_dir("fault_journal_inflight_test");
  JobBudget budget;
  budget.max_bound = 6;
  budget.max_k = 2;
  // The stop lands while the job is in flight: its own model builder
  // raises it, so the prover loop winds down to UNKNOWN.
  JobSpec job = counter_job("in-flight", 8, 3, budget);
  job.build = [build = job.build](ts::TransitionSystem& ts, std::string* error) {
    fault::request_global_stop();
    return build(ts, error);
  };
  CampaignSpec spec;
  spec.jobs.push_back(job);

  ShardRunOptions options;
  options.cache_dir = (dir / "journal").string();
  unsigned hook_fired = 0;
  options.pool.on_job_done = [&](std::size_t, const JobResult&) { ++hook_fired; };
  std::string error;
  const CampaignReport interrupted = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(interrupted.jobs.size(), 1u);
  EXPECT_TRUE(interrupted.jobs[0].name.empty());  // left unclaimed
  EXPECT_EQ(hook_fired, 0u);
  const auto text = read_text_file(VerdictCache::journal_path(options.cache_dir));
  EXPECT_TRUE(!text || text->empty());

  // The resume solves it to the verdict an uninterrupted run reports.
  fault::clear_global_stop();
  spec.jobs[0] = counter_job("in-flight", 8, 3, budget);
  const CampaignReport resumed = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(resumed.jobs.size(), 1u);
  EXPECT_EQ(resumed.jobs[0].verdict, Verdict::Falsified);
  EXPECT_EQ(resumed.jobs[0].trace_length, 3u);
  EXPECT_EQ(hook_fired, 1u);
}

// --- verdict cache under torn concurrent appends ---

TEST_F(FaultCache, TornConcurrentAppendsNeverYieldAWrongVerdict) {
  const auto dir = fresh_dir("fault_cache_torn_test");
  // Entry i is a pure function of its key, so any hit can be checked
  // for truthfulness after the torn-write barrage.
  const auto entry_for = [](unsigned i) {
    VerdictCache::Entry e;
    e.verdict = i % 2 == 0 ? Verdict::Falsified : Verdict::Proved;
    e.trace_length = i % 2 == 0 ? i + 1 : 0;
    e.proved_k = i % 2 == 0 ? 0 : i + 1;
    e.bad_label = "bad-" + std::to_string(i);
    return e;
  };
  // Journal keys are 16-hex-digit digests; forge fixed-width stand-ins.
  const auto key_for = [](unsigned i) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016x", i);
    return std::string(buf);
  };
  ASSERT_TRUE(fault::configure("seed=9;point=cache.append:torn@0.5"));
  constexpr unsigned kWriters = 4;
  constexpr unsigned kPerWriter = 16;
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::string error;
      const auto cache = VerdictCache::open(dir.string(), &error);
      ASSERT_NE(cache, nullptr) << error;
      for (unsigned j = 0; j < kPerWriter; ++j) {
        const unsigned i = w * kPerWriter + j;
        cache->append(key_for(i), entry_for(i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_TRUE(fault::configure(""));

  std::string error;
  const auto reload = VerdictCache::open(dir.string(), &error);
  ASSERT_NE(reload, nullptr) << error;
  unsigned hits = 0;
  for (unsigned i = 0; i < kWriters * kPerWriter; ++i) {
    const auto got = reload->lookup(key_for(i));
    if (!got) continue;  // a torn line only ever costs a miss
    ++hits;
    const VerdictCache::Entry want = entry_for(i);
    EXPECT_EQ(got->verdict, want.verdict) << i;
    EXPECT_EQ(got->trace_length, want.trace_length) << i;
    EXPECT_EQ(got->proved_k, want.proved_k) << i;
    EXPECT_EQ(got->bad_label, want.bad_label) << i;
  }
  // With p=0.5 torn appends a fair share still lands intact; zero hits
  // would mean the cache lost everything rather than degrading.
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, kWriters * kPerWriter);
}

// --- retrying atomic writer ---

TEST_F(FaultReportIo, TransientWriteFaultIsMaskedByRetry) {
  const auto dir = fresh_dir("fault_write_retry_test");
  const std::string path = (dir / "report.json").string();
  ASSERT_TRUE(fault::configure("point=report.write:fail@1"));
  EXPECT_TRUE(write_text_file_atomic(path, "{\"ok\": true}\n", "report.write"));
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "{\"ok\": true}\n");
  // No temp-file litter on the retry path.
  unsigned files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(FaultReportIo, PersistentTornWriteFailsCleanly) {
  const auto dir = fresh_dir("fault_write_torn_test");
  const std::string path = (dir / "report.json").string();
  ASSERT_TRUE(fault::configure("point=report.write:torn"));
  EXPECT_FALSE(write_text_file_atomic(path, "{\"ok\": true}\n", "report.write"));
  // The target never appears and the half-written temp file is removed:
  // a crashed write is invisible, never a corrupt report.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

TEST_F(FaultReportIo, UninstrumentedCallSitesIgnoreThePlan) {
  const auto dir = fresh_dir("fault_write_plain_test");
  const std::string path = (dir / "plain.txt").string();
  ASSERT_TRUE(fault::configure("point=report.write:fail"));
  // A caller that names no fault point cannot be failed by the plan.
  EXPECT_TRUE(write_text_file_atomic(path, "x\n"));
  EXPECT_TRUE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace sepe::engine
