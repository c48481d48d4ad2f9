// Tests for the campaign sharding + report-merge subsystem: the planner
// partitions the expanded job list deterministically (no overlap, no
// gaps, reproducible across runs), merge is order-insensitive and
// rejects overlapping/incomplete shard sets, merged stable JSON is
// byte-identical to an unsharded run, reports parse back to their
// stable form, and an interrupted shard resumes from its verdict journal
// without re-solving finished jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/report_io.hpp"
#include "engine/shard.hpp"
#include "engine/verdict_cache.hpp"
#include "temp_dir.hpp"
#include "util/fault.hpp"

namespace sepe::engine {
namespace {

using sepe::testing::TempDir;
using smt::TermRef;

/// Counter that increments by an input-controlled step: falsified at
/// depth `target` when target <= max_bound, bound-clean otherwise.
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

/// Frozen register: proved by k-induction at k = 1.
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

/// A 14-job spec covering every verdict class, with names whose
/// lexicographic order differs from spec order (exercising the
/// rank-based assignment).
CampaignSpec mixed_spec(unsigned max_bound = 8) {
  JobBudget budget;
  budget.max_bound = max_bound;
  budget.max_k = 3;
  CampaignSpec spec;
  spec.seed = 42;
  for (unsigned t = 1; t <= 6; ++t)
    spec.jobs.push_back(counter_job("cnt-" + std::to_string(t), 6 + t % 3, t, budget));
  for (unsigned w = 4; w <= 7; ++w)
    spec.jobs.push_back(frozen_job("frozen-" + std::to_string(w), w, budget));
  spec.jobs.push_back(counter_job("clean-20", 8, 20, budget));
  spec.jobs.push_back(counter_job("clean-30", 8, 30, budget));
  spec.jobs.push_back(counter_job("a-first", 8, 2, budget));
  spec.jobs.push_back(counter_job("z-last", 8, 30, budget));
  return spec;
}

std::vector<CampaignReport> run_all_shards(const CampaignSpec& spec, unsigned count,
                                           unsigned threads = 1) {
  std::vector<CampaignReport> reports;
  for (unsigned i = 0; i < count; ++i) {
    ShardRunOptions options;
    options.pool.threads = threads;
    options.shard = ShardSpec{i, count};
    std::string error;
    reports.push_back(run_sharded(spec, options, &error));
    EXPECT_TRUE(error.empty()) << error;
  }
  return reports;
}

TEST(ShardParse, AcceptsWellFormedRejectsMalformed) {
  ShardSpec shard;
  std::string error;
  EXPECT_TRUE(parse_shard("1/4", &shard, &error));
  EXPECT_EQ(shard.index, 1u);
  EXPECT_EQ(shard.count, 4u);
  EXPECT_TRUE(parse_shard("0/1", &shard, &error));
  for (const char* bad : {"4/4", "5/4", "0/0", "a/b", "3", "/4", "1/", "-1/4",
                          "1/4/2", "1 /4", ""}) {
    EXPECT_FALSE(parse_shard(bad, &shard, &error)) << bad;
    EXPECT_FALSE(error.empty());
    error.clear();
  }
}

TEST(ShardAssignment, DeterministicBalancedAndIdBased) {
  const std::vector<std::string> ids = {"delta", "alpha", "echo", "bravo", "charlie"};
  const std::vector<unsigned> a = shard_assignment(ids, 2);
  EXPECT_EQ(a, shard_assignment(ids, 2));  // reproducible
  // Ranks: alpha0 bravo1 charlie2 delta3 echo4 -> shard = rank % 2.
  const std::vector<unsigned> expected = {1, 0, 0, 1, 0};
  EXPECT_EQ(a, expected);
  // Assignment follows the id, not the position.
  std::vector<std::string> reversed(ids.rbegin(), ids.rend());
  const std::vector<unsigned> r = shard_assignment(reversed, 2);
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(a[i], r[ids.size() - 1 - i]) << ids[i];
}

TEST(ShardPlanner, ShardsPartitionTheSpecExactly) {
  const CampaignSpec spec = mixed_spec();
  for (unsigned count : {1u, 3u, 4u, 5u}) {
    std::vector<bool> covered(spec.jobs.size(), false);
    std::size_t total = 0;
    for (unsigned index = 0; index < count; ++index) {
      const ShardPlan plan = plan_shard(spec, ShardSpec{index, count});
      ASSERT_TRUE(plan.ok()) << plan.error;
      EXPECT_EQ(plan.total_jobs, spec.jobs.size());
      EXPECT_EQ(plan.spec.seed, spec.seed);
      // Balanced to within one job.
      EXPECT_LE(plan.spec.jobs.size(), (spec.jobs.size() + count - 1) / count);
      ASSERT_EQ(plan.spec.jobs.size(), plan.spec_indices.size());
      for (std::size_t k = 0; k < plan.spec_indices.size(); ++k) {
        const std::size_t original = plan.spec_indices[k];
        ASSERT_LT(original, spec.jobs.size());
        EXPECT_FALSE(covered[original]) << "overlap at " << original;
        covered[original] = true;
        ++total;
        EXPECT_EQ(plan.spec.jobs[k].name, spec.jobs[original].name);
        // Spec order is preserved inside a shard.
        if (k > 0) {
          EXPECT_LT(plan.spec_indices[k - 1], original);
        }
      }
    }
    EXPECT_EQ(total, spec.jobs.size()) << count << " shards leave gaps";
  }
}

TEST(ShardPlanner, RepeatedPlansAreIdentical) {
  const CampaignSpec spec = mixed_spec();
  const ShardSpec shard{1, 4};
  const ShardPlan a = plan_shard(spec, shard);
  const ShardPlan b = plan_shard(spec, shard);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.spec_indices, b.spec_indices);
  for (std::size_t i = 0; i < a.spec.jobs.size(); ++i)
    EXPECT_EQ(a.spec.jobs[i].name, b.spec.jobs[i].name);
}

TEST(ShardPlanner, RejectsDuplicateNamesAndBadShard) {
  CampaignSpec spec = mixed_spec();
  EXPECT_FALSE(plan_shard(spec, ShardSpec{4, 4}).ok());
  EXPECT_FALSE(plan_shard(spec, ShardSpec{0, 0}).ok());
  JobBudget budget;
  spec.jobs.push_back(counter_job("cnt-1", 8, 1, budget));  // duplicate id
  const ShardPlan plan = plan_shard(spec, ShardSpec{0, 2});
  EXPECT_FALSE(plan.ok());
  EXPECT_NE(plan.error.find("cnt-1"), std::string::npos);
}

TEST(ShardMerge, MergedStableJsonEqualsUnshardedByteForByte) {
  const CampaignSpec spec = mixed_spec();
  CampaignOptions seq;
  seq.threads = 1;
  const std::string reference = run_campaign(spec, seq).to_json(/*include_timing=*/false);

  std::vector<CampaignReport> shards = run_all_shards(spec, 4, /*threads=*/2);
  // Order-insensitive: merge a shuffled permutation.
  std::swap(shards[0], shards[2]);
  std::swap(shards[1], shards[3]);
  std::string error;
  const auto merged = CampaignReport::merge(shards, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->to_json(/*include_timing=*/false), reference);
  EXPECT_FALSE(merged->shard.has_value());
  EXPECT_EQ(merged->jobs.size(), spec.jobs.size());

  // And again through the JSON wire format, as `sepe-run merge` does.
  std::vector<CampaignReport> rehydrated;
  for (const CampaignReport& r : shards) {
    CampaignReport parsed;
    ASSERT_TRUE(parse_report(r.to_json(/*include_timing=*/false), &parsed, &error))
        << error;
    rehydrated.push_back(std::move(parsed));
  }
  const auto merged2 = CampaignReport::merge(rehydrated, &error);
  ASSERT_TRUE(merged2.has_value()) << error;
  EXPECT_EQ(merged2->to_json(/*include_timing=*/false), reference);
}

TEST(ShardMerge, HandlesMoreShardsThanJobs) {
  CampaignSpec spec;
  spec.seed = 9;
  JobBudget budget;
  budget.max_bound = 4;
  budget.max_k = 2;
  for (unsigned t = 1; t <= 3; ++t)
    spec.jobs.push_back(counter_job("cnt-" + std::to_string(t), 8, t, budget));
  CampaignOptions seq;
  seq.threads = 1;
  const std::string reference =
      run_campaign(spec, seq).to_json(/*include_timing=*/false);
  const std::vector<CampaignReport> shards = run_all_shards(spec, 5);
  unsigned empty = 0;
  for (const CampaignReport& r : shards) empty += r.jobs.empty();
  EXPECT_EQ(empty, 2u);  // 3 jobs over 5 shards
  std::string error;
  const auto merged = CampaignReport::merge(shards, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->to_json(/*include_timing=*/false), reference);
}

TEST(ShardMerge, RejectsOverlapIncompleteAndMismatch) {
  const CampaignSpec spec = mixed_spec();
  std::vector<CampaignReport> shards = run_all_shards(spec, 3);
  std::string error;

  // Missing shard.
  std::vector<CampaignReport> two(shards.begin(), shards.begin() + 2);
  EXPECT_FALSE(CampaignReport::merge(two, &error).has_value());
  EXPECT_NE(error.find("incomplete"), std::string::npos);

  // The same shard supplied twice.
  std::vector<CampaignReport> doubled = {shards[0], shards[1], shards[1]};
  EXPECT_FALSE(CampaignReport::merge(doubled, &error).has_value());
  EXPECT_NE(error.find("twice"), std::string::npos);

  // A non-shard (plain) report.
  CampaignOptions seq;
  seq.threads = 1;
  std::vector<CampaignReport> plain = {run_campaign(spec, seq)};
  EXPECT_FALSE(CampaignReport::merge(plain, &error).has_value());
  EXPECT_NE(error.find("shard metadata"), std::string::npos);

  // A leg of another campaign: same job names, count and seed, another
  // falsification horizon.
  std::vector<CampaignReport> mixed = shards;
  mixed[2] = run_all_shards(mixed_spec(/*max_bound=*/5), 3)[2];
  EXPECT_FALSE(CampaignReport::merge(mixed, &error).has_value());
  EXPECT_NE(error.find("different campaigns"), std::string::npos) << error;
  EXPECT_NE(error.find(shards[0].shard->campaign), std::string::npos) << error;
  EXPECT_NE(error.find(mixed[2].shard->campaign), std::string::npos) << error;

  // Seed mismatch.
  std::vector<CampaignReport> reseeded = shards;
  reseeded[2].seed = 7;
  EXPECT_FALSE(CampaignReport::merge(reseeded, &error).has_value());
  EXPECT_NE(error.find("seed"), std::string::npos);

  // Overlapping job ids despite distinct shard indices.
  std::vector<CampaignReport> overlapping = shards;
  ASSERT_FALSE(shards[0].jobs.empty());
  overlapping[1].jobs.push_back(shards[0].jobs[0]);
  EXPECT_FALSE(CampaignReport::merge(overlapping, &error).has_value());
  EXPECT_NE(error.find("more than one report"), std::string::npos);

  // Empty input.
  EXPECT_FALSE(CampaignReport::merge({}, &error).has_value());
}

TEST(ShardMerge, OverlapDiagnosticNamesEveryOffendingJobId) {
  // Debugging aid: when shard sets overlap, the diagnostic must name all
  // the colliding job ids, not just the first.
  const CampaignSpec spec = mixed_spec();
  std::vector<CampaignReport> shards = run_all_shards(spec, 3);
  ASSERT_GE(shards[0].jobs.size(), 2u);
  std::vector<CampaignReport> overlapping = shards;
  overlapping[1].jobs.push_back(shards[0].jobs[0]);
  overlapping[2].jobs.push_back(shards[0].jobs[1]);
  std::string error;
  EXPECT_FALSE(CampaignReport::merge(overlapping, &error).has_value());
  EXPECT_NE(error.find("2 job id(s)"), std::string::npos) << error;
  EXPECT_NE(error.find("'" + shards[0].jobs[0].name + "'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("'" + shards[0].jobs[1].name + "'"), std::string::npos)
      << error;
}

TEST(ShardMerge, MergeIsIdempotentOnDisjointShards) {
  const CampaignSpec spec = mixed_spec();
  const std::vector<CampaignReport> shards = run_all_shards(spec, 3);
  std::string error;
  const auto once = CampaignReport::merge(shards, &error);
  const auto twice = CampaignReport::merge(shards, &error);
  ASSERT_TRUE(once.has_value());
  ASSERT_TRUE(twice.has_value());
  EXPECT_EQ(once->to_json(false), twice->to_json(false));
}

// The report dialects and the verdict-journal resume semantics these
// tests pin are specified field by field in docs/FORMATS.md — keep the
// two in sync.
TEST(ReportIo, TimingReportParsesToTheRunsStableForm) {
  const CampaignSpec spec = mixed_spec();
  ShardRunOptions options;
  options.shard = ShardSpec{0, 2};
  std::string error;
  const CampaignReport report = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  CampaignReport parsed;
  ASSERT_TRUE(parse_report(report.to_json(/*include_timing=*/true), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.to_json(/*include_timing=*/false),
            report.to_json(/*include_timing=*/false));
  ASSERT_TRUE(parsed.shard.has_value());
  EXPECT_EQ(parsed.shard->total_jobs, spec.jobs.size());
}

// Retired timing keys: reports written while learnt-clause sharing
// existed carry three counters this binary no longer knows, those
// written while the provers raced carry loser_cancelled, and those
// written before it was dropped a winner column. Shard reports
// with such keys (plus the campaign digest every shard object now
// needs) must still parse and merge, with the retired keys ignored.
TEST(ReportIo, RetiredSharingCountersAreIgnored) {
  const auto shard_json = [](unsigned index, const std::string& name) {
    return "{\"seed\": 7, \"shard\": {\"index\": " + std::to_string(index) +
           ", \"count\": 2, \"total_jobs\": 2, \"campaign\": "
           "\"0123456789abcdef\"}, \"threads\": 1, "
           "\"wall_seconds\": 0.5, \"jobs\": [{\"name\": \"" + name +
           "\", \"spec_index\": " + std::to_string(index) +
           ", \"mode\": \"EDDI-V\", \"verdict\": \"PROVED\", \"proved_k\": 1, "
           "\"winner\": \"k-induction\", \"conflicts\": 12, "
           "\"clauses_exported\": 31, \"clauses_imported\": 17, "
           "\"vault_hits\": 5, \"loser_cancelled\": true}]}";
  };
  std::vector<CampaignReport> shards(2);
  std::string error;
  ASSERT_TRUE(parse_report(shard_json(0, "a"), &shards[0], &error)) << error;
  ASSERT_TRUE(parse_report(shard_json(1, "b"), &shards[1], &error)) << error;
  const auto merged = CampaignReport::merge(shards, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  ASSERT_EQ(merged->jobs.size(), 2u);
  EXPECT_EQ(merged->jobs[1].name, "b");
  EXPECT_EQ(merged->jobs[1].proved_k, 1u);
  const std::string emitted = merged->to_json(/*include_timing=*/true);
  for (const char* retired : {"clauses_exported", "clauses_imported", "vault_hits"})
    EXPECT_EQ(emitted.find(retired), std::string::npos) << emitted;
  EXPECT_EQ(emitted.find("loser_cancelled"), std::string::npos) << emitted;
}

// Forward compatibility: a report written by a *newer* binary may carry
// timing keys this one has never heard of. They must be tolerated (the
// known fields still land), never treated as a parse error — merging
// shard legs run by different binaries depends on it.
TEST(ReportIo, UnknownTimingKeysAreTolerated) {
  const std::string json =
      "{\"seed\": 7, \"jobs\": [{\"name\": \"s\", \"mode\": \"EDDI-V\", "
      "\"verdict\": \"PROVED\", \"proved_k\": 3, "
      "\"counter_from_the_future\": 999, \"cone_hits\": 2}]}";
  CampaignReport report;
  std::string error;
  ASSERT_TRUE(parse_report(json, &report, &error)) << error;
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].proved_k, 3u);
}

TEST(ReportIo, RejectsMalformedInput) {
  CampaignReport report;
  std::string error;
  EXPECT_FALSE(parse_report("", &report, &error));
  EXPECT_FALSE(parse_report("{", &report, &error));
  EXPECT_FALSE(parse_report("[]", &report, &error));
  EXPECT_FALSE(parse_report("{\"seed\": 1}", &report, &error));  // no jobs
  EXPECT_FALSE(parse_report(
      "{\"seed\": 1, \"jobs\": [{\"name\": \"x\", \"mode\": \"EDDI-V\", "
      "\"verdict\": \"NOT_A_VERDICT\"}]}",
      &report, &error));
  EXPECT_FALSE(parse_report(
      "{\"seed\": 1, \"jobs\": [{\"mode\": \"EDDI-V\", \"verdict\": "
      "\"PROVED\"}]}",
      &report, &error));  // nameless job
  EXPECT_FALSE(parse_report(
      "{\"seed\": 1, \"jobs\": [{\"name\": \"x\", \"mode\": \"EDDI-V\", "
      "\"verdict\": \"FALSIFIED\", \"trace_length\": \"oops\"}]}",
      &report, &error));  // non-numeric count is a hard error
  // A shard object must name its campaign: a 16-hex-digit digest.
  const auto shard_report = [](const std::string& shard) {
    return "{\"seed\": 1, \"shard\": {" + shard +
           "}, \"jobs\": [{\"name\": \"x\", \"spec_index\": 0, \"mode\": \"EDDI-V\", "
           "\"verdict\": \"PROVED\", \"proved_k\": 2}]}";
  };
  const std::string slice = "\"index\": 0, \"count\": 1, \"total_jobs\": 1";
  const std::string bad_digest = slice + ", \"campaign\": \"xyz\"";
  const std::string good_digest = slice + ", \"campaign\": \"00000000000000ff\"";
  EXPECT_FALSE(parse_report(shard_report(slice), &report, &error));
  EXPECT_NE(error.find("campaign"), std::string::npos) << error;
  EXPECT_FALSE(parse_report(shard_report(bad_digest), &report, &error));
  EXPECT_TRUE(parse_report(shard_report(good_digest), &report, &error)) << error;
  ASSERT_TRUE(report.shard.has_value());
  EXPECT_EQ(report.shard->campaign, "00000000000000ff");
  // A 32-bit field refuses a value above UINT32_MAX instead of truncating
  // it: a shard count of 2^32 + 1 must not read as a complete 1-shard set,
  // nor a trace length of 2^32 + 6 as 6.
  const auto out_of_range = [&](const std::string& field, const std::string& json) {
    return !parse_report(json, &report, &error) &&
           error.find("'" + field + "' is out of range") != std::string::npos;
  };
  const auto job_report = [](const std::string& fields) {
    return "{\"seed\": 1, \"jobs\": [{\"name\": \"x\", \"workload\": \"btor2\", "
           "\"verdict\": \"FALSIFIED\", " + fields + "}]}";
  };
  const std::string big = "4294967297";
  const std::string rest = ", \"total_jobs\": 1, \"campaign\": \"00000000000000ff\"";
  const std::string count_big = "\"index\": 0, \"count\": " + big + rest;
  const std::string index_big = "\"count\": 2, \"index\": " + big + rest;
  const std::string threads_big = "{\"seed\": 1, \"jobs\": [], \"threads\": " + big + "}";
  EXPECT_TRUE(out_of_range("count", shard_report(count_big)));
  EXPECT_TRUE(out_of_range("index", shard_report(index_big)));
  EXPECT_TRUE(out_of_range("threads", threads_big));
  EXPECT_TRUE(out_of_range("trace_length", job_report("\"trace_length\": 4294967302")));
  EXPECT_TRUE(out_of_range("proved_k", job_report("\"proved_k\": " + big)));
  EXPECT_TRUE(out_of_range("property", job_report("\"property\": " + big)));
  EXPECT_TRUE(parse_report(job_report("\"trace_length\": 4294967295"), &report, &error))
      << error;
  EXPECT_EQ(report.jobs[0].trace_length, 4294967295u);
  // A corrupt file cannot drive the parser into unbounded recursion.
  EXPECT_FALSE(parse_report(std::string(100000, '['), &report, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos);
  EXPECT_TRUE(parse_report(
      "{\"seed\": 1, \"jobs\": [{\"name\": \"x\", \"mode\": \"EDDI-V\", "
      "\"verdict\": \"PROVED\", \"proved_k\": 2}]}",
      &report, &error))
      << error;
  EXPECT_EQ(report.jobs[0].proved_k, 2u);
}

TEST(ShardRun, JobDoneHookReportsFullSpecPositions) {
  const CampaignSpec spec = mixed_spec();
  ShardRunOptions options;
  options.shard = ShardSpec{1, 3};
  std::vector<std::size_t> seen;
  std::mutex seen_mutex;
  options.pool.on_job_done = [&](std::size_t index, const JobResult& job) {
    std::lock_guard<std::mutex> lock(seen_mutex);
    EXPECT_EQ(job.spec_index, index);
    EXPECT_EQ(job.name, spec.jobs[index].name);
    seen.push_back(index);
  };
  std::string error;
  const CampaignReport report = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  std::sort(seen.begin(), seen.end());
  const ShardPlan plan = plan_shard(spec, *options.shard);
  EXPECT_EQ(seen, plan.spec_indices);
}

/// Resume goes through the verdict journal (ShardRunOptions::cache_dir):
/// a rerun serves every job the journal holds and solves only the rest.
class JournalTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::configure(""); }
  ShardRunOptions options() const {
    ShardRunOptions o;
    o.shard = ShardSpec{0, 2};
    o.cache_dir = dir_;
    return o;
  }
  std::string journal() const {
    return read_text_file(VerdictCache::journal_path(dir_)).value_or("");
  }
  TempDir tmp_;
  const std::string dir_ = tmp_.path;
};

TEST_F(JournalTest, RerunAgainstACompleteJournalStartsNoSolver) {
  const CampaignSpec spec = mixed_spec();
  std::string error;
  const CampaignReport first = run_sharded(spec, options(), &error);
  ASSERT_TRUE(error.empty()) << error;

  // Under this plan every SAT solve fails as out of memory, so a rerun
  // that started a solver would demote rows to UNKNOWN.
  ASSERT_TRUE(fault::configure("point=solver.alloc:oom"));
  std::atomic<unsigned> hook_fired{0};
  ShardRunOptions rerun = options();
  rerun.pool.on_job_done = [&](std::size_t, const JobResult&) { ++hook_fired; };
  const CampaignReport resumed = run_sharded(spec, rerun, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(hook_fired.load(), 0u);
  for (const JobResult& j : resumed.jobs) {
    EXPECT_TRUE(j.from_cache) << j.name;
    EXPECT_EQ(j.work.solver_conflicts, 0u) << j.name;
    EXPECT_EQ(j.witness_checked, j.verdict == Verdict::Falsified) << j.name;
  }
  EXPECT_EQ(resumed.to_json(/*include_timing=*/false),
            first.to_json(/*include_timing=*/false));
}

TEST_F(JournalTest, TruncatedJournalReSolvesExactlyTheDroppedJobs) {
  const CampaignSpec spec = mixed_spec();
  std::string error;
  const CampaignReport first = run_sharded(spec, options(), &error);
  ASSERT_TRUE(error.empty()) << error;

  // Simulate an interruption: keep only the first two journal lines.
  const std::string full = journal();
  const std::size_t lines = std::count(full.begin(), full.end(), '\n');
  ASSERT_EQ(lines, first.jobs.size());
  const std::size_t cut = full.find('\n', full.find('\n') + 1);
  ASSERT_TRUE(write_text_file_atomic(VerdictCache::journal_path(dir_),
                                     full.substr(0, cut + 1)));

  std::mutex resolved_mutex;
  std::vector<std::size_t> resolved;
  ShardRunOptions resume = options();
  resume.pool.threads = 2;
  resume.pool.on_job_done = [&](std::size_t index, const JobResult&) {
    std::lock_guard<std::mutex> lock(resolved_mutex);
    resolved.push_back(index);
  };
  const CampaignReport recovered = run_sharded(spec, resume, &error);
  ASSERT_TRUE(error.empty()) << error;
  // The hook fires exactly once per dropped job and never for a served one.
  std::sort(resolved.begin(), resolved.end());
  EXPECT_EQ(resolved.size(), lines - 2);
  EXPECT_EQ(std::adjacent_find(resolved.begin(), resolved.end()), resolved.end());
  for (const JobResult& j : recovered.jobs)
    EXPECT_NE(j.from_cache,
              std::binary_search(resolved.begin(), resolved.end(), j.spec_index))
        << j.name;
  EXPECT_EQ(recovered.to_json(/*include_timing=*/false),
            first.to_json(/*include_timing=*/false));
  // The journal again holds one line per job: nothing was solved twice.
  const std::string healed = journal();
  EXPECT_EQ(static_cast<std::size_t>(std::count(healed.begin(), healed.end(), '\n')),
            lines);
}

TEST_F(JournalTest, ForeignShardBudgetFingerprintOrCorruptionOnlyMisses) {
  const CampaignSpec spec = mixed_spec();
  std::string error;
  const CampaignReport first = run_sharded(spec, options(), &error);
  ASSERT_TRUE(error.empty()) << error;

  // Every variation runs without error and solves all of its jobs afresh.
  const auto run_missing_everything = [&](const CampaignSpec& s, ShardRunOptions o,
                                          const char* what) {
    std::atomic<std::size_t> solved{0};
    o.pool.on_job_done = [&](std::size_t, const JobResult&) { ++solved; };
    const CampaignReport r = run_sharded(s, o, &error);
    EXPECT_TRUE(error.empty()) << what << ": " << error;
    EXPECT_FALSE(r.jobs.empty()) << what;
    EXPECT_EQ(solved.load(), r.jobs.size()) << what;
    for (const JobResult& j : r.jobs)
      EXPECT_FALSE(j.from_cache) << what << ": " << j.name;
    return r;
  };

  ShardRunOptions other_shard = options();
  other_shard.shard = ShardSpec{1, 2};
  run_missing_everything(spec, other_shard, "different shard");

  CampaignSpec rebudgeted = mixed_spec();
  for (JobSpec& job : rebudgeted.jobs) job.budget.max_bound += 4;
  run_missing_everything(rebudgeted, options(), "different budget");

  // A caller-supplied fingerprint change (e.g. sepe-run's --xlen).
  ShardRunOptions refingerprinted = options();
  refingerprinted.fingerprint = "xlen=8";
  run_missing_everything(spec, refingerprinted, "different fingerprint");

  ASSERT_TRUE(write_text_file_atomic(VerdictCache::journal_path(dir_), "{not json\n"));
  const CampaignReport rerun = run_missing_everything(spec, options(), "corrupt journal");
  EXPECT_EQ(rerun.to_json(/*include_timing=*/false),
            first.to_json(/*include_timing=*/false));
}

}  // namespace
}  // namespace sepe::engine
