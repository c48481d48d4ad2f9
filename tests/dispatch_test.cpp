// Injected-failure battery for the multi-host campaign dispatcher: a
// scripted FakeLauncher stands in for the process transport so every
// failure mode is deterministic — crashed attempts are retried with the
// same worker command (so they share its verdict journal), stragglers
// are stolen, the first completion of a shard wins and late duplicates
// are discarded, retry budgets are enforced, and a usage error is fatal
// rather than retried. Whatever the fault schedule, the merged report
// must stay byte-identical to an unsharded run (the same contract the
// shard/merge layer pins). LocalProcessLauncher is exercised against
// real /bin/sh children at the bottom.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/dispatch.hpp"
#include "engine/report_io.hpp"
#include "engine/shard.hpp"

namespace sepe::engine {
namespace {

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

CampaignSpec small_spec() {
  JobBudget budget;
  budget.max_bound = 6;
  budget.max_k = 2;
  CampaignSpec spec;
  spec.seed = 17;
  for (unsigned t = 1; t <= 4; ++t)
    spec.jobs.push_back(counter_job("cnt-" + std::to_string(t), 5 + t % 2, t, budget));
  spec.jobs.push_back(frozen_job("frozen-4", 4, budget));
  spec.jobs.push_back(counter_job("clean-30", 6, 30, budget));
  return spec;
}

/// Scripted behavior of one fake worker attempt.
struct Behavior {
  enum class Kind {
    Complete,            // report written, exit 0
    CompleteAfterPolls,  // same, but only exits on poll #polls_until_exit
    Crash,               // signal 9 at the first poll, no report
    CrashAfterPolls,     // ditto, but crashes only on poll #polls_until_exit
    Hang,                // Running forever
    ExitUsage,           // exit 2 without writing anything
  };
  Kind kind = Kind::Complete;
  unsigned polls_until_exit = 0;
};

/// A WorkerLauncher that interprets the dispatcher's command lines and
/// replays precomputed shard reports per a per-shard script. Single
/// threaded and deterministic: "processes" advance only when polled.
class FakeLauncher final : public WorkerLauncher {
 public:
  /// `reports[i]`: the stable report a real worker writes for shard i.
  explicit FakeLauncher(const std::vector<std::string>* reports) : reports_(reports) {}

  std::map<unsigned, std::deque<Behavior>> script;
  std::vector<unsigned> launches;                // shard index per launch, in order
  std::vector<std::vector<std::string>> argvs;  // command line per launch
  unsigned terminations = 0;

  bool terminated(std::size_t launch_index) const {
    return procs_.at(launch_index).terminated;
  }

  long launch(const std::vector<std::string>& argv, std::string* error) override {
    Proc proc;
    if (!parse_command(argv, &proc)) {
      *error = "fake launcher: unparseable worker command";
      return -1;
    }
    auto& queue = script[proc.shard];
    if (!queue.empty()) {
      proc.behavior = queue.front();
      queue.pop_front();
    }
    if (proc.behavior.kind == Behavior::Kind::Complete ||
        proc.behavior.kind == Behavior::Kind::CompleteAfterPolls)
      write_text_file_atomic(proc.report_path, (*reports_)[proc.shard]);
    launches.push_back(proc.shard);
    argvs.push_back(argv);
    procs_.push_back(std::move(proc));
    return static_cast<long>(procs_.size()) - 1;
  }

  Exit poll(long handle) override {
    Proc& proc = procs_.at(static_cast<std::size_t>(handle));
    ++proc.polls;
    switch (proc.behavior.kind) {
      case Behavior::Kind::Complete: return {Exit::Status::Exited, 0};
      case Behavior::Kind::CompleteAfterPolls:
        if (proc.polls >= proc.behavior.polls_until_exit)
          return {Exit::Status::Exited, 0};
        return {Exit::Status::Running, 0};
      case Behavior::Kind::Crash: return {Exit::Status::Signalled, SIGKILL};
      case Behavior::Kind::CrashAfterPolls:
        if (proc.polls >= proc.behavior.polls_until_exit)
          return {Exit::Status::Signalled, SIGKILL};
        return {Exit::Status::Running, 0};
      case Behavior::Kind::Hang: return {Exit::Status::Running, 0};
      case Behavior::Kind::ExitUsage: return {Exit::Status::Exited, 2};
    }
    return {Exit::Status::Lost, 0};
  }

  void terminate(long handle) override {
    procs_.at(static_cast<std::size_t>(handle)).terminated = true;
    ++terminations;
  }

 private:
  struct Proc {
    unsigned shard = 0;
    std::string report_path;
    Behavior behavior;
    unsigned polls = 0;
    bool terminated = false;
  };

  static bool parse_command(const std::vector<std::string>& argv, Proc* out) {
    ShardSpec shard;
    std::string error;
    for (std::size_t i = 0; i + 1 < argv.size(); ++i) {
      if (argv[i] == "--shard") {
        if (!parse_shard(argv[i + 1], &shard, &error)) return false;
        out->shard = shard.index;
      } else if (argv[i] == "--json") {
        out->report_path = argv[i + 1];
      }
    }
    return !out->report_path.empty();
  }

  const std::vector<std::string>* reports_;
  std::vector<Proc> procs_;
};

class DispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_ = ::testing::TempDir() + "dispatch_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(work_);
    std::filesystem::create_directories(work_);
    spec_ = small_spec();
    CampaignOptions sequential;
    sequential.threads = 1;
    reference_ = run_campaign(spec_, sequential).to_json(/*include_timing=*/false);
  }

  void TearDown() override { std::filesystem::remove_all(work_); }

  /// Run every shard in-process once to capture the reports the fake
  /// transport replays.
  void prepare_artifacts(unsigned shards) {
    artifacts_.assign(shards, {});
    for (unsigned i = 0; i < shards; ++i) {
      ShardRunOptions options;
      options.pool.threads = 1;
      options.shard = ShardSpec{i, shards};
      std::string error;
      const CampaignReport report = run_sharded(spec_, options, &error);
      ASSERT_TRUE(error.empty()) << error;
      artifacts_[i] = report.to_json(/*include_timing=*/false);
    }
  }

  DispatchOptions base_options(FakeLauncher* launcher, unsigned workers,
                               unsigned shards) {
    DispatchOptions options;
    options.worker_command = {"fake-sepe-run", "--bound", "6"};
    options.work_dir = work_;
    options.workers = workers;
    options.shards = shards;
    options.launcher = launcher;
    options.poll_seconds = 0.0;
    options.steal_after_seconds = 0.0;  // fake time: steal on the next pass
    options.on_event = [this](const std::string& line) { events_.push_back(line); };
    return options;
  }

  bool any_event_contains(const std::string& needle) const {
    for (const std::string& line : events_)
      if (line.find(needle) != std::string::npos) return true;
    return false;
  }

  std::string work_;
  CampaignSpec spec_;
  std::string reference_;
  std::vector<std::string> artifacts_;
  std::vector<std::string> events_;
};

TEST_F(DispatchTest, AllShardsCompleteAndMergeMatchesReference) {
  prepare_artifacts(3);
  FakeLauncher launcher(&artifacts_);
  const DispatchResult result = run_dispatch(base_options(&launcher, 2, 3));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.merged.to_json(/*include_timing=*/false), reference_);
  EXPECT_EQ(result.launches, 3u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.steals, 0u);
  EXPECT_EQ(result.duplicates, 0u);
}

TEST_F(DispatchTest, MoreShardsThanJobsStillMergesByteIdentically) {
  prepare_artifacts(8);  // 6 jobs over 8 shards: two legs are empty
  FakeLauncher launcher(&artifacts_);
  const DispatchResult result = run_dispatch(base_options(&launcher, 3, 8));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.merged.to_json(/*include_timing=*/false), reference_);
  EXPECT_EQ(result.launches, 8u);
}

TEST_F(DispatchTest, CrashedAttemptIsRetriedWithTheSameWorkerCommand) {
  prepare_artifacts(2);
  FakeLauncher launcher(&artifacts_);
  // Shard 0 crashes once; the retry completes.
  launcher.script[0] = {Behavior{Behavior::Kind::Crash},
                        Behavior{Behavior::Kind::Complete}};
  DispatchOptions options = base_options(&launcher, 1, 2);
  options.worker_command = {"fake-sepe-run", "--bound", "6", "--cache", "journal"};
  options.retries = 1;
  const DispatchResult result = run_dispatch(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.merged.to_json(/*include_timing=*/false), reference_);
  EXPECT_EQ(result.failures, 1u);
  EXPECT_EQ(result.launches, 3u);  // shard 0 twice, shard 1 once
  EXPECT_TRUE(any_event_contains("crashed (signal 9)"));
  // Every attempt runs the worker command verbatim, so the retry shares
  // the crashed attempt's verdict journal and resumes from it.
  for (const std::vector<std::string>& argv : launcher.argvs) {
    ASSERT_GE(argv.size(), options.worker_command.size());
    EXPECT_TRUE(std::equal(options.worker_command.begin(), options.worker_command.end(),
                           argv.begin()));
  }
}

TEST_F(DispatchTest, StragglerIsStolenAndLoserTerminated) {
  prepare_artifacts(2);
  FakeLauncher launcher(&artifacts_);
  // Shard 0 hangs; once shard 1 finishes, the idle worker must steal
  // shard 0, win, and the hung original must be put down.
  launcher.script[0] = {Behavior{Behavior::Kind::Hang},
                        Behavior{Behavior::Kind::Complete}};
  const DispatchResult result = run_dispatch(base_options(&launcher, 2, 2));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.merged.to_json(/*include_timing=*/false), reference_);
  EXPECT_EQ(result.steals, 1u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.duplicates, 0u);
  ASSERT_EQ(launcher.launches.size(), 3u);
  EXPECT_EQ(launcher.launches[2], 0u);  // the steal targets the straggler
  EXPECT_TRUE(launcher.terminated(0));  // the hung original attempt
  EXPECT_TRUE(any_event_contains("terminated (shard already won)"));
}

TEST_F(DispatchTest, FirstCompletionWinsAndTheDuplicateIsDiscarded) {
  prepare_artifacts(2);
  FakeLauncher launcher(&artifacts_);
  // Shard 0's original attempt finishes on its second poll — the same
  // scheduler pass in which the freshly-stolen copy finishes. The
  // original (older) attempt wins the photo finish; the thief's
  // completion is reconciled away as a duplicate.
  launcher.script[0] = {Behavior{Behavior::Kind::CompleteAfterPolls, 2},
                        Behavior{Behavior::Kind::Complete}};
  const DispatchResult result = run_dispatch(base_options(&launcher, 2, 2));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.merged.to_json(/*include_timing=*/false), reference_);
  EXPECT_EQ(result.steals, 1u);
  EXPECT_EQ(result.duplicates, 1u);
  EXPECT_TRUE(any_event_contains("finished second; discarded"));
}

TEST_F(DispatchTest, AStolenAttemptsCrashDoesNotConsumeTheRetryBudget) {
  prepare_artifacts(2);
  FakeLauncher launcher(&artifacts_);
  // Shard 0's original attempt lingers long enough to be stolen, then
  // crashes; the thief crashes too. Two failed attempts — but zero
  // *retries* have been spent, so with retries=1 the dispatcher must
  // relaunch and finish, not abort with an exhausted retry budget.
  launcher.script[0] = {Behavior{Behavior::Kind::CrashAfterPolls, 3},
                        Behavior{Behavior::Kind::CrashAfterPolls, 3},
                        Behavior{Behavior::Kind::Complete}};
  DispatchOptions options = base_options(&launcher, 2, 2);
  options.retries = 1;
  const DispatchResult result = run_dispatch(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.merged.to_json(/*include_timing=*/false), reference_);
  EXPECT_EQ(result.failures, 2u);
  EXPECT_FALSE(any_event_contains("retry budget"));
}

TEST_F(DispatchTest, RetryBudgetExhaustionFailsTheDispatch) {
  prepare_artifacts(2);
  FakeLauncher launcher(&artifacts_);
  launcher.script[0] = {Behavior{Behavior::Kind::Crash},
                        Behavior{Behavior::Kind::Crash}};
  DispatchOptions options = base_options(&launcher, 2, 2);
  options.retries = 1;
  const DispatchResult result = run_dispatch(options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("shard 0/2"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("retry budget"), std::string::npos) << result.error;
  EXPECT_EQ(result.failures, 2u);
}

TEST_F(DispatchTest, UsageErrorIsFatalNotRetried) {
  prepare_artifacts(2);
  FakeLauncher launcher(&artifacts_);
  launcher.script[0] = {Behavior{Behavior::Kind::ExitUsage}};
  DispatchOptions options = base_options(&launcher, 1, 2);
  options.retries = 5;
  const DispatchResult result = run_dispatch(options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("rejected the command line"), std::string::npos)
      << result.error;
  // Never relaunched: a usage error is deterministic.
  EXPECT_EQ(launcher.launches.size(), 1u);
}

TEST_F(DispatchTest, MissingWorkerBinaryFailsFastWithoutRetries) {
  // Real local launcher: exec failure (exit 127) is deterministic and
  // must not be retried per shard.
  DispatchOptions options;
  options.worker_command = {"/no/such/binary-anywhere"};
  options.work_dir = work_;
  options.workers = 1;
  options.shards = 2;
  options.retries = 5;
  options.poll_seconds = 0.005;
  const DispatchResult result = run_dispatch(options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot be executed"), std::string::npos)
      << result.error;
  EXPECT_EQ(result.launches, 1u);
}

TEST_F(DispatchTest, StealingCanBeDisabled) {
  prepare_artifacts(3);
  FakeLauncher launcher(&artifacts_);
  DispatchOptions options = base_options(&launcher, 2, 3);
  options.steal = false;
  const DispatchResult result = run_dispatch(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.merged.to_json(/*include_timing=*/false), reference_);
  EXPECT_EQ(result.steals, 0u);
}

TEST(DispatchValidation, RejectsAnEmptyConfiguration) {
  DispatchResult result = run_dispatch(DispatchOptions{});
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());

  DispatchOptions no_dir;
  no_dir.worker_command = {"sepe-run"};
  no_dir.workers = 1;
  result = run_dispatch(no_dir);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("work directory"), std::string::npos);
}

// --- the real process transport ---

WorkerLauncher::Exit wait_for_exit(WorkerLauncher& launcher, long handle) {
  for (int i = 0; i < 4000; ++i) {
    const WorkerLauncher::Exit status = launcher.poll(handle);
    if (status.status != WorkerLauncher::Exit::Status::Running) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return {WorkerLauncher::Exit::Status::Lost, 0};
}

TEST(LocalProcessLauncherTest, ReportsExitCodesAndSignals) {
  LocalProcessLauncher launcher;
  std::string error;

  const long ok = launcher.launch({"/bin/sh", "-c", "exit 0"}, &error);
  ASSERT_GE(ok, 0) << error;
  WorkerLauncher::Exit status = wait_for_exit(launcher, ok);
  EXPECT_EQ(status.status, WorkerLauncher::Exit::Status::Exited);
  EXPECT_EQ(status.code, 0);

  const long seven = launcher.launch({"/bin/sh", "-c", "exit 7"}, &error);
  ASSERT_GE(seven, 0) << error;
  status = wait_for_exit(launcher, seven);
  EXPECT_EQ(status.status, WorkerLauncher::Exit::Status::Exited);
  EXPECT_EQ(status.code, 7);

  const long killed = launcher.launch({"/bin/sh", "-c", "kill -KILL $$"}, &error);
  ASSERT_GE(killed, 0) << error;
  status = wait_for_exit(launcher, killed);
  EXPECT_EQ(status.status, WorkerLauncher::Exit::Status::Signalled);
  EXPECT_EQ(status.code, SIGKILL);

  // exec failure surfaces as the shell's command-not-found status.
  const long missing = launcher.launch({"/no/such/binary-anywhere"}, &error);
  ASSERT_GE(missing, 0) << error;
  status = wait_for_exit(launcher, missing);
  EXPECT_EQ(status.status, WorkerLauncher::Exit::Status::Exited);
  EXPECT_EQ(status.code, 127);
}

TEST(LocalProcessLauncherTest, TerminateReapsARunningWorker) {
  LocalProcessLauncher launcher;
  std::string error;
  // `exec` so the launched pid IS the sleep — terminating must not
  // leave an orphan holding inherited pipes open (a backgrounded
  // grandchild would stall any harness reading this test's output).
  const long sleeper = launcher.launch({"/bin/sh", "-c", "exec sleep 600"}, &error);
  ASSERT_GE(sleeper, 0) << error;
  EXPECT_EQ(launcher.poll(sleeper).status, WorkerLauncher::Exit::Status::Running);
  // Must kill and reap promptly (blocks until the child is gone).
  launcher.terminate(sleeper);
}

}  // namespace
}  // namespace sepe::engine
