#include "engine/dispatch.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "engine/report_io.hpp"
#include "engine/witness.hpp"
#include "util/fault.hpp"

namespace sepe::engine {

// --- LocalProcessLauncher: fork/exec on this host ---

long LocalProcessLauncher::launch(const std::vector<std::string>& argv,
                                  std::string* error) {
  if (argv.empty()) {
    if (error) *error = "empty worker command";
    return -1;
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    if (error) *error = std::string("fork failed: ") + std::strerror(errno);
    return -1;
  }
  if (pid == 0) {
    // Child. The dispatcher owns the terminal: workers talk through
    // their report files, so drop their stdout; keep stderr visible for
    // diagnostics (a usage error must reach the user).
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::close(null_fd);
    }
    ::execvp(cargv[0], cargv.data());
    // exec failed; the shell's conventions: 127 = command not found,
    // 126 = found but not executable. The dispatcher treats both as
    // fatal (deterministic) rather than retryable.
    ::_exit(errno == ENOENT ? 127 : 126);
  }
  return static_cast<long>(pid);
}

WorkerLauncher::Exit LocalProcessLauncher::poll(long handle) {
  int status = 0;
  const pid_t r = ::waitpid(static_cast<pid_t>(handle), &status, WNOHANG);
  if (r == 0) return {Exit::Status::Running, 0};
  if (r < 0) return {Exit::Status::Lost, errno};
  if (WIFEXITED(status)) return {Exit::Status::Exited, WEXITSTATUS(status)};
  if (WIFSIGNALED(status)) return {Exit::Status::Signalled, WTERMSIG(status)};
  return {Exit::Status::Lost, 0};
}

void LocalProcessLauncher::terminate(long handle) {
  ::kill(static_cast<pid_t>(handle), SIGKILL);
  ::waitpid(static_cast<pid_t>(handle), nullptr, 0);
}

// --- the dispatcher ---

namespace {

/// One in-flight worker attempt.
struct Attempt {
  unsigned shard = 0;
  unsigned ordinal = 0;  // per-shard attempt number (1-based, for paths)
  long handle = -1;
  std::string report_path;
  bool stolen = false;
  std::uint64_t launch_seq = 0;  // global launch order, for stable polling
  std::chrono::steady_clock::time_point launched_at;
  unsigned observed_running = 0;  // polls that found the attempt alive
};

/// Book-keeping for one shard of the campaign.
struct ShardState {
  unsigned attempts = 0;    // launches so far (names the next attempt's files)
  unsigned failures = 0;    // failed attempts (reporting only)
  unsigned relaunches = 0;  // retries actually spent, measured against `retries`
  bool completed = false;
  /// Earliest instant the next relaunch of this shard may start
  /// (exponential backoff with deterministic jitter; see
  /// DispatchOptions::retry_backoff_seconds). Default = due immediately.
  std::chrono::steady_clock::time_point not_before{};
  CampaignReport report;  // the winning attempt's report
};

/// splitmix64 folded to [0, 1): the backoff jitter source. Pure function
/// of its seed, so the whole retry schedule is reproducible.
double jitter01(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

std::string shard_arg(unsigned index, unsigned count) {
  return std::to_string(index) + "/" + std::to_string(count);
}

class Dispatcher {
 public:
  Dispatcher(const DispatchOptions& options, WorkerLauncher* launcher)
      : options_(options),
        launcher_(launcher),
        shard_count_(options.shards != 0 ? options.shards : options.workers),
        shards_(shard_count_) {
    for (unsigned i = 0; i < shard_count_; ++i) pending_.push_back(i);
  }

  DispatchResult run() {
    while (completed_ < shard_count_ && result_.error.empty()) {
      // Crash-only envelope: on SIGTERM/SIGINT stop scheduling and put
      // the fleet down (below); whatever journal the worker command
      // names lets a re-run resume (docs/ROBUSTNESS.md).
      if (fault::global_stop_requested()) {
        fail("interrupted — re-run the same dispatch to resume");
        break;
      }
      bool progress = fill_worker_slots();
      progress |= poll_running();
      if (!progress && result_.error.empty())
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options_.poll_seconds));
    }
    // Whatever ended the loop (success or a fatal error), leave no
    // workers behind.
    for (const Attempt& attempt : running_) launcher_->terminate(attempt.handle);
    running_.clear();

    if (!result_.error.empty()) return std::move(result_);

    std::vector<CampaignReport> reports;
    reports.reserve(shard_count_);
    for (ShardState& shard : shards_) reports.push_back(std::move(shard.report));
    std::string merge_error;
    auto merged = CampaignReport::merge(reports, &merge_error);
    if (!merged) {
      // Per-shard validation should make this unreachable; report it
      // rather than trusting that.
      result_.error = "merging the completed shard reports failed: " + merge_error;
      return std::move(result_);
    }
    if (!options_.witness_dir.empty()) cross_check_witnesses(&*merged);
    result_.merged = std::move(*merged);
    result_.ok = true;
    return std::move(result_);
  }

 private:
  void event(const std::string& line) {
    if (options_.on_event) options_.on_event(line);
  }

  /// SAT-free audit of the merged verdicts against the workers' witness
  /// artifacts: retried and stolen attempts all funnel through here, so
  /// a worker (or a reused work dir) shipping a FALSIFIED row it cannot
  /// back with a replayable artifact is caught at the merge, not
  /// trusted. Demotion mirrors the in-process post-pass exactly, so the
  /// stable report stays byte-deterministic wherever the check fires.
  void cross_check_witnesses(CampaignReport* merged) {
    for (JobResult& job : merged->jobs) {
      if (job.verdict != Verdict::Falsified) continue;
      const std::string path =
          options_.witness_dir + "/" + witness_artifact_filename(job.name);
      const auto text = read_text_file(path);
      WitnessHeader header;
      std::string why;
      bool genuine = false;
      if (!text) {
        why = "artifact '" + path + "' missing or unreadable";
      } else if (check_witness_text(*text, &header, &why)) {
        if (header.name != job.name) {
          why = "artifact names job '" + header.name + "'";
        } else if (header.length != job.trace_length) {
          why = "artifact bound " + std::to_string(header.length) +
                " disagrees with trace_length " + std::to_string(job.trace_length);
        } else if (!header.bad_label.empty() && !job.bad_label.empty() &&
                   header.bad_label != job.bad_label) {
          why = "artifact violates '" + header.bad_label + "', row claims '" +
                job.bad_label + "'";
        } else {
          genuine = true;
          job.witness_checked = true;
          job.trace_length_shrunk = header.shrunk;
        }
      }
      if (!genuine) {
        job.verdict = Verdict::Unknown;
        job.note = "witness: replay mismatch";
        job.witness.clear();
        job.witness_checked = false;
        job.trace_length_shrunk = 0;
        event("[dispatch] witness cross-check demoted job '" + job.name +
              "': " + why);
      }
    }
  }

  void fail(std::string what) {
    if (result_.error.empty()) result_.error = std::move(what);
  }

  unsigned attempts_in_flight(unsigned shard) const {
    unsigned n = 0;
    for (const Attempt& attempt : running_) n += (attempt.shard == shard);
    return n;
  }

  std::string aggregate_line() const {
    // The live aggregate: verdict tallies over every shard folded in so
    // far. Totals come from shard metadata, so the line is meaningful
    // before all shards have reported.
    unsigned counts[4] = {0, 0, 0, 0};
    std::size_t jobs = 0;
    std::uint64_t total = 0;
    for (const ShardState& shard : shards_) {
      if (!shard.completed) continue;
      jobs += shard.report.jobs.size();
      if (shard.report.shard) total = shard.report.shard->total_jobs;
      for (Verdict v : {Verdict::Falsified, Verdict::Proved, Verdict::BoundClean,
                        Verdict::Unknown})
        counts[static_cast<int>(v)] += shard.report.count(v);
    }
    return std::to_string(jobs) + "/" + std::to_string(total) +
           " jobs aggregated: " + std::to_string(counts[0]) + " falsified, " +
           std::to_string(counts[1]) + " proved, " + std::to_string(counts[2]) +
           " bound-clean, " + std::to_string(counts[3]) + " unknown";
  }

  /// Launch the next attempt of `shard` on a free worker slot.
  bool launch_attempt(unsigned shard, bool stolen) {
    ShardState& state = shards_[shard];
    Attempt attempt;
    attempt.shard = shard;
    attempt.ordinal = ++state.attempts;
    attempt.stolen = stolen;
    attempt.launch_seq = launch_seq_++;
    attempt.launched_at = std::chrono::steady_clock::now();
    attempt.report_path = options_.work_dir + "/shard-" + std::to_string(shard) +
                          ".a" + std::to_string(attempt.ordinal) + ".report.json";

    std::vector<std::string> argv = options_.worker_command;
    argv.insert(argv.end(), {"--shard", shard_arg(shard, shard_count_),
                             "--stable-json", "--json", attempt.report_path});
    std::string launch_error;
    attempt.handle = launcher_->launch(argv, &launch_error);
    if (attempt.handle < 0) {
      fail("cannot launch a worker for shard " + shard_arg(shard, shard_count_) +
           ": " + launch_error);
      return false;
    }
    ++result_.launches;
    if (stolen) ++result_.steals;
    event((stolen ? "steal: shard " : "shard ") + shard_arg(shard, shard_count_) +
          " -> attempt " + std::to_string(attempt.ordinal));
    running_.push_back(std::move(attempt));
    return true;
  }

  /// Keep every worker slot busy: drain the pending queue first, then
  /// steal the longest-running straggler rather than idling.
  bool fill_worker_slots() {
    bool progress = false;
    const auto now = std::chrono::steady_clock::now();
    while (running_.size() < options_.workers && !pending_.empty() &&
           result_.error.empty()) {
      // Queued relaunches respect their backoff window: skip shards that
      // are not due yet (the scheduler naps and comes back for them).
      const auto due = std::find_if(
          pending_.begin(), pending_.end(), [&](unsigned shard) {
            return shards_[shard].completed || now >= shards_[shard].not_before;
          });
      if (due == pending_.end()) break;
      const unsigned shard = *due;
      pending_.erase(due);
      // A queued relaunch can be overtaken by a thief completing the
      // shard first; never re-solve a shard that is already won.
      if (shards_[shard].completed) continue;
      progress |= launch_attempt(shard, /*stolen=*/false);
    }
    while (options_.steal && running_.size() < options_.workers &&
           pending_.empty() && result_.error.empty()) {
      // Straggler = the oldest-running shard that has no thief yet (at
      // most two concurrent attempts per shard keeps stealing bounded)
      // and has actually been seen running past the steal threshold —
      // never a shard whose attempt was launched moments ago. The
      // total-attempt cap bounds steal churn on a shard whose thieves
      // keep dying while the original never finishes.
      const Attempt* straggler = nullptr;
      for (const Attempt& attempt : running_) {
        if (shards_[attempt.shard].completed) continue;
        if (attempts_in_flight(attempt.shard) != 1) continue;
        if (shards_[attempt.shard].attempts > options_.retries + 1) continue;
        if (attempt.observed_running == 0 ||
            std::chrono::duration<double>(now - attempt.launched_at).count() <
                options_.steal_after_seconds)
          continue;
        if (!straggler || attempt.launch_seq < straggler->launch_seq)
          straggler = &attempt;
      }
      if (!straggler) break;
      progress |= launch_attempt(straggler->shard, /*stolen=*/true);
    }
    return progress;
  }

  /// Read the report a finished attempt wrote; nullopt + *why when it
  /// is missing, unparseable, or not the shard it was asked to run.
  std::optional<CampaignReport> load_report(const Attempt& attempt,
                                            std::string* why) const {
    const auto text = read_text_file(attempt.report_path);
    if (!text) {
      *why = "wrote no report";
      return std::nullopt;
    }
    CampaignReport report;
    std::string parse_error;
    if (!parse_report(*text, &report, &parse_error)) {
      *why = "wrote an unreadable report (" + parse_error + ")";
      return std::nullopt;
    }
    if (!report.shard || report.shard->shard.index != attempt.shard ||
        report.shard->shard.count != shard_count_) {
      *why = "reported the wrong shard";
      return std::nullopt;
    }
    return report;
  }

  void on_attempt_succeeded(const Attempt& attempt, CampaignReport report) {
    ShardState& state = shards_[attempt.shard];
    if (state.completed) {
      // A sibling already won this shard (the race a steal sets up);
      // the duplicate rows are reconciled by keeping exactly one report
      // per shard index — precisely what the merge contract requires.
      ++result_.duplicates;
      event("shard " + shard_arg(attempt.shard, shard_count_) + " attempt " +
            std::to_string(attempt.ordinal) + " finished second; discarded");
      return;
    }
    state.completed = true;
    state.report = std::move(report);
    ++completed_;
    event("shard " + shard_arg(attempt.shard, shard_count_) + " complete (attempt " +
          std::to_string(attempt.ordinal) + ", " +
          std::to_string(state.report.jobs.size()) + " jobs) — " + aggregate_line());
  }

  void on_attempt_failed(const Attempt& attempt, const std::string& why) {
    ++result_.failures;
    ShardState& state = shards_[attempt.shard];
    event("shard " + shard_arg(attempt.shard, shard_count_) + " attempt " +
          std::to_string(attempt.ordinal) + " " + why);
    if (state.completed) return;  // a sibling already delivered the shard
    ++state.failures;
    // A sibling attempt (or an already-queued relaunch) is still in the
    // game: this failure costs nothing from the retry budget — losing a
    // stolen copy must never fail a dispatch that has not actually
    // retried anything yet.
    if (attempts_in_flight(attempt.shard) > 0) return;
    if (std::find(pending_.begin(), pending_.end(), attempt.shard) !=
        pending_.end())
      return;
    if (state.relaunches < options_.retries) {
      ++state.relaunches;
      // Exponential backoff with deterministic jitter: transient causes
      // (a flaky filesystem, an OOM-killer sweep) get room to clear, and
      // simultaneous casualties relaunch staggered instead of stampeding.
      if (options_.retry_backoff_seconds > 0) {
        const double delay =
            options_.retry_backoff_seconds *
            static_cast<double>(1u << std::min(state.relaunches - 1, 20u)) *
            (1.0 + jitter01((static_cast<std::uint64_t>(attempt.shard) << 32) ^
                            state.relaunches));
        state.not_before = std::chrono::steady_clock::now() +
                           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(delay));
      }
      pending_.push_front(attempt.shard);  // relaunch once the backoff elapses
      return;
    }
    fail("shard " + shard_arg(attempt.shard, shard_count_) + " failed " +
         std::to_string(state.failures) + " time(s) (last attempt " + why +
         ") — retry budget " + std::to_string(options_.retries) + " exhausted");
  }

  /// One scheduler pass over the fleet: poll everything, prune the
  /// running set down to the attempts still alive (so the retry logic
  /// sees live siblings only), then settle the exits in launch order —
  /// the oldest attempt of a shard wins a same-pass photo finish — and
  /// finally put down siblings out-raced by this pass's winners.
  bool poll_running() {
    std::vector<std::pair<Attempt, WorkerLauncher::Exit>> exited;
    std::vector<Attempt> alive;
    for (Attempt& attempt : running_) {
      const WorkerLauncher::Exit status = launcher_->poll(attempt.handle);
      if (status.status == WorkerLauncher::Exit::Status::Running) {
        ++attempt.observed_running;
        alive.push_back(attempt);
      } else {
        exited.emplace_back(attempt, status);
      }
    }
    running_ = std::move(alive);

    for (const auto& [attempt, status] : exited) {
      using Status = WorkerLauncher::Exit::Status;
      if (status.status == Status::Signalled) {
        on_attempt_failed(attempt,
                          "crashed (signal " + std::to_string(status.code) + ")");
        continue;
      }
      if (status.status == Status::Lost) {
        on_attempt_failed(attempt, "was lost by the launcher");
        continue;
      }
      const int code = status.code;
      if (code == 0 || code == 3) {
        // 3 = the campaign completed with UNKNOWN rows (e.g. corpus
        // parse errors) — a deterministic result, not a failure.
        std::string why;
        if (auto report = load_report(attempt, &why)) {
          on_attempt_succeeded(attempt, std::move(*report));
        } else {
          on_attempt_failed(attempt,
                            "exited " + std::to_string(code) + " but " + why);
        }
      } else if (code == 2) {
        // A usage error is fatal: every retry would be rejected the
        // same way (the worker's stderr has the diagnostic).
        fail("worker rejected the command line (exit 2) — see its "
             "stderr diagnostic");
      } else if (code == 126 || code == 127) {
        // exec failure: the worker command cannot be found (127) or
        // executed (126) — as deterministic as a usage error.
        fail("worker command '" + options_.worker_command[0] +
             "' cannot be executed (exit " + std::to_string(code) + ")");
      } else {
        on_attempt_failed(attempt, "failed (exit " + std::to_string(code) + ")");
      }
    }

    // Terminate siblings out-raced in this pass. Attempts that exited in
    // the same pass were already settled above (as duplicates), so only
    // still-running losers are put down.
    std::vector<Attempt> keep;
    for (const Attempt& attempt : running_) {
      if (shards_[attempt.shard].completed) {
        launcher_->terminate(attempt.handle);
        event("shard " + shard_arg(attempt.shard, shard_count_) + " attempt " +
              std::to_string(attempt.ordinal) + " terminated (shard already won)");
      } else {
        keep.push_back(attempt);
      }
    }
    const bool progress = !exited.empty() || keep.size() != running_.size();
    running_ = std::move(keep);
    return progress;
  }

  const DispatchOptions& options_;
  WorkerLauncher* launcher_;
  const unsigned shard_count_;
  std::vector<ShardState> shards_;
  std::deque<unsigned> pending_;
  std::vector<Attempt> running_;  // launch order (launch_seq ascending)
  unsigned completed_ = 0;
  std::uint64_t launch_seq_ = 0;
  DispatchResult result_;
};

}  // namespace

DispatchResult run_dispatch(const DispatchOptions& options) {
  DispatchResult invalid;
  if (options.worker_command.empty()) {
    invalid.error = "dispatch needs a worker command";
    return invalid;
  }
  if (options.workers == 0) {
    invalid.error = "dispatch needs at least one worker";
    return invalid;
  }
  if (options.work_dir.empty()) {
    invalid.error = "dispatch needs a work directory";
    return invalid;
  }
  LocalProcessLauncher local;
  WorkerLauncher* launcher = options.launcher ? options.launcher : &local;
  return Dispatcher(options, launcher).run();
}

}  // namespace sepe::engine
