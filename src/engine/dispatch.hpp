// dispatch.hpp — the multi-host campaign dispatcher: dynamic shard
// scheduling on top of the deterministic shard/merge seam.
//
// engine/shard.hpp made a campaign embarrassingly parallel across
// processes (`sepe-run --shard I/N` legs merged byte-identically), but
// launching every leg and running `merge` by hand is a human job. This
// layer is the scheduler above that seam: it owns the queue of shards,
// assigns them dynamically to worker *processes*, and folds their
// reports back together while legs are still running.
//
//   * Workers are spawned through the WorkerLauncher interface — a
//     pipe/exec seam whose only built-in implementation forks local
//     `sepe-run --shard I/N --json ...` children. A remote launcher
//     (ssh, a cluster API) is one subclass; the dispatcher never learns
//     where a worker runs.
//   * Failed or crashed attempts are retried a bounded number of times.
//     The worker command carries one verdict journal shared by every
//     attempt (sepe-run dispatch adds `--cache DIR`), so a retry serves
//     the jobs the dead attempt finished instead of re-solving them. The
//     dispatcher itself never reads or writes a journal.
//   * Straggler shards are *stolen*: when a worker slot would otherwise
//     idle, the longest-running shard is re-issued, and the thief
//     resumes from the same live journal. The first definite completion
//     wins; the losing attempt is terminated, and a duplicate completion
//     that slips through the same poll window is discarded — per-shard
//     reconciliation is exactly the existing merge contract (one report
//     per shard index, disjoint job ids).
//   * Completed shard reports fold into a live aggregate (event lines
//     carry the running verdict tally), and the final report comes from
//     CampaignReport::merge — so the dispatcher's stable JSON is
//     byte-identical to an unsharded run of the same campaign, even
//     when workers were killed mid-shard along the way.
//
// The dispatcher is workload-family agnostic by construction: it only
// ever sees the worker command line and the report files, so QED
// matrix campaigns and BTOR2 corpora (and every future family) dispatch
// identically. `sepe-run dispatch` is the CLI surface.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "engine/campaign.hpp"

namespace sepe::engine {

/// Where worker processes run: the pipe/exec seam between the
/// dispatcher's scheduling policy and the host(s) executing shards.
/// The built-in LocalProcessLauncher forks children on this machine; a
/// remote (ssh/cluster) launcher is one subclass away and the
/// dispatcher cannot tell the difference.
class WorkerLauncher {
 public:
  /// Snapshot of one worker's lifecycle.
  struct Exit {
    enum class Status {
      Running,    // still executing
      Exited,     // exited normally; `code` is the exit status
      Signalled,  // killed by a signal; `code` is the signal number
      Lost,       // the launcher cannot account for the worker
    };
    Status status = Status::Running;
    int code = 0;
  };

  virtual ~WorkerLauncher() = default;

  /// Start a worker running `argv` (argv[0] = program). Returns a
  /// non-negative opaque handle, or -1 with *error set. The worker's
  /// stdout is the launcher's to discard (the dispatcher reads results
  /// from report files, never from pipes); stderr should stay visible
  /// for diagnostics.
  virtual long launch(const std::vector<std::string>& argv, std::string* error) = 0;

  /// Non-blocking status check. Once a handle reports a non-Running
  /// status it is reaped: the dispatcher will not poll it again.
  virtual Exit poll(long handle) = 0;

  /// Forcibly stop and reap a Running worker (e.g. a straggler whose
  /// shard was completed by a thief first).
  virtual void terminate(long handle) = 0;
};

/// The built-in launcher: fork/exec on the local host, stdout routed to
/// /dev/null (the dispatcher owns the terminal), stderr inherited.
class LocalProcessLauncher final : public WorkerLauncher {
 public:
  long launch(const std::vector<std::string>& argv, std::string* error) override;
  Exit poll(long handle) override;
  void terminate(long handle) override;
};

struct DispatchOptions {
  /// The shard-independent worker command: program + family arguments
  /// (e.g. {"/path/sepe-run", "corpus", "dir", "--bound", "6", "--cache",
  /// "journal"}). The dispatcher appends per-attempt `--shard I/N
  /// --stable-json --json R` — those flags are its to own, the command
  /// must not carry them.
  std::vector<std::string> worker_command;
  /// Existing directory for the per-attempt report files. The dispatcher
  /// never deletes it (the CLI owns cleanup).
  std::string work_dir;
  unsigned workers = 2;  // concurrent worker processes
  unsigned shards = 0;   // shard count; 0 = same as workers
  /// Re-launches allowed per shard after failed attempts (crash,
  /// non-zero exit, missing/invalid report). A retry resumes from the
  /// verdict journal the worker command names, if any.
  unsigned retries = 1;
  /// Base delay before a failed shard's relaunch. The n-th relaunch of
  /// a shard waits base · 2^(n-1) · (1 + jitter) seconds, with jitter in
  /// [0, 1) drawn deterministically from the shard index and the retry
  /// ordinal — so a fleet of shards felled by one transient cause
  /// (filesystem hiccup, OOM-killer sweep) fans back in staggered
  /// instead of stampeding, and every run of the same failure history
  /// waits the same schedule. 0 relaunches immediately (old behaviour).
  double retry_backoff_seconds = 0.05;
  /// Re-issue straggler shards to idle workers instead of letting slots
  /// idle. First completion wins.
  bool steal = true;
  /// How long an attempt must have been running (and been seen alive at
  /// least once) before an idle worker may steal its shard — 0 steals
  /// at the first idle poll. Guards against duplicating a shard that
  /// was only just launched.
  double steal_after_seconds = 1.0;
  double poll_seconds = 0.02;  // scheduler poll interval
  /// When non-empty: the shared witness-artifact directory the workers
  /// were told to emit into (sepe-run --witness-dir). After the merge,
  /// every FALSIFIED row must be backed by an artifact there that
  /// re-validates with the simulator alone (engine/witness.hpp) and
  /// matches the row's job name, bound, and bad label — a cheap
  /// SAT-free cross-check that a retried or stolen shard's witnesses
  /// are genuine. A missing or bogus artifact demotes the row to the
  /// same diagnosed UNKNOWN the in-process post-pass uses.
  std::string witness_dir;
  /// Worker transport; nullptr = a built-in LocalProcessLauncher.
  WorkerLauncher* launcher = nullptr;
  /// Progress lines (launches, failures, steals, the live aggregate
  /// verdict tally). Scheduling-dependent — for humans and logs, never
  /// part of the deterministic report.
  std::function<void(const std::string&)> on_event;
};

struct DispatchResult {
  bool ok = false;
  std::string error;  // non-empty when !ok
  /// CampaignReport::merge over the per-shard winners — stable JSON
  /// byte-identical to an unsharded run of the same campaign.
  CampaignReport merged;
  unsigned launches = 0;    // worker processes spawned
  unsigned failures = 0;    // attempts that crashed or exited unusable
  unsigned steals = 0;      // straggler re-issues
  unsigned duplicates = 0;  // completions discarded (shard already won)
};

/// Run the campaign: schedule every shard onto the worker fleet, retry
/// and steal as configured, and merge the per-shard reports. Fails
/// (ok == false) when a shard exhausts its retries, a worker rejects
/// the command line (exit 2 — retrying a usage error cannot help), the
/// launcher cannot spawn, or the final merge is rejected; any workers
/// still running are terminated before returning.
DispatchResult run_dispatch(const DispatchOptions& options);

}  // namespace sepe::engine
