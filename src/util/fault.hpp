// fault.hpp — deterministic, seeded fault injection + the process-global
// cooperative stop flag (the crash-only execution envelope).
//
// A *fault plan* is parsed once from the SEPE_FAULT environment variable
// (or installed by tests via configure()) and names injection points
// threaded through every layer that can fail in production: solver
// allocation, verdict-cache / report / witness IO, and a campaign
// process between finished jobs. Production code asks
// `fault::hit("point.name")` at each site; with no plan armed that is a
// single relaxed atomic load, so the instrumentation is free in real runs.
//
// Plan grammar (see docs/ROBUSTNESS.md for the full contract):
//
//   SEPE_FAULT="seed=42;point=report.write:fail@3;point=cache.append:torn;
//               point=solver.alloc:oom@0.01;point=worker.job_done:kill@1"
//
//   seed=N            seeds every probabilistic trigger (default 1)
//   point=NAME:ACTION[@TRIGGER]   may repeat; same NAME may appear more
//                     than once — the first entry whose trigger fires wins
//
//   ACTION   fail | torn | short | enospc   (data faults, honoured by the
//                                            call site that asked)
//            oom                            (allocation-ceiling trip)
//            kill | hang | stop             (process faults — see
//                                            execute_process_action())
//   TRIGGER  absent   fire on every hit
//            @N       fire exactly once, on the Nth hit (1-based, counted
//                     per plan entry)
//            @0.25    fire each hit with probability 0.25, drawn from a
//                     per-entry splitmix64 stream seeded by
//                     seed ^ fnv1a(NAME) — deterministic across runs
//
// Determinism: with a fixed plan, a fixed seed, and a fixed sequence of
// hit() calls, the set of firing sites is a pure function of the plan.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace sepe::fault {

enum class Action : std::uint8_t {
  Fail,    // the operation reports failure (failed write, ...)
  Torn,    // a write persists only a prefix of the payload
  Short,   // a read/write transfers fewer bytes than requested
  Enospc,  // a write fails as if the device were full
  Oom,     // an allocation ceiling trips (degrade to Unknown, never abort)
  Kill,    // the process raises SIGKILL
  Hang,    // the process stalls, interruptibly (polls the global stop flag)
  Stop,    // raise the process-global stop flag (crash-only drill)
};

/// Parse and arm a fault plan; an empty string disarms. Returns false
/// (and disarms) on a malformed plan, with a diagnostic in *error when
/// given. Thread-safe; tests call this directly, binaries go through
/// init_from_environment().
bool configure(const std::string& plan, std::string* error = nullptr);

/// Arm from $SEPE_FAULT. Malformed plans disarm and report on stderr
/// rather than aborting: a bad fault plan must never take down a
/// production run. Returns false on a malformed plan.
bool init_from_environment();

/// True when any fault plan is armed (one relaxed atomic load).
bool armed();

/// Consult the plan at a named injection point. Returns the action to
/// simulate, or nullopt (the overwhelmingly common case). Data actions
/// (Fail/Torn/Short/Enospc/Oom) are honoured by the caller; process
/// actions (Kill/Hang/Stop) should be passed to execute_process_action().
std::optional<Action> hit(const char* point);

/// Carry out a process-level action: Kill raises SIGKILL; Hang naps in
/// ~50ms slices until the global stop flag rises (bounded at 10 minutes,
/// so a forgotten hang cannot outlive a CI timeout); Stop raises the
/// global stop flag. Data actions are a no-op here.
void execute_process_action(Action action);

/// The process-global cooperative stop flag. Raised by SIGTERM/SIGINT
/// handlers (request_global_stop is async-signal-safe) and by
/// Action::Stop; every CDCL loop observes it through
/// sat::Backend::stop_requested(), and campaign workers stop claiming
/// new jobs once it is up. Never lowered mid-process except by tests.
bool global_stop_requested();
void request_global_stop();
void clear_global_stop();  // tests only

}  // namespace sepe::fault
