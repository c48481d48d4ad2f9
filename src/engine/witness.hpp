// witness.hpp — the witness pipeline: independent replay, delta-debug
// shrinking, and standalone artifacts for every FALSIFIED verdict.
//
// Counterexample traces come out of the blast/solve/extract chain, and
// with caching (engine/verdict_cache.hpp) and a multi-process
// dispatcher feeding verdicts, a bug anywhere in that
// chain — or a tampered cache line or dispatch worker — could ship a
// bogus trace undetected. This layer is the engine-independent backstop:
//
//   * replay_trace re-executes the reported stimulus through the concrete
//     transition-system simulator (sim/ts_sim.hpp — the same evaluator
//     the ISS cross-checks ride on, no SAT anywhere) and asserts the
//     reported bad condition actually fires at the reported bound;
//   * shrink_trace delta-debugs the stimulus — zeroing whole steps, then
//     individual values, in a fixed order with no randomness — while the
//     replay still falsifies, yielding the deterministic "effective
//     stimulus length" reported as trace_length_shrunk;
//   * render_witness_artifact emits a self-contained versioned line-JSON
//     file (embedded BTOR2 model + stimulus + self-check digest, in the
//     style of the verdict journal) that check_witness_text re-validates
//     from the bytes alone — `sepe-run check-witness FILE` and the
//     dispatcher's cross-check of retried/stolen shards both go through
//     it without loading the SAT stack.
//
// witness_post_pass wires the three into run_campaign / run_sharded as an
// opt-out post-pass: a FALSIFIED job whose trace does not replay is
// hard-failed to a diagnosed UNKNOWN ("witness: replay mismatch") rather
// than reported on faith. The verdict journal stores each FALSIFIED
// row's stimulus in the artifact's step-row grammar (render_stimulus /
// parse_stimulus), so checking a cached row replays the journal and
// runs no solver. Replay is deterministic, so none of this touches the
// verdict-cache key. Formats: docs/FORMATS.md.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bmc/bmc.hpp"
#include "engine/campaign.hpp"
#include "ts/transition_system.hpp"

namespace sepe::engine {

/// A counterexample trace in declaration-index order: row t of `inputs`
/// holds one value per ts.inputs() entry for step t (t = 0..length), and
/// `states` holds leading state rows in ts.states() order (artifacts and
/// shrunk traces keep only row 0 — later rows are recomputed by replay).
/// Unlike bmc::Witness, whose assignments are keyed on the job-local
/// TermManager, this form survives the job: extract_trace must run while
/// the witness's TransitionSystem is alive, the result needs nothing.
struct WitnessTrace {
  unsigned length = 0;
  std::size_t bad_index = 0;
  std::string bad_label;
  std::vector<std::vector<BitVec>> inputs;
  std::vector<std::vector<BitVec>> states;
  /// Set by shrink_trace. A shrunk trace is replayed as is: shrinking is
  /// greedy, so shrinking it again could move its stimulus.
  bool shrunk = false;
};

/// Convert a solver witness into the index-ordered form, reading the
/// assignments against `ts` (the system the witness was found on).
WitnessTrace extract_trace(const ts::TransitionSystem& ts, const bmc::Witness& w);

/// Outcome of a replay; `error` names the first divergence (step, kind).
struct WitnessReplay {
  bool ok = false;
  std::string error;
};

/// Re-execute `trace` on `ts` with the concrete simulator: the initial
/// state must agree with every init value, every recorded state row must
/// be reproduced, every (init-)constraint must hold at every step, and
/// the reported bad condition must fire at step trace.length. Handles
/// both in-process systems (explicit init constraints) and round-tripped
/// BTOR2 dumps (init constraints guarded by the writer's at-init flag
/// state); recorded rows may cover a prefix of the declared variables —
/// extra states keep their init values, extra inputs evaluate as zero.
WitnessReplay replay_trace(const ts::TransitionSystem& ts, const WitnessTrace& trace);

/// Delta-debug `trace` in place (the caller must have verified it replays
/// green): drop state rows beyond row 0, then zero whole stimulus steps
/// (latest first), then individual values (earliest first), keeping each
/// reduction only while the replay still falsifies. Fixed order, no
/// randomness — byte-deterministic for a fixed trace. Marks the trace
/// shrunk and returns the effective stimulus length: the last step with
/// any non-zero input (0 when the violation needs no stimulus at all),
/// always <= length.
unsigned shrink_trace(const ts::TransitionSystem& ts, WitnessTrace* trace);

/// The verdict-journal form of a trace (docs/FORMATS.md): one JSON object
/// holding the shrunk/raw marker, the bad index and the stimulus as the
/// artifact's step rows — the step-0 state row only for a shrunk trace,
/// every state row for a raw one.
std::string render_stimulus(const WitnessTrace& trace);

/// Inverse of render_stimulus, strict, against `ts`'s declared widths:
/// every input row and every state row must cover the whole model. The
/// length is the step count minus one; the bad label is left empty (the
/// journal line carries it). False with a diagnostic in *error on any
/// deviation.
bool parse_stimulus(const ts::TransitionSystem& ts, const std::string& text,
                    WitnessTrace* out, std::string* error);

/// Render the standalone artifact for a checked + shrunk trace:
/// header line, embedded BTOR2 model line, one line per stimulus step,
/// and a trailing self-check digest over everything before it.
std::string render_witness_artifact(const ts::TransitionSystem& ts,
                                    const std::string& job_name,
                                    const JobProvenance& provenance,
                                    const WitnessTrace& trace, unsigned shrunk);

/// Parsed artifact header (line 1), returned by check_witness_text so
/// callers can cross-check it against the report row it claims to back.
struct WitnessHeader {
  std::string name;
  std::string family;
  std::string source;
  unsigned property = 0;
  std::string mode;
  unsigned length = 0;
  unsigned shrunk = 0;
  std::size_t bad_index = 0;
  std::string bad_label;
};

/// Re-validate an artifact from its bytes alone: self-check digest,
/// strict line grammar, embedded-model parse, full simulator replay, and
/// the recorded shrunk length recomputed from the stimulus. No SAT stack
/// is ever loaded. Returns false with a diagnostic in *error (never
/// null-checked away: tampering is always loud); on success *header
/// (optional) receives the parsed header.
bool check_witness_text(const std::string& text, WitnessHeader* header,
                        std::string* error);

/// Artifact file name for a job: the sanitized job name plus a short
/// digest of the exact name (collision guard for names that sanitize
/// identically), ending in ".witness".
std::string witness_artifact_filename(const std::string& job_name);

/// The artifact self-check: FNV-1a over `payload`, as 16 hex digits.
/// Exposed so tamper tests can re-seal a corrupted payload and prove the
/// *replay* (not just the digest) rejects it.
std::string witness_self_check(const std::string& payload);

/// The campaign post-pass for one job result. No-op unless
/// options.check is set and the verdict is FALSIFIED. Rebuilds the
/// model and takes the trace from the row: JobResult::trace when the job
/// was solved in-process, the journaled JobResult::stimulus (parsed
/// against the rebuilt model) when it was served from a verdict cache.
/// Replays it, shrinks it unless it is already shrunk, stamps
/// witness_checked / trace_length_shrunk, keeps the shrunk trace on
/// JobResult::trace (for the verdict journal) and, when
/// options.artifact_dir is set, writes the artifact (fault point
/// "witness.write"; a failed write degrades to a diagnostic, never a
/// changed verdict). No SAT solver runs. Any disagreement — rebuild
/// failure, no trace, a stimulus that does not parse, a divergent or
/// non-replaying trace — demotes the row to a diagnosed UNKNOWN with the
/// note "witness: replay mismatch". Deterministic for a fixed spec.
void witness_post_pass(const JobSpec& job, const WitnessOptions& options,
                       JobResult* result);

}  // namespace sepe::engine
