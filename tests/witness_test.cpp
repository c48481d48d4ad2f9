// Tests for the witness pipeline (engine/witness.hpp): independent
// simulator replay of FALSIFIED traces, deterministic delta-debug
// shrinking, standalone self-checked artifacts, the journaled stimulus
// form, the campaign/shard post-pass (including demotion of rows that do
// not replay and the replay of cached rows from their journaled
// stimulus), and the tamper battery — a corrupted artifact or a poisoned
// verdict cache must fail loudly, never pass silently.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/pinned_table.hpp"
#include "engine/report_io.hpp"
#include "engine/shard.hpp"
#include "engine/verdict_cache.hpp"
#include "engine/witness.hpp"
#include "engine/workload.hpp"
#include "proc/mutations.hpp"
#include "util/fault.hpp"

namespace sepe::engine {
namespace {

using smt::TermRef;

/// Unique scratch directory, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "sepe-witness-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) ADD_FAILURE() << "mkdtemp failed";
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// The engine_test counter: increments when the 1-bit input is set,
/// falsified at depth `target` when target <= max_bound. The minimal
/// counterexample needs inc=1 at steps 0..target-1 only, so the final
/// step's input is don't-care and shrinking always trims it:
/// trace_length_shrunk == target - 1 < trace_length == target.
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

JobBudget counter_budget() {
  JobBudget budget;
  budget.max_bound = 10;
  budget.max_k = 4;
  return budget;
}

/// Build the counter system in-place and find its length-5 witness.
WitnessTrace counter_trace(smt::TermManager& mgr, ts::TransitionSystem& ts) {
  std::string error;
  EXPECT_TRUE(counter_job("cnt5", 8, 5, counter_budget()).build(ts, &error)) << error;
  bmc::Bmc checker(ts);
  bmc::BmcOptions bo;
  bo.max_bound = 10;
  const std::optional<bmc::Witness> w = checker.check(bo);
  EXPECT_TRUE(w.has_value());
  EXPECT_EQ(w->length, 5u);
  return extract_trace(ts, *w);
}

/// Strip the artifact's self-check trailer, returning the sealed payload.
std::string strip_trailer(const std::string& text) {
  const std::size_t at = text.rfind("{\"check\":\"");
  EXPECT_NE(at, std::string::npos);
  return text.substr(0, at);
}

/// Re-seal a (tampered) payload with a fresh, *valid* digest — proves the
/// replay itself, not just the digest, rejects the corruption.
std::string reseal(const std::string& payload) {
  return payload + "{\"check\":\"" + witness_self_check(payload) + "\"}\n";
}

// --- replay + shrink on a hand-built system ---

TEST(WitnessReplayTest, ExtractedCounterTraceReplaysGreen) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const WitnessTrace trace = counter_trace(mgr, ts);
  ASSERT_EQ(trace.inputs.size(), 6u);
  ASSERT_EQ(trace.states.size(), 6u);
  const WitnessReplay replay = replay_trace(ts, trace);
  EXPECT_TRUE(replay.ok) << replay.error;
}

TEST(WitnessReplayTest, TamperedStimulusFailsLoudly) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const WitnessTrace good = counter_trace(mgr, ts);

  // Zeroing the first increment leaves cnt at 4 when the bad is checked.
  WitnessTrace flipped = good;
  flipped.states.resize(1);  // recorded rows would catch it even earlier
  flipped.inputs[0][0] = BitVec(1, 0);
  const WitnessReplay r1 = replay_trace(ts, flipped);
  EXPECT_FALSE(r1.ok);
  EXPECT_NE(r1.error.find("does not fire at the reported bound"), std::string::npos);

  // With the recorded state rows kept, the divergence is caught at the
  // first state row the corrupt stimulus fails to reproduce.
  WitnessTrace diverge = good;
  diverge.inputs[0][0] = BitVec(1, 0);
  const WitnessReplay r2 = replay_trace(ts, diverge);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("diverges from the recorded row"), std::string::npos);

  // A truncated trace contradicts its own claimed length.
  WitnessTrace truncated = good;
  truncated.inputs.pop_back();
  const WitnessReplay r3 = replay_trace(ts, truncated);
  EXPECT_FALSE(r3.ok);
  EXPECT_NE(r3.error.find("input rows"), std::string::npos);

  // A wrong bound never replays: the bad must fire exactly at `length`.
  WitnessTrace early = good;
  early.length = 4;
  early.inputs.resize(5);
  early.states.resize(1);
  const WitnessReplay r4 = replay_trace(ts, early);
  EXPECT_FALSE(r4.ok);

  // Bad index outside the model.
  WitnessTrace wild = good;
  wild.bad_index = 7;
  EXPECT_FALSE(replay_trace(ts, wild).ok);
}

TEST(WitnessShrinkTest, ShrinksDontCareTailDeterministically) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  WitnessTrace trace = counter_trace(mgr, ts);
  const unsigned shrunk = shrink_trace(ts, &trace);
  // The step-5 input is don't-care (the bad fires on the state alone), so
  // the effective stimulus is steps 0..4.
  EXPECT_EQ(shrunk, 4u);
  EXPECT_LT(shrunk, trace.length);
  EXPECT_EQ(trace.states.size(), 1u);  // only row 0 survives shrinking
  const WitnessReplay replay = replay_trace(ts, trace);
  EXPECT_TRUE(replay.ok) << replay.error;  // the shrunk trace still falsifies

  // Byte-determinism: shrinking the same extracted trace again lands on
  // the identical stimulus.
  smt::TermManager mgr2;
  ts::TransitionSystem ts2(mgr2);
  WitnessTrace again = counter_trace(mgr2, ts2);
  EXPECT_EQ(shrink_trace(ts2, &again), shrunk);
  EXPECT_EQ(again.inputs, trace.inputs);
}

// --- the standalone artifact ---

TEST(WitnessArtifactTest, RoundTripsThroughCheck) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  WitnessTrace trace = counter_trace(mgr, ts);
  const unsigned shrunk = shrink_trace(ts, &trace);
  const std::string text =
      render_witness_artifact(ts, "cnt5", JobProvenance{}, trace, shrunk);

  WitnessHeader header;
  std::string why;
  ASSERT_TRUE(check_witness_text(text, &header, &why)) << why;
  EXPECT_EQ(header.name, "cnt5");
  EXPECT_EQ(header.length, 5u);
  EXPECT_EQ(header.shrunk, 4u);
  EXPECT_EQ(header.bad_label, "cnt-target");
  EXPECT_EQ(header.mode, "EDDI-V");  // the default provenance dialect
}

TEST(WitnessArtifactTest, FilenameIsSanitizedAndCollisionGuarded) {
  const std::string a = witness_artifact_filename("add_carry_stuck/EDSEP-V");
  EXPECT_EQ(a.substr(0, 24), "add_carry_stuck_EDSEP-V-");
  EXPECT_EQ(a.substr(a.size() - 8), ".witness");
  // Names that sanitize identically still get distinct files.
  EXPECT_NE(a, witness_artifact_filename("add_carry_stuck_EDSEP-V"));
}

TEST(WitnessTamperTest, EveryCorruptionIsRejectedWithADiagnostic) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  WitnessTrace trace = counter_trace(mgr, ts);
  const unsigned shrunk = shrink_trace(ts, &trace);
  const std::string text =
      render_witness_artifact(ts, "cnt5", JobProvenance{}, trace, shrunk);
  ASSERT_TRUE(check_witness_text(text, nullptr, nullptr));
  const std::string payload = strip_trailer(text);
  std::string why;

  // Stale digest: flip one digit of the recorded self-check.
  std::string stale = text;
  stale[stale.size() - 4] = stale[stale.size() - 4] == '0' ? '1' : '0';
  EXPECT_FALSE(check_witness_text(stale, nullptr, &why));
  EXPECT_NE(why.find("self-check"), std::string::npos);

  // Truncation (dropping the final step line) breaks the digest too.
  std::string cut = payload;
  cut.resize(cut.rfind("{\"step\":5"));
  EXPECT_FALSE(check_witness_text(cut + text.substr(payload.size()), nullptr, &why));
  EXPECT_NE(why.find("self-check"), std::string::npos);

  // Re-sealed corruption — a valid digest over tampered bytes — must be
  // caught by the replay itself, not the checksum.
  std::string flipped = payload;
  const std::size_t in0 = flipped.find("\"in\":[\"0x1\"");
  ASSERT_NE(in0, std::string::npos);
  flipped[in0 + 9] = '0';  // first increment 0x1 -> 0x0
  EXPECT_FALSE(check_witness_text(reseal(flipped), nullptr, &why));
  EXPECT_NE(why.find("replay"), std::string::npos);

  // Re-sealed wrong bound: header length 4 with 6 step lines.
  std::string shortened = payload;
  const std::size_t len_at = shortened.find("\"length\":5");
  ASSERT_NE(len_at, std::string::npos);
  shortened[len_at + 9] = '4';
  EXPECT_FALSE(check_witness_text(reseal(shortened), nullptr, &why));
  EXPECT_NE(why.find("step count"), std::string::npos);

  // Re-sealed shrunk-length lie: metadata must agree with the stimulus.
  std::string lied = payload;
  const std::size_t shr_at = lied.find("\"shrunk\":4");
  ASSERT_NE(shr_at, std::string::npos);
  lied[shr_at + 9] = '2';
  EXPECT_FALSE(check_witness_text(reseal(lied), nullptr, &why));
  EXPECT_NE(why.find("shrunk"), std::string::npos);

  // Truncated step line, re-sealed: the strict line grammar refuses it.
  std::string torn = payload;
  const std::size_t step5 = torn.rfind("{\"step\":5");
  torn.resize(step5);
  torn += "{\"step\":5,\"in\":[\n";
  EXPECT_FALSE(check_witness_text(reseal(torn), nullptr, &why));
  EXPECT_NE(why.find("step"), std::string::npos);

  // Not an artifact at all.
  EXPECT_FALSE(check_witness_text("", nullptr, &why));
  EXPECT_FALSE(check_witness_text("{\"verdict\":\"FALSIFIED\"}\n", nullptr, &why));

  // Unsupported future version, re-sealed.
  std::string versioned = payload;
  const std::size_t v_at = versioned.find("{\"sepe_witness\":1");
  versioned[v_at + 16] = '9';
  EXPECT_FALSE(check_witness_text(reseal(versioned), nullptr, &why));
  EXPECT_NE(why.find("version"), std::string::npos);
}

// --- the journaled stimulus ---

// The round trip itself is pinned by verdict_cache_test (through the
// journal line); here, the parse is strict against the model's shape.
TEST(WitnessStimulusTest, ParseRejectsEveryShapeError) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  WitnessTrace shrunk = counter_trace(mgr, ts);
  shrink_trace(ts, &shrunk);
  const std::string text = render_stimulus(shrunk);
  EXPECT_EQ(text.find("{\"form\":\"shrunk\",\"bad\":0,\"steps\":["
                      "{\"step\":0,\"in\":[\"0x1\"],\"st\":[\"0x00\"]},"
                      "{\"step\":1,\"in\":[\"0x1\"]}"),
            0u);
  const auto rejected = [&](const std::string& bad) {
    WitnessTrace out;
    std::string why;
    return !parse_stimulus(ts, bad, &out, &why) && !why.empty();
  };
  const auto edit = [&](const std::string& from, const std::string& to) {
    std::string s = text;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? s : s.replace(at, from.size(), to);
  };
  const std::string one = "\"in\":[\"0x1\"]";
  EXPECT_TRUE(rejected(edit(one, "\"in\":[\"0x2\"]")));         // wider than 1 bit
  EXPECT_TRUE(rejected(edit(one, "\"in\":[\"0x1\",\"0x0\"]")));  // extra value
  EXPECT_TRUE(rejected(edit("\"st\":[\"0x00\"]", "\"st\":[\"0x0\"]")));  // 4-bit state
  EXPECT_TRUE(rejected(edit(",\"st\":[\"0x00\"]", "")));  // no step-0 state row
  EXPECT_TRUE(rejected(edit("\"shrunk\"", "\"raw\"")));   // raw needs every state row
  EXPECT_TRUE(rejected(edit("\"step\":1", "\"step\":2")));  // steps out of order
  EXPECT_TRUE(rejected(text + " "));
  EXPECT_TRUE(rejected(text.substr(0, text.size() - 1)));
  EXPECT_TRUE(rejected("{\"form\":\"shrunk\",\"bad\":0,\"steps\":[]}"));
}

// --- the campaign post-pass ---

TEST(WitnessPostPassTest, StampsChecksAndWritesArtifact) {
  const JobSpec job = counter_job("cnt5", 8, 5, counter_budget());
  JobResult result = run_job(job);
  ASSERT_EQ(result.verdict, Verdict::Falsified);
  ASSERT_TRUE(result.trace != nullptr);
  EXPECT_FALSE(result.witness_checked);

  TempDir dir;
  WitnessOptions options;
  options.artifact_dir = dir.path;
  witness_post_pass(job, options, &result);
  EXPECT_EQ(result.verdict, Verdict::Falsified);
  EXPECT_TRUE(result.witness_checked);
  EXPECT_EQ(result.trace_length_shrunk, 4u);
  // The shrunk trace stays on the row for the verdict journal.
  ASSERT_TRUE(result.trace != nullptr);
  EXPECT_TRUE(result.trace->shrunk);
  EXPECT_EQ(result.trace->states.size(), 1u);

  const auto text =
      read_text_file(dir.path + "/" + witness_artifact_filename("cnt5"));
  ASSERT_TRUE(text.has_value());
  WitnessHeader header;
  std::string why;
  EXPECT_TRUE(check_witness_text(*text, &header, &why)) << why;
  EXPECT_EQ(header.name, "cnt5");
  EXPECT_EQ(header.shrunk, 4u);
}

TEST(WitnessPostPassTest, OptOutAndNonFalsifiedRowsAreUntouched) {
  const JobSpec job = counter_job("cnt5", 8, 5, counter_budget());
  JobResult result = run_job(job);
  WitnessOptions off;
  off.check = false;
  witness_post_pass(job, off, &result);
  EXPECT_FALSE(result.witness_checked);
  EXPECT_EQ(result.verdict, Verdict::Falsified);

  const JobSpec clean = counter_job("clean-40", 8, 40, counter_budget());
  JobResult cr = run_job(clean);
  ASSERT_EQ(cr.verdict, Verdict::BoundClean);
  witness_post_pass(clean, WitnessOptions{}, &cr);
  EXPECT_EQ(cr.verdict, Verdict::BoundClean);
  EXPECT_FALSE(cr.witness_checked);
}

TEST(WitnessPostPassTest, RowThatCannotReplayIsDemotedToDiagnosedUnknown) {
  const JobSpec job = counter_job("cnt5", 8, 5, counter_budget());

  // A row claiming a wrong bound: its own length-5 trace refuses the
  // claim.
  JobResult wrong_bound = run_job(job);
  wrong_bound.trace_length = 3;
  witness_post_pass(job, WitnessOptions{}, &wrong_bound);
  EXPECT_EQ(wrong_bound.verdict, Verdict::Unknown);
  EXPECT_EQ(wrong_bound.note, "witness: replay mismatch");
  EXPECT_FALSE(wrong_bound.witness_checked);
  EXPECT_TRUE(wrong_bound.witness.empty());

  // A row whose bad label disagrees with the trace it carries.
  JobResult wrong_label = run_job(job);
  wrong_label.bad_label = "some-other-property";
  witness_post_pass(job, WitnessOptions{}, &wrong_label);
  EXPECT_EQ(wrong_label.verdict, Verdict::Unknown);
  EXPECT_EQ(wrong_label.note, "witness: replay mismatch");
}

/// What a verdict-cache hit looks like: the journaled verdict fields and
/// stimulus, no in-memory trace.
JobResult cached_row(const JobResult& cold, std::string stimulus) {
  JobResult row;
  row.name = cold.name;
  row.verdict = cold.verdict;
  row.trace_length = cold.trace_length;
  row.bad_label = cold.bad_label;
  row.stimulus = std::move(stimulus);
  row.from_cache = true;
  return row;
}

TEST(WitnessPostPassTest, CachedRowReplaysItsJournaledTraceWithoutReshrinking) {
  const JobSpec job = counter_job("cnt5", 8, 5, counter_budget());
  JobResult cold = run_job(job);
  const WitnessTrace raw = *cold.trace;
  witness_post_pass(job, WitnessOptions{}, &cold);
  ASSERT_TRUE(cold.witness_checked);
  const std::string shrunk = render_stimulus(*cold.trace);

  // A journaled shrunk trace is replayed, not shrunk again: the row
  // keeps its bytes and the cold run's shrunk length.
  JobResult warm = cached_row(cold, shrunk);
  witness_post_pass(job, WitnessOptions{}, &warm);
  EXPECT_EQ(warm.verdict, Verdict::Falsified);
  EXPECT_TRUE(warm.witness_checked);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.trace_length_shrunk, 4u);
  ASSERT_TRUE(warm.trace != nullptr);
  EXPECT_EQ(render_stimulus(*warm.trace), shrunk);
  EXPECT_TRUE(warm.stimulus.empty());

  // Proof that "shrunk" is trusted as a marker, not re-established: a
  // replaying trace marked shrunk whose don't-care last step is still
  // set keeps that step (a re-shrink would clear it to length 4).
  WitnessTrace loose = raw;
  loose.states.resize(1);
  loose.inputs[5][0] = BitVec(1, 1);
  loose.shrunk = true;
  JobResult marked = cached_row(cold, render_stimulus(loose));
  witness_post_pass(job, WitnessOptions{}, &marked);
  EXPECT_TRUE(marked.witness_checked);
  EXPECT_EQ(marked.trace_length_shrunk, 5u);
  EXPECT_EQ(render_stimulus(*marked.trace), render_stimulus(loose));

  // A journaled raw trace (written with the check off) is shrunk here,
  // landing on the cold run's shrunk trace.
  JobResult from_raw = cached_row(cold, render_stimulus(raw));
  witness_post_pass(job, WitnessOptions{}, &from_raw);
  EXPECT_TRUE(from_raw.witness_checked);
  EXPECT_EQ(from_raw.trace_length_shrunk, 4u);
  EXPECT_EQ(render_stimulus(*from_raw.trace), shrunk);
}

TEST(WitnessPostPassTest, TracelessFalsifiedRowIsDemoted) {
  // Nothing re-solves a FALSIFIED row that carries no trace: with nothing
  // to replay it is hearsay, and the check demotes it.
  const JobSpec job = counter_job("cnt5", 8, 5, counter_budget());
  JobResult row = cached_row(run_job(job), "");
  witness_post_pass(job, WitnessOptions{}, &row);
  EXPECT_EQ(row.verdict, Verdict::Unknown);
  EXPECT_EQ(row.note, "witness: replay mismatch");
  EXPECT_FALSE(row.witness_checked);

  // So is one whose journaled stimulus does not parse against the model.
  JobResult garbled = cached_row(run_job(job), "{\"form\":\"shrunk\",\"bad\":0}");
  witness_post_pass(job, WitnessOptions{}, &garbled);
  EXPECT_EQ(garbled.verdict, Verdict::Unknown);
  EXPECT_EQ(garbled.note, "witness: replay mismatch");
}

TEST(WitnessPostPassTest, ArtifactWriteFaultDegradesToDiagnosticOnly) {
  const JobSpec job = counter_job("cnt5", 8, 5, counter_budget());
  JobResult result = run_job(job);
  TempDir dir;
  WitnessOptions options;
  options.artifact_dir = dir.path;
  ASSERT_TRUE(fault::configure("point=witness.write:enospc"));
  witness_post_pass(job, options, &result);
  fault::configure("");
  // The write failed, the checked verdict did not.
  EXPECT_EQ(result.verdict, Verdict::Falsified);
  EXPECT_TRUE(result.witness_checked);
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/" +
                                       witness_artifact_filename("cnt5")));
  // A torn write must not leave a half-artifact behind either (the write
  // is atomic: temp file + rename).
  ASSERT_TRUE(fault::configure("point=witness.write:torn"));
  witness_post_pass(job, options, &result);
  fault::configure("");
  const std::string path = dir.path + "/" + witness_artifact_filename("cnt5");
  if (std::filesystem::exists(path)) {
    const auto text = read_text_file(path);
    ASSERT_TRUE(text.has_value());
    EXPECT_FALSE(check_witness_text(*text, nullptr, nullptr));
  }
}

// --- campaign integration ---

CampaignSpec mixed_spec() {
  const JobBudget budget = counter_budget();
  CampaignSpec spec;
  spec.seed = 42;
  for (unsigned t = 4; t <= 6; ++t)
    spec.jobs.push_back(counter_job("cnt-" + std::to_string(t), 8, t, budget));
  spec.jobs.push_back(counter_job("clean-40", 8, 40, budget));
  return spec;
}

TEST(WitnessCampaignTest, PostPassIsOnByDefaultAndObservationallyInvisible) {
  const CampaignSpec spec = mixed_spec();
  CampaignOptions on;
  on.threads = 2;
  CampaignOptions off = on;
  off.witness.check = false;
  const CampaignReport checked = run_campaign(spec, on);
  const CampaignReport unchecked = run_campaign(spec, off);
  for (const JobResult& r : checked.jobs) {
    if (r.verdict == Verdict::Falsified) {
      EXPECT_TRUE(r.witness_checked) << r.name;
      EXPECT_EQ(r.trace_length_shrunk + 1, r.trace_length) << r.name;
    } else {
      EXPECT_FALSE(r.witness_checked) << r.name;
    }
  }
  for (const JobResult& r : unchecked.jobs) EXPECT_FALSE(r.witness_checked);
  // The stable JSON never learns whether the post-pass ran...
  EXPECT_EQ(checked.to_json(/*include_timing=*/false),
            unchecked.to_json(/*include_timing=*/false));
  // ...while the timing form carries the new columns.
  const std::string timing = checked.to_json(/*include_timing=*/true);
  EXPECT_NE(timing.find("\"witness_checked\": true"), std::string::npos);
  EXPECT_NE(timing.find("\"trace_length_shrunk\": "), std::string::npos);
}

TEST(WitnessCampaignTest, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = mixed_spec();
  TempDir seq_dir, par_dir;
  CampaignOptions seq;
  seq.threads = 1;
  seq.witness.artifact_dir = seq_dir.path;
  CampaignOptions par;
  par.threads = 4;
  par.witness.artifact_dir = par_dir.path;
  const CampaignReport a = run_campaign(spec, seq);
  const CampaignReport b = run_campaign(spec, par);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  unsigned artifacts = 0;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].witness_checked, b.jobs[i].witness_checked);
    EXPECT_EQ(a.jobs[i].trace_length_shrunk, b.jobs[i].trace_length_shrunk);
    if (a.jobs[i].verdict != Verdict::Falsified) continue;
    const std::string file = witness_artifact_filename(a.jobs[i].name);
    const auto sa = read_text_file(seq_dir.path + "/" + file);
    const auto pa = read_text_file(par_dir.path + "/" + file);
    ASSERT_TRUE(sa.has_value() && pa.has_value()) << a.jobs[i].name;
    EXPECT_EQ(*sa, *pa) << a.jobs[i].name;
    ++artifacts;
  }
  EXPECT_EQ(artifacts, 3u);
}

TEST(WitnessCampaignTest, WarmCacheRunRechecksAndMatchesColdArtifacts) {
  const CampaignSpec spec = mixed_spec();
  TempDir cache_dir, cold_dir, warm_dir;
  ShardRunOptions options;
  options.pool.threads = 2;
  options.cache_dir = cache_dir.path;
  std::string error;

  options.pool.witness.artifact_dir = cold_dir.path;
  const CampaignReport cold = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  options.pool.witness.artifact_dir = warm_dir.path;
  const CampaignReport warm = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;

  ASSERT_EQ(cold.jobs.size(), warm.jobs.size());
  for (std::size_t i = 0; i < cold.jobs.size(); ++i) {
    EXPECT_FALSE(cold.jobs[i].from_cache);
    EXPECT_TRUE(warm.jobs[i].from_cache) << warm.jobs[i].name;
    EXPECT_EQ(cold.jobs[i].verdict, warm.jobs[i].verdict);
    // Cached FALSIFIED rows are hearsay until they reproduce: the warm
    // run replays their journaled traces, landing on identical fields...
    EXPECT_EQ(cold.jobs[i].witness_checked, warm.jobs[i].witness_checked);
    EXPECT_EQ(cold.jobs[i].trace_length_shrunk, warm.jobs[i].trace_length_shrunk);
    if (cold.jobs[i].verdict != Verdict::Falsified) continue;
    // ...and byte-identical artifacts.
    const std::string file = witness_artifact_filename(cold.jobs[i].name);
    const auto ca = read_text_file(cold_dir.path + "/" + file);
    const auto wa = read_text_file(warm_dir.path + "/" + file);
    ASSERT_TRUE(ca.has_value() && wa.has_value()) << cold.jobs[i].name;
    EXPECT_EQ(*ca, *wa) << cold.jobs[i].name;
  }
  EXPECT_EQ(cold.to_json(false), warm.to_json(false));
}

TEST(WitnessCampaignTest, PoisonedVerdictCacheIsDemotedNotTrusted) {
  // Two journal lines that lie behind valid line digests, so only the
  // replay can expose them: a forged FALSIFIED claim for the unreachable
  // counter, with a stimulus of the right shape that never fires the
  // bad, and an honest line re-sealed after one stimulus value flipped.
  CampaignSpec spec;
  spec.jobs.push_back(counter_job("clean-40", 8, 40, counter_budget()));
  spec.jobs.push_back(counter_job("cnt-5", 8, 5, counter_budget()));
  TempDir cache_dir;
  ShardRunOptions options;
  options.cache_dir = cache_dir.path;
  std::string error;
  const CampaignReport cold = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(cold.jobs[1].verdict, Verdict::Falsified);

  WitnessTrace zeros;
  zeros.length = 5;
  zeros.inputs.assign(6, {BitVec(1, 0)});
  zeros.states = {{BitVec(8, 0)}};
  zeros.shrunk = true;
  VerdictCache::Entry lie;
  lie.verdict = Verdict::Falsified;
  lie.trace_length = 5;
  lie.bad_label = "cnt-target";
  lie.stimulus = render_stimulus(zeros);

  const std::string journal = VerdictCache::journal_path(cache_dir.path);
  const auto text = read_text_file(journal);
  ASSERT_TRUE(text.has_value());
  std::string forged;
  for (std::size_t at = 0; at < text->size();) {
    const std::size_t nl = text->find('\n', at);
    const auto parsed = VerdictCache::parse_line(text->substr(at, nl - at));
    at = nl + 1;
    ASSERT_TRUE(parsed.has_value());
    VerdictCache::Entry entry = parsed->second;
    if (parsed->first == VerdictCache::key_of(spec.jobs[0], "")) {
      entry = lie;
    } else {
      const std::size_t one = entry.stimulus.find("\"in\":[\"0x1\"]");
      ASSERT_NE(one, std::string::npos);
      entry.stimulus[one + 9] = '0';  // the first increment 0x1 -> 0x0
    }
    forged += VerdictCache::format_line(parsed->first, entry) + "\n";
  }
  ASSERT_TRUE(write_text_file_atomic(journal, forged));

  const CampaignReport report = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(report.jobs.size(), 2u);
  for (const JobResult& r : report.jobs) {
    EXPECT_TRUE(r.from_cache) << r.name;
    EXPECT_EQ(r.verdict, Verdict::Unknown) << r.name;
    EXPECT_EQ(r.note, "witness: replay mismatch") << r.name;
  }

  // Opting out (--no-witness-check) is exactly the exposure the default
  // closes: the forged verdicts sail through.
  options.pool.witness.check = false;
  const CampaignReport trusting = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  for (const JobResult& r : trusting.jobs) EXPECT_EQ(r.verdict, Verdict::Falsified);
}

// --- the pinned Table-1 grid and the BTOR2 corpus ---

TEST(WitnessGridTest, EveryFalsifiedTable1RowYieldsAValidArtifact) {
  const auto pinned = make_pinned_table(4);
  auto bugs = proc::table1_single_instruction_bugs();
  bugs.resize(8);  // the CI grid rows (sepe-run --bugs table1 --rows 8)
  CampaignMatrix matrix;
  matrix.xlen = 4;
  matrix.modes = {qed::QedMode::EddiV, qed::QedMode::EdsepV};
  matrix.mutations = bugs;
  matrix.equivalences = &pinned->table;
  matrix.budget.max_bound = 6;
  matrix.budget.max_k = 2;
  CampaignSpec spec = expand(matrix, 1);
  // EDDI-V misses single-instruction bugs (uniform corruption): its rows
  // are clean sweeps whatever the bound, so keep them unit-test shallow.
  for (JobSpec& job : spec.jobs)
    if (job.name.find("EDDI-V") != std::string::npos) job.budget.max_bound = 3;

  TempDir dir;
  CampaignOptions options;
  options.threads = 4;
  options.witness.artifact_dir = dir.path;
  const CampaignReport report = run_campaign(spec, options);
  ASSERT_EQ(report.jobs.size(), bugs.size() * 2);
  unsigned falsified = 0;
  for (const JobResult& r : report.jobs) {
    if (r.verdict != Verdict::Falsified) continue;
    ++falsified;
    EXPECT_TRUE(r.witness_checked) << r.name;
    EXPECT_LE(r.trace_length_shrunk, r.trace_length) << r.name;
    const auto text =
        read_text_file(dir.path + "/" + witness_artifact_filename(r.name));
    ASSERT_TRUE(text.has_value()) << r.name;
    WitnessHeader header;
    std::string why;
    ASSERT_TRUE(check_witness_text(*text, &header, &why)) << r.name << ": " << why;
    EXPECT_EQ(header.name, r.name);
    EXPECT_EQ(header.length, r.trace_length) << r.name;
    EXPECT_EQ(header.shrunk, r.trace_length_shrunk) << r.name;
    EXPECT_EQ(header.mode, "EDSEP-V") << r.name;  // EDDI-V never falsifies here
  }
  // EDSEP-V catches every injected bug within the pinned bound.
  EXPECT_EQ(falsified, bugs.size());
}

TEST(WitnessCorpusTest, FalsifiedCorpusJobsRoundTripThroughArtifacts) {
  // Two corpus files (the committed mini-corpus counters): witnesses here
  // exercise the round-tripped-model path — the job's system comes from
  // parse_btor2, and the artifact embeds its to_btor2 re-dump (with the
  // writer's at-init guard flag), which check-witness re-parses.
  TempDir corpus;
  std::ofstream(corpus.path + "/counter.btor2")
      << "1 sort bitvec 4\n2 sort bitvec 1\n10 state 1 cnt\n11 constd 1 0\n"
         "12 init 1 10 11\n13 input 2 step\n14 constd 1 1\n15 add 1 10 14\n"
         "16 ite 1 13 15 10\n17 next 1 10 16\n18 constd 1 5\n19 eq 2 10 18\n"
         "20 bad 19 ; cnt-reaches-five\n";
  std::ofstream(corpus.path + "/multi.btor2")
      << "1 sort bitvec 4\n2 sort bitvec 1\n10 state 1 cnt\n11 constd 1 0\n"
         "12 init 1 10 11\n13 constd 1 1\n14 add 1 10 13\n15 next 1 10 14\n"
         "16 constd 1 3\n17 eq 2 10 16\n18 bad 17 ; cnt-reaches-three\n"
         "20 state 2 frozen\n21 zero 2\n22 init 2 20 21\n23 next 2 20 20\n"
         "24 one 2\n25 eq 2 20 24\n26 bad 25 ; frozen-flips\n";

  JobBudget budget;
  budget.max_bound = 6;
  budget.max_k = 2;
  std::string error;
  const auto spec =
      expand_source(Btor2CorpusSource(corpus.path, budget), 1, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->jobs.size(), 3u);  // counter + multi:b0 + multi:b1

  TempDir dir;
  CampaignOptions options;
  options.threads = 2;
  options.witness.artifact_dir = dir.path;
  const CampaignReport report = run_campaign(*spec, options);
  unsigned falsified = 0;
  for (const JobResult& r : report.jobs) {
    if (r.verdict != Verdict::Falsified) continue;
    ++falsified;
    EXPECT_TRUE(r.witness_checked) << r.name;
    const auto text =
        read_text_file(dir.path + "/" + witness_artifact_filename(r.name));
    ASSERT_TRUE(text.has_value()) << r.name;
    WitnessHeader header;
    std::string why;
    ASSERT_TRUE(check_witness_text(*text, &header, &why)) << r.name << ": " << why;
    EXPECT_EQ(header.name, r.name);
    EXPECT_EQ(header.family, kBtor2Family);
    EXPECT_EQ(header.length, r.trace_length);
  }
  EXPECT_EQ(falsified, 2u);  // counter at 5, multi:b0 at 3; multi:b1 proved
}

// --- report round-trip of the new columns ---

TEST(WitnessReportTest, TimingJsonRoundTripsCheckedAndShrunk) {
  const CampaignSpec spec = mixed_spec();
  CampaignOptions options;
  options.threads = 2;
  const CampaignReport report = run_campaign(spec, options);
  const std::string json = report.to_json(/*include_timing=*/true);
  std::string error;
  CampaignReport back;
  ASSERT_TRUE(parse_report(json, &back, &error)) << error;
  ASSERT_EQ(back.jobs.size(), report.jobs.size());
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    EXPECT_EQ(back.jobs[i].witness_checked, report.jobs[i].witness_checked);
    EXPECT_EQ(back.jobs[i].trace_length_shrunk, report.jobs[i].trace_length_shrunk);
  }
}

}  // namespace
}  // namespace sepe::engine
