// Tests for the persistent verdict cache: journal lines round-trip and
// self-validate (truncation or hand-editing is detected and degrades to
// a miss, never a wrong verdict; a torn line costs only its own entry),
// FALSIFIED lines carry their stimulus,
// keys separate every budget/provenance knob while unifying resolved
// encodings, wall-capped jobs are refused, and a warm run_sharded serves
// every cacheable job from the journal with byte-identical stable JSON,
// replaying cached counterexamples without starting a solver.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/report_io.hpp"
#include "engine/shard.hpp"
#include "engine/verdict_cache.hpp"
#include "engine/witness.hpp"
#include "util/fault.hpp"
#include "util/stopwatch.hpp"

namespace sepe::engine {
namespace {

using smt::TermRef;

VerdictCache::Entry falsified_entry() {
  VerdictCache::Entry e;
  e.verdict = Verdict::Falsified;
  e.trace_length = 6;
  e.bad_label = "qed-inconsistent/EDSEP-V (SEPE-SQED)";
  // The cache journals the stimulus verbatim; its grammar is the witness
  // layer's (render_stimulus), a shrunk 7-step stimulus here.
  e.stimulus = "{\"form\":\"shrunk\",\"bad\":0,\"steps\":[";
  for (unsigned t = 0; t <= e.trace_length; ++t)
    e.stimulus += (t ? ",{\"step\":" : "{\"step\":") + std::to_string(t) +
                  ",\"in\":[\"0x1\",\"0xa\"]" + (t ? "}" : ",\"st\":[\"0x0\"]}");
  e.stimulus += "]}";
  return e;
}

/// The counter system the tests below build: `cnt` increments while
/// input `inc` is set, and the bad fires at cnt == target.
void build_counter(ts::TransitionSystem& ts, unsigned width, std::uint64_t target) {
  smt::TermManager& mgr = ts.mgr();
  const TermRef cnt = ts.add_state("cnt", width);
  const TermRef inc = ts.add_input("inc", 1);
  ts.set_init(cnt, mgr.mk_const(width, 0));
  ts.set_next(cnt, mgr.mk_ite(inc, mgr.mk_add(cnt, mgr.mk_const(width, 1)), cnt));
  ts.add_bad(mgr.mk_eq(cnt, mgr.mk_const(width, target)), "cnt-target");
}

TEST(VerdictCacheFormat, LineRoundTripsIncludingEscapes) {
  VerdictCache::Entry e;
  e.verdict = Verdict::Unknown;
  e.trace_length = 3;
  e.proved_k = 7;
  // Adversarial payload: quotes, backslashes, newline, a control byte,
  // and a literal `,"check":"..."` decoy that the parser's rfind must
  // not mistake for the real trailing self-check field.
  e.bad_label = "label \"quoted\"\\with\nnewline\ttab\x01!";
  e.note = "decoy,\"check\":\"0123456789abcdef\" end";

  const std::string line = VerdictCache::format_line("00ff00ff00ff00ff", e);
  const auto parsed = VerdictCache::parse_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, "00ff00ff00ff00ff");
  EXPECT_EQ(parsed->second.verdict, e.verdict);
  EXPECT_EQ(parsed->second.trace_length, e.trace_length);
  EXPECT_EQ(parsed->second.proved_k, e.proved_k);
  EXPECT_EQ(parsed->second.bad_label, e.bad_label);
  EXPECT_EQ(parsed->second.note, e.note);
}

TEST(VerdictCacheFormat, DetectsTruncationAndTampering) {
  const std::string line = VerdictCache::format_line("0123456789abcdef",
                                                     falsified_entry());
  ASSERT_TRUE(VerdictCache::parse_line(line).has_value());
  ASSERT_NE(line.find(",\"stimulus\":{\"form\":"), std::string::npos);

  // Truncation at every byte boundary must be rejected, never misread.
  for (std::size_t keep = 0; keep < line.size(); ++keep)
    ASSERT_FALSE(VerdictCache::parse_line(line.substr(0, keep)).has_value())
        << "truncated to " << keep << " bytes";

  // Hand-editing the verdict while keeping the stale self-check.
  std::string edited = line;
  const std::size_t at = edited.find("FALSIFIED");
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, 9, "PROVED\"\"\"");  // same length, digest now stale
  EXPECT_FALSE(VerdictCache::parse_line(edited).has_value());

  // Flipping one digit of the self-check itself.
  std::string flipped = line;
  flipped[flipped.size() - 3] = flipped[flipped.size() - 3] == '0' ? '1' : '0';
  EXPECT_FALSE(VerdictCache::parse_line(flipped).has_value());

  EXPECT_FALSE(VerdictCache::parse_line("").has_value());
  EXPECT_FALSE(VerdictCache::parse_line(line + "x").has_value());
}

TEST(VerdictCacheFormat, ShrunkAndRawStimuliRoundTrip) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  build_counter(ts, 8, 5);
  bmc::Bmc checker(ts);
  bmc::BmcOptions bo;
  bo.max_bound = 8;
  const std::optional<bmc::Witness> found = checker.check(bo);
  ASSERT_TRUE(found.has_value());
  const WitnessTrace raw = extract_trace(ts, *found);
  WitnessTrace shrunk = raw;
  shrink_trace(ts, &shrunk);

  const WitnessTrace* const traces[] = {&raw, &shrunk};
  for (const WitnessTrace* trace : traces) {
    VerdictCache::Entry e;
    e.verdict = Verdict::Falsified;
    e.trace_length = trace->length;
    e.bad_label = trace->bad_label;
    e.stimulus = render_stimulus(*trace);
    const std::string line = VerdictCache::format_line("00ff00ff00ff00ff", e);
    EXPECT_NE(line.find(trace->shrunk ? "\"form\":\"shrunk\"" : "\"form\":\"raw\""),
              std::string::npos);
    const auto parsed = VerdictCache::parse_line(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->second.stimulus, e.stimulus);
    EXPECT_TRUE(parsed->second.servable());
    // The stimulus comes back against the model's widths, marker and all.
    WitnessTrace back;
    std::string why;
    ASSERT_TRUE(parse_stimulus(ts, parsed->second.stimulus, &back, &why)) << why;
    EXPECT_EQ(back.shrunk, trace->shrunk);
    EXPECT_EQ(back.length, trace->length);
    EXPECT_EQ(back.bad_index, trace->bad_index);
    EXPECT_EQ(back.inputs, trace->inputs);
    EXPECT_EQ(back.states, trace->states);
  }
}

TEST(VerdictCacheFormat, OnlyFalsifiedLinesCarryAStimulus) {
  // A digest-valid FALSIFIED line without a stimulus loads but is not
  // servable: run_sharded re-solves its job (see
  // FalsifiedLineWithoutStimulusIsAMissAndReSolved).
  VerdictCache::Entry bare = falsified_entry();
  bare.stimulus.clear();
  const std::string bare_line = VerdictCache::format_line("0123456789abcdef", bare);
  EXPECT_EQ(bare_line.find("stimulus"), std::string::npos);
  const auto parsed = VerdictCache::parse_line(bare_line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->second.servable());

  // Any other verdict with a stimulus is corrupt.
  VerdictCache::Entry proved = falsified_entry();
  proved.verdict = Verdict::Proved;
  EXPECT_FALSE(
      VerdictCache::parse_line(VerdictCache::format_line("0123456789abcdef", proved))
          .has_value());
}

JobSpec sample_job() {
  JobSpec job;
  job.name = "job-a";
  job.provenance.family = kBtor2Family;
  job.provenance.source = "dir/file.btor2";
  job.provenance.property = 1;
  job.provenance.content_digest = "cafe";
  job.provenance.mode.clear();
  job.budget.max_bound = 8;
  job.budget.max_k = 3;
  return job;
}

TEST(VerdictCacheFormat, KeySeparatesEveryVerdictDeterminant) {
  const JobSpec base = sample_job();
  const std::string k0 = VerdictCache::key_of(base, "fp");
  EXPECT_EQ(k0.size(), 16u);
  EXPECT_EQ(k0, VerdictCache::key_of(base, "fp"));  // stable

  const auto differs = [&](auto&& mutate) {
    JobSpec j = sample_job();
    mutate(j);
    return VerdictCache::key_of(j, "fp") != k0;
  };
  EXPECT_TRUE(differs([](JobSpec& j) { j.name = "job-b"; }));
  EXPECT_TRUE(differs([](JobSpec& j) { j.provenance.source = "other.btor2"; }));
  EXPECT_TRUE(differs([](JobSpec& j) { j.provenance.property = 2; }));
  EXPECT_TRUE(differs([](JobSpec& j) { j.provenance.content_digest = "beef"; }));
  EXPECT_TRUE(differs([](JobSpec& j) { j.budget.max_bound = 9; }));
  EXPECT_TRUE(differs([](JobSpec& j) { j.budget.max_k = 4; }));
  EXPECT_TRUE(differs([](JobSpec& j) { j.budget.conflict_budget = 100; }));
  EXPECT_TRUE(differs([](JobSpec& j) { j.budget.plaisted_greenbaum = true; }));
  EXPECT_NE(VerdictCache::key_of(base, "other-fp"), k0);

  // The encoding tri-state is RESOLVED into the key: an unset encoding
  // and an explicit request for the default blast identically, so they
  // share verdicts.
  JobSpec explicit_default = sample_job();
  explicit_default.budget.plaisted_greenbaum = false;
  EXPECT_EQ(VerdictCache::key_of(explicit_default, "fp"), k0);
}

TEST(VerdictCacheFormat, WallCappedJobsAreNotCacheable) {
  JobSpec job = sample_job();
  EXPECT_TRUE(VerdictCache::cacheable(job));
  job.budget.max_seconds = 0.5;
  EXPECT_FALSE(VerdictCache::cacheable(job));
}

class VerdictCacheStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "verdict_cache_test";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(VerdictCacheStoreTest, AppendPersistsAcrossReopen) {
  std::string error;
  auto cache = VerdictCache::open(dir_, &error);
  ASSERT_TRUE(cache) << error;
  EXPECT_FALSE(cache->lookup("aaaaaaaaaaaaaaaa").has_value());
  cache->append("aaaaaaaaaaaaaaaa", falsified_entry());
  const auto hit = cache->lookup("aaaaaaaaaaaaaaaa");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, Verdict::Falsified);
  EXPECT_EQ(hit->trace_length, 6u);

  auto reopened = VerdictCache::open(dir_, &error);
  ASSERT_TRUE(reopened) << error;
  EXPECT_EQ(reopened->stats().entries_loaded, 1u);
  ASSERT_TRUE(reopened->lookup("aaaaaaaaaaaaaaaa").has_value());
  EXPECT_EQ(reopened->lookup("aaaaaaaaaaaaaaaa")->bad_label,
            falsified_entry().bad_label);
}

TEST_F(VerdictCacheStoreTest, CorruptJournalLinesDegradeToMisses) {
  {
    std::string error;
    auto cache = VerdictCache::open(dir_, &error);
    ASSERT_TRUE(cache) << error;
    cache->append("aaaaaaaaaaaaaaaa", falsified_entry());
    VerdictCache::Entry proved;
    proved.verdict = Verdict::Proved;
    proved.proved_k = 2;
    cache->append("bbbbbbbbbbbbbbbb", proved);
  }
  // Truncate the second line mid-entry and tack on a hand-forged one.
  const std::string path = VerdictCache::journal_path(dir_);
  std::string text = *read_text_file(path);
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t nl = text.find('\n', at);
    lines.push_back(text.substr(at, nl - at));
    at = nl + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << lines[0] << "\n"
      << lines[1].substr(0, lines[1].size() / 2) << "\n"
      << "{\"v\":1,\"key\":\"cccccccccccccccc\",\"verdict\":\"PROVED\","
         "\"check\":\"0000000000000000\"}\n";
  out.close();

  std::string error;
  auto cache = VerdictCache::open(dir_, &error);
  ASSERT_TRUE(cache) << error;
  EXPECT_EQ(cache->stats().entries_loaded, 1u);
  EXPECT_EQ(cache->stats().corrupt_lines, 2u);
  EXPECT_TRUE(cache->lookup("aaaaaaaaaaaaaaaa").has_value());   // intact
  EXPECT_FALSE(cache->lookup("bbbbbbbbbbbbbbbb").has_value());  // truncated
  EXPECT_FALSE(cache->lookup("cccccccccccccccc").has_value());  // forged
}

TEST_F(VerdictCacheStoreTest, AppendAfterATornLineStartsAFreshLine) {
  // A writer that crashed mid-append left half an entry and no newline.
  std::filesystem::create_directories(dir_);
  const std::string torn =
      VerdictCache::format_line("aaaaaaaaaaaaaaaa", falsified_entry());
  std::ofstream(VerdictCache::journal_path(dir_), std::ios::binary)
      << torn.substr(0, torn.size() / 2);

  std::string error;
  {
    auto cache = VerdictCache::open(dir_, &error);
    ASSERT_TRUE(cache) << error;
    VerdictCache::Entry proved;
    proved.verdict = Verdict::Proved;
    proved.proved_k = 2;
    cache->append("bbbbbbbbbbbbbbbb", proved);
  }
  // The fragment costs only its own entry: the next one lands intact.
  auto reopened = VerdictCache::open(dir_, &error);
  ASSERT_TRUE(reopened) << error;
  EXPECT_EQ(reopened->stats().entries_loaded, 1u);
  EXPECT_EQ(reopened->stats().corrupt_lines, 1u);
  EXPECT_TRUE(reopened->lookup("bbbbbbbbbbbbbbbb").has_value());
}

// --- run_sharded integration ---

std::atomic<unsigned> g_builds{0};

/// Counter that increments by an input-controlled step: falsified at
/// depth `target` when target <= max_bound, bound-clean otherwise.
JobSpec counter_job(const std::string& name, unsigned width, std::uint64_t target,
                    const JobBudget& budget) {
  JobSpec job;
  job.name = name;
  job.budget = budget;
  job.build = [width, target](ts::TransitionSystem& ts, std::string*) {
    g_builds.fetch_add(1);
    build_counter(ts, width, target);
    return true;
  };
  return job;
}

CampaignSpec cached_spec() {
  JobBudget budget;
  budget.max_bound = 6;
  budget.max_k = 2;
  CampaignSpec spec;
  spec.seed = 7;
  spec.jobs.push_back(counter_job("hit-3", 6, 3, budget));
  spec.jobs.push_back(counter_job("hit-5", 7, 5, budget));
  spec.jobs.push_back(counter_job("clean-40", 6, 40, budget));
  // A deterministic UNKNOWN row: the build diagnostic is a verdict-
  // bearing field and must be served from the cache verbatim.
  JobSpec broken;
  broken.name = "broken";
  broken.budget = budget;
  broken.build = [](ts::TransitionSystem&, std::string* error) {
    g_builds.fetch_add(1);
    *error = "synthetic build failure";
    return false;
  };
  spec.jobs.push_back(broken);
  return spec;
}

class VerdictCacheRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "verdict_cache_run_test";
    std::filesystem::remove_all(dir_);
    g_builds.store(0);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(VerdictCacheRunTest, WarmRunIsByteIdenticalWithZeroBuilds) {
  const CampaignSpec spec = cached_spec();
  ShardRunOptions options;
  options.cache_dir = dir_;
  options.fingerprint = "test-campaign";

  std::string error;
  const CampaignReport cold = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_GT(g_builds.load(), 0u);
  for (const JobResult& j : cold.jobs) EXPECT_FALSE(j.from_cache) << j.name;

  // Warm, with the witness post-pass opted out: no model is ever built,
  // no hook fires, every job is marked from_cache, and the stable JSON
  // is byte-identical.
  g_builds.store(0);
  unsigned hook_fired = 0;
  options.pool.on_job_done = [&](std::size_t, const JobResult&) { ++hook_fired; };
  options.pool.witness.check = false;
  const CampaignReport warm = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(g_builds.load(), 0u);
  EXPECT_EQ(hook_fired, 0u);
  for (const JobResult& j : warm.jobs) {
    EXPECT_TRUE(j.from_cache) << j.name;
    EXPECT_EQ(j.work.solver_conflicts, 0u) << j.name;
  }
  EXPECT_EQ(warm.to_json(/*include_timing=*/false),
            cold.to_json(/*include_timing=*/false));
  // The UNKNOWN row kept its diagnostic.
  EXPECT_EQ(warm.jobs.back().note, "synthetic build failure");

  // Warm, with the post-pass on (the default): a cached FALSIFIED row is
  // hearsay until it reproduces, so exactly the two falsified rows are
  // rebuilt and their journaled stimuli replayed (engine/witness.hpp).
  // They stay from_cache, and the stable JSON is still byte-identical.
  g_builds.store(0);
  options.pool.on_job_done = nullptr;
  options.pool.witness.check = true;
  const CampaignReport audited = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(g_builds.load(), 2u);
  for (const JobResult& j : audited.jobs) {
    EXPECT_TRUE(j.from_cache) << j.name;
    EXPECT_EQ(j.witness_checked, j.verdict == Verdict::Falsified) << j.name;
  }
  EXPECT_EQ(audited.to_json(/*include_timing=*/false),
            cold.to_json(/*include_timing=*/false));

  // Cross-campaign reuse: a sharded slice of the same spec hits the same
  // journal (keys embed job identity, not campaign shape).
  g_builds.store(0);
  ShardRunOptions sliced;
  sliced.cache_dir = dir_;
  sliced.fingerprint = "test-campaign";
  sliced.shard = ShardSpec{0, 2};
  sliced.pool.witness.check = false;
  const CampaignReport half = run_sharded(spec, sliced, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(g_builds.load(), 0u);
  for (const JobResult& j : half.jobs) EXPECT_TRUE(j.from_cache) << j.name;
}

TEST_F(VerdictCacheRunTest, WarmRunReportsItsRealWallTime) {
  // A warm run solves nothing, but it still rebuilds the model of every
  // cached FALSIFIED row and replays its journaled stimulus before the
  // (empty) campaign of pending jobs; its wall_seconds must cover that
  // work.
  const CampaignSpec spec = cached_spec();
  ShardRunOptions options;
  options.cache_dir = dir_;
  std::string error;
  run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;

  const Stopwatch clock;
  const CampaignReport warm = run_sharded(spec, options, &error);
  const double elapsed = clock.seconds();
  ASSERT_TRUE(error.empty()) << error;
  unsigned checked = 0;
  for (const JobResult& j : warm.jobs) {
    EXPECT_TRUE(j.from_cache) << j.name;
    checked += j.witness_checked ? 1 : 0;
  }
  EXPECT_EQ(checked, 2u);
  EXPECT_GE(warm.wall_seconds, 0.5 * elapsed);
}

TEST_F(VerdictCacheRunTest, WarmRunStartsNoSolver) {
  // Under this plan every SAT solve fails as out of memory, so a warm run
  // that started a solver would demote its FALSIFIED rows. It replays
  // their journaled stimuli on the simulator instead.
  const CampaignSpec spec = cached_spec();
  ShardRunOptions options;
  options.cache_dir = dir_;
  std::string error;
  const CampaignReport cold = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;

  ASSERT_TRUE(fault::configure("point=solver.alloc:oom"));
  const CampaignReport warm = run_sharded(spec, options, &error);
  fault::configure("");
  ASSERT_TRUE(error.empty()) << error;
  unsigned checked = 0;
  for (const JobResult& j : warm.jobs) {
    EXPECT_TRUE(j.from_cache) << j.name;
    EXPECT_EQ(j.witness_checked, j.verdict == Verdict::Falsified) << j.name;
    checked += j.witness_checked ? 1 : 0;
  }
  EXPECT_EQ(checked, 2u);
  EXPECT_EQ(warm.to_json(/*include_timing=*/false),
            cold.to_json(/*include_timing=*/false));
}

TEST_F(VerdictCacheRunTest, FalsifiedLineWithoutStimulusIsAMissAndReSolved) {
  const CampaignSpec spec = cached_spec();
  ShardRunOptions options;
  options.cache_dir = dir_;
  std::string error;
  const CampaignReport cold = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;

  // Re-seal every line without its stimulus: still digest-valid, but a
  // FALSIFIED one now has nothing a check could replay.
  const std::string path = VerdictCache::journal_path(dir_);
  const std::string text = *read_text_file(path);
  std::string stripped;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t nl = text.find('\n', at);
    auto parsed = VerdictCache::parse_line(text.substr(at, nl - at));
    at = nl + 1;
    ASSERT_TRUE(parsed.has_value());
    parsed->second.stimulus.clear();
    stripped += VerdictCache::format_line(parsed->first, parsed->second) + "\n";
  }
  ASSERT_TRUE(write_text_file_atomic(path, stripped));

  // Those jobs are re-solved and checked, not demoted...
  g_builds.store(0);
  const CampaignReport resolved = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_GT(g_builds.load(), 0u);
  for (const JobResult& j : resolved.jobs) {
    EXPECT_EQ(j.from_cache, j.verdict != Verdict::Falsified) << j.name;
    EXPECT_EQ(j.witness_checked, j.verdict == Verdict::Falsified) << j.name;
  }
  EXPECT_EQ(resolved.to_json(/*include_timing=*/false),
            cold.to_json(/*include_timing=*/false));

  // ...and their fresh lines supersede the bare ones.
  const CampaignReport warm = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  for (const JobResult& j : warm.jobs) EXPECT_TRUE(j.from_cache) << j.name;
  EXPECT_EQ(warm.to_json(/*include_timing=*/false),
            cold.to_json(/*include_timing=*/false));
}

TEST_F(VerdictCacheRunTest, UncheckedJournalGivesTheArtifactsOfACheckedColdRun) {
  // A journal written with the check off holds run_job's raw traces; a
  // checked warm run shrinks them into the artifacts a checked cold run
  // writes, byte for byte.
  const CampaignSpec spec = cached_spec();
  std::string error;
  ShardRunOptions unchecked;
  unchecked.cache_dir = dir_;
  unchecked.pool.witness.check = false;
  run_sharded(spec, unchecked, &error);
  ASSERT_TRUE(error.empty()) << error;

  const std::string warm_dir = dir_ + "/warm-artifacts";
  const std::string cold_dir = dir_ + "/cold-artifacts";
  std::filesystem::create_directories(warm_dir);
  std::filesystem::create_directories(cold_dir);
  ShardRunOptions warm_options;
  warm_options.cache_dir = dir_;
  warm_options.pool.witness.artifact_dir = warm_dir;
  const CampaignReport warm = run_sharded(spec, warm_options, &error);
  ASSERT_TRUE(error.empty()) << error;
  ShardRunOptions cold_options;
  cold_options.pool.witness.artifact_dir = cold_dir;
  const CampaignReport cold = run_sharded(spec, cold_options, &error);
  ASSERT_TRUE(error.empty()) << error;

  ASSERT_EQ(warm.jobs.size(), cold.jobs.size());
  unsigned artifacts = 0;
  for (std::size_t i = 0; i < warm.jobs.size(); ++i) {
    EXPECT_TRUE(warm.jobs[i].from_cache) << warm.jobs[i].name;
    EXPECT_EQ(warm.jobs[i].witness_checked, cold.jobs[i].witness_checked);
    EXPECT_EQ(warm.jobs[i].trace_length_shrunk, cold.jobs[i].trace_length_shrunk);
    if (cold.jobs[i].verdict != Verdict::Falsified) continue;
    const std::string file = witness_artifact_filename(cold.jobs[i].name);
    const auto wa = read_text_file(warm_dir + "/" + file);
    const auto ca = read_text_file(cold_dir + "/" + file);
    ASSERT_TRUE(wa.has_value() && ca.has_value()) << cold.jobs[i].name;
    EXPECT_EQ(*wa, *ca) << cold.jobs[i].name;
    ++artifacts;
  }
  EXPECT_EQ(artifacts, 2u);
  EXPECT_EQ(warm.to_json(/*include_timing=*/false),
            cold.to_json(/*include_timing=*/false));
}

TEST_F(VerdictCacheRunTest, WallCappedJobsAreSolvedFreshEveryRun) {
  CampaignSpec spec = cached_spec();
  spec.jobs[1].budget.max_seconds = 3600.0;  // never fires, still refused

  ShardRunOptions options;
  options.cache_dir = dir_;
  std::string error;
  const CampaignReport cold = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;

  g_builds.store(0);
  const CampaignReport warm = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_GT(g_builds.load(), 0u);  // the capped job re-solved
  for (const JobResult& j : warm.jobs)
    EXPECT_EQ(j.from_cache, j.name != "hit-5") << j.name;
  EXPECT_EQ(warm.to_json(/*include_timing=*/false),
            cold.to_json(/*include_timing=*/false));
}

TEST_F(VerdictCacheRunTest, CorruptedEntryIsResolvedNotReplayed) {
  const CampaignSpec spec = cached_spec();
  ShardRunOptions options;
  options.cache_dir = dir_;
  std::string error;
  const CampaignReport cold = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;

  // Hand-edit the journal: flip a byte inside the first entry's payload.
  const std::string path = VerdictCache::journal_path(dir_);
  std::string text = *read_text_file(path);
  const std::size_t at = text.find("\"verdict\":\"");
  ASSERT_NE(at, std::string::npos);
  text[at + 11] = text[at + 11] == 'F' ? 'P' : 'F';
  ASSERT_TRUE(write_text_file_atomic(path, text));

  // The poisoned entry digests wrong -> a miss -> that one job is
  // re-solved; the report is still byte-identical to the cold run.
  g_builds.store(0);
  const CampaignReport warm = run_sharded(spec, options, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_GT(g_builds.load(), 0u);
  EXPECT_LT(g_builds.load(), 2 * spec.jobs.size());  // not a full re-run
  EXPECT_EQ(warm.to_json(/*include_timing=*/false),
            cold.to_json(/*include_timing=*/false));
}

TEST_F(VerdictCacheRunTest, UnusableCacheDirectoryIsAHardError) {
  // A regular FILE where the cache directory should be.
  const std::string blocker = dir_;
  std::ofstream(blocker, std::ios::binary) << "not a directory";
  ShardRunOptions options;
  options.cache_dir = blocker + "/sub";
  std::string error;
  const CampaignReport report = run_sharded(cached_spec(), options, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(report.jobs.empty());
  std::remove(blocker.c_str());
}

}  // namespace
}  // namespace sepe::engine
