// Tests for the workload-family abstraction (engine/workload.hpp): the
// BTOR2 corpus source expands one job per bad property with provenance
// and content digests, malformed corpus files become per-job parse-error
// rows instead of campaign aborts, corpus campaigns are byte-
// deterministic across thread counts, an edited corpus file misses the
// verdict journal and is re-solved, and the pinned QED models survive a
// to_btor2 -> parse_btor2 round trip behaviourally intact.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bmc/bmc.hpp"
#include "engine/pinned_table.hpp"
#include "engine/report_io.hpp"
#include "engine/shard.hpp"
#include "engine/workload.hpp"
#include "proc/mutations.hpp"
#include "temp_dir.hpp"
#include "ts/btor2_parser.hpp"

namespace sepe::engine {
namespace {

// 4-bit counter, violation at depth 5.
const char kCounterSat[] =
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

// Two properties: b0 falsified at depth 3, b1 proved by k-induction.
const char kMultiProp[] =
    "1 sort bitvec 4\n"
    "2 sort bitvec 1\n"
    "10 state 1 cnt\n"
    "11 constd 1 0\n"
    "12 init 1 10 11\n"
    "13 constd 1 1\n"
    "14 add 1 10 13\n"
    "15 next 1 10 14\n"
    "16 constd 1 3\n"
    "17 eq 2 10 16\n"
    "18 bad 17 ; cnt-three\n"
    "20 state 2 frozen\n"
    "21 zero 2\n"
    "22 init 2 20 21\n"
    "23 next 2 20 20\n"
    "24 one 2\n"
    "25 eq 2 20 24\n"
    "26 bad 25 ; frozen-one\n";

const char kBroken[] =
    "1 sort bitvec 4\n"
    "10 state 1 s\n"
    "11 frobnicate 1 10\n";

JobBudget small_budget() {
  JobBudget b;
  b.max_bound = 8;
  b.max_k = 3;
  return b;
}

/// Temp corpus directory, removed on teardown.
class CorpusTest : public ::testing::Test {
 protected:

  void write(const std::string& name, const std::string& text) {
    const std::filesystem::path path = dir_ / name;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path);
    out << text;
  }

  CampaignSpec expand_ok(std::uint64_t seed = 1) {
    const Btor2CorpusSource source(dir_.string(), small_budget());
    std::string error;
    const auto spec = expand_source(source, seed, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    return spec.value_or(CampaignSpec{});
  }

  sepe::testing::TempDir tmp_;
  const std::filesystem::path dir_ = tmp_.path;
};

TEST_F(CorpusTest, ExpandsOneJobPerBadPropertyWithProvenance) {
  write("zz_multi.btor2", kMultiProp);
  write("a_counter.btor2", kCounterSat);
  write("nested/deep.btor2", kCounterSat);
  write("ignored.txt", "not a corpus file");
  const CampaignSpec spec = expand_ok(7);
  EXPECT_EQ(spec.seed, 7u);
  ASSERT_EQ(spec.jobs.size(), 4u);
  // Sorted by relative path, multi-property files fan out in order.
  EXPECT_EQ(spec.jobs[0].name, "a_counter.btor2:b0");
  EXPECT_EQ(spec.jobs[1].name, "nested/deep.btor2:b0");
  EXPECT_EQ(spec.jobs[2].name, "zz_multi.btor2:b0");
  EXPECT_EQ(spec.jobs[3].name, "zz_multi.btor2:b1");
  for (const JobSpec& job : spec.jobs) {
    EXPECT_EQ(job.provenance.family, kBtor2Family);
    EXPECT_TRUE(job.provenance.mode.empty());
    EXPECT_EQ(job.provenance.content_digest.size(), 16u);
  }
  EXPECT_EQ(spec.jobs[2].provenance.source, "zz_multi.btor2");
  EXPECT_EQ(spec.jobs[2].provenance.property, 0u);
  EXPECT_EQ(spec.jobs[3].provenance.property, 1u);
  // Same file -> same content digest; different file -> different.
  EXPECT_EQ(spec.jobs[2].provenance.content_digest,
            spec.jobs[3].provenance.content_digest);
  EXPECT_NE(spec.jobs[0].provenance.content_digest,
            spec.jobs[2].provenance.content_digest);
  // The digest of kCounterSat's bytes, pinned: journal keys cover it, so
  // a moved digest would make every journaled corpus job miss.
  EXPECT_EQ(spec.jobs[0].provenance.content_digest, "a19733565c169cd8");
}

TEST_F(CorpusTest, ExpansionFailsOnMissingOrEmptyDirectory) {
  const Btor2CorpusSource missing((dir_ / "nope").string(), small_budget());
  std::string error;
  std::vector<JobSpec> jobs;
  EXPECT_FALSE(missing.expand(&jobs, &error));
  EXPECT_NE(error.find("not a readable directory"), std::string::npos);

  const Btor2CorpusSource empty(dir_.string(), small_budget());
  error.clear();
  EXPECT_FALSE(empty.expand(&jobs, &error));
  EXPECT_NE(error.find("no .btor2 files"), std::string::npos);
}

TEST_F(CorpusTest, MalformedFileBecomesParseErrorRowAndCampaignContinues) {
  write("broken.btor2", kBroken);
  write("counter.btor2", kCounterSat);
  const CampaignSpec spec = expand_ok();
  ASSERT_EQ(spec.jobs.size(), 2u);
  CampaignOptions one;
  one.threads = 1;
  const CampaignReport report = run_campaign(spec, one);
  ASSERT_EQ(report.jobs.size(), 2u);
  // The malformed file is an UNKNOWN row carrying the line-numbered
  // parse diagnostic...
  EXPECT_EQ(report.jobs[0].verdict, Verdict::Unknown);
  EXPECT_NE(report.jobs[0].note.find("line 3"), std::string::npos);
  EXPECT_NE(report.jobs[0].note.find("frobnicate"), std::string::npos);
  // ...and the rest of the campaign still runs to a verdict.
  EXPECT_EQ(report.jobs[1].verdict, Verdict::Falsified);
  EXPECT_EQ(report.jobs[1].trace_length, 5u);

  // The diagnostic and the provenance columns travel through the stable
  // JSON and parse back (the merge wire format).
  const std::string json = report.to_json(/*include_timing=*/false);
  EXPECT_NE(json.find("\"workload\": \"btor2\""), std::string::npos);
  EXPECT_NE(json.find("\"error\": "), std::string::npos);
  CampaignReport parsed;
  std::string error;
  ASSERT_TRUE(parse_report(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.jobs[0].note, report.jobs[0].note);
  EXPECT_EQ(parsed.jobs[0].provenance.family, kBtor2Family);
  EXPECT_EQ(parsed.jobs[0].provenance.source, "broken.btor2");
  EXPECT_EQ(parsed.to_json(/*include_timing=*/false), json);
}

TEST_F(CorpusTest, StableJsonIsThreadCountInvariant) {
  write("counter.btor2", kCounterSat);
  write("multi.btor2", kMultiProp);
  write("broken.btor2", kBroken);
  const CampaignSpec spec = expand_ok();
  CampaignOptions seq, par;
  seq.threads = 1;
  par.threads = 4;
  const std::string a = run_campaign(spec, seq).to_json(/*include_timing=*/false);
  const std::string b = run_campaign(spec, par).to_json(/*include_timing=*/false);
  EXPECT_EQ(a, b);
}

TEST_F(CorpusTest, EditedCorpusFileMissesTheJournal) {
  write("counter.btor2", kCounterSat);
  write("multi.btor2", kMultiProp);

  ShardRunOptions options;
  options.cache_dir = (dir_ / "journal").string();
  std::string error;
  const CampaignReport first = run_sharded(expand_ok(), options, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(first.jobs.size(), 3u);

  // Unchanged corpus: every job is served from the journal.
  const CampaignReport warm = run_sharded(expand_ok(), options, &error);
  ASSERT_TRUE(error.empty()) << error;
  for (const JobResult& j : warm.jobs) EXPECT_TRUE(j.from_cache) << j.name;

  // Edit one file (the violation moves from 5 to 4): the re-expanded
  // spec has the same job names but a different content digest, so that
  // job misses the journal and is re-solved instead of reusing the stale
  // verdict; the untouched file's jobs are still served.
  std::string edited = kCounterSat;
  edited.replace(edited.find("16 constd 1 5"), 13, "16 constd 1 4");
  write("counter.btor2", edited);
  const CampaignReport rerun = run_sharded(expand_ok(), options, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(rerun.jobs.size(), 3u);
  for (const JobResult& j : rerun.jobs) {
    const bool edited_job = j.provenance.source == "counter.btor2";
    EXPECT_EQ(j.from_cache, !edited_job) << j.name;
    if (!edited_job) continue;
    EXPECT_EQ(j.verdict, Verdict::Falsified);
    EXPECT_EQ(j.trace_length, 4u);
  }
}

TEST(QedMatrixSource, ExpandsWithQedProvenance) {
  auto bugs = proc::table1_single_instruction_bugs();
  bugs.resize(1);
  CampaignMatrix matrix;
  matrix.modes = {qed::QedMode::EddiV};
  matrix.mutations = bugs;
  const QedMatrixSource source(matrix);
  EXPECT_EQ(source.family(), kQedFamily);
  std::string error;
  const auto spec = expand_source(source, 3, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->jobs.size(), 1u);
  EXPECT_EQ(spec->jobs[0].provenance.family, kQedFamily);
  EXPECT_EQ(spec->jobs[0].provenance.mode, "EDDI-V");
  EXPECT_EQ(spec->jobs[0].provenance.source, bugs[0].name);
}

// --- BTOR2 round trip across pinned QED models ---

/// Dump the model, parse it back, and require identical BMC behaviour
/// (violation found or not, and at the same depth) up to `bound`.
void expect_btor2_roundtrip(const JobSpec& job, unsigned bound) {
  smt::TermManager mgr;
  ts::TransitionSystem original(mgr);
  std::string build_error;
  ASSERT_TRUE(job.build(original, &build_error)) << build_error;
  const std::string dump = ts::to_btor2(original);

  smt::TermManager mgr2;
  ts::TransitionSystem parsed(mgr2);
  const ts::Btor2ParseResult r = ts::parse_btor2(dump, parsed);
  ASSERT_TRUE(r.ok) << job.name << ": " << r.error;

  bmc::BmcOptions bo;
  bo.max_bound = bound;
  bmc::Bmc check_original(original), check_parsed(parsed);
  const auto w1 = check_original.check(bo);
  const auto w2 = check_parsed.check(bo);
  ASSERT_EQ(w1.has_value(), w2.has_value()) << job.name;
  if (w1) {
    EXPECT_EQ(w1->length, w2->length) << job.name;
    EXPECT_EQ(w1->bad_label, w2->bad_label) << job.name;
  }
}

TEST(QedBtor2RoundTrip, PinnedModelsSurviveDumpAndParse) {
  // Three Table-1 instruction classes in both QED modes: the EDSEP-V
  // side exercises the SAT path (falsified at depth 6), the EDDI-V side
  // a clean sweep — and every QED model carries init constraints, so
  // this also pins the writer's flag-state encoding end to end.
  const auto pinned = make_pinned_table(4);
  auto bugs = proc::table1_single_instruction_bugs();
  bugs.resize(3);
  CampaignMatrix matrix;
  matrix.xlen = 4;
  matrix.equivalences = &pinned->table;
  for (const proc::Mutation& bug : bugs) {
    const proc::ProcConfig config = derive_duv_config(matrix, &bug);
    for (qed::QedMode mode : {qed::QedMode::EddiV, qed::QedMode::EdsepV}) {
      const JobSpec job = make_qed_job(bug.name + std::string("/") + mode_tag(mode),
                                       mode, config, bug, &pinned->table, {});
      // EDDI-V misses single-instruction bugs (clean sweep); keep its
      // bound shallow so the double sweep stays unit-test sized.
      expect_btor2_roundtrip(job, mode == qed::QedMode::EddiV ? 3 : 6);
    }
  }
}

}  // namespace
}  // namespace sepe::engine
