// Seeded byte-mutation fuzz of every reader of outside bytes: campaign
// reports (parse_report), verdict-journal lines (VerdictCache::parse_line),
// journaled stimuli (parse_stimulus), witness artifacts
// (check_witness_text) and BTOR2 models (parse_btor2, seeded with
// tests/corpus). Every mutant comes from a fixed seed, so a failure
// reproduces exactly. Half of the mutated journal lines and artifacts are
// resealed, so they get past the digest to the reader proper. No
// exception may escape, and every accepted line, stimulus and artifact
// must be exactly its writer's rendering of what was read. CI's
// ASan+UBSan job runs this like the rest of ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bmc/bmc.hpp"
#include "engine/report_io.hpp"
#include "engine/verdict_cache.hpp"
#include "engine/witness.hpp"
#include "ts/btor2_parser.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace sepe::engine {
namespace {

using smt::TermRef;

/// One to three byte edits: overwrite, insert, delete, duplicate a span or
/// truncate. Most new bytes are JSON punctuation, digits or hex letters,
/// so edits hit the grammar as well as the payload.
std::string mutate(const std::string& seed, Rng& rng) {
  static constexpr char kBytes[] = "{}[]\",:\\0123456789abcdefux- \n";
  const auto pick = [&] {
    return rng.below(4) == 0 ? static_cast<char>(rng.below(256))
                             : kBytes[rng.below(sizeof kBytes - 1)];
  };
  std::string s = seed;
  for (std::uint64_t edits = 1 + rng.below(3); edits > 0; --edits) {
    const std::size_t at = rng.below(s.size() + 1);
    const std::uint64_t op = rng.below(10);
    if (op < 4) {
      s.replace(at, 1, 1, pick());
    } else if (op < 6) {
      s.insert(at, 1, pick());
    } else if (op < 8) {
      s.erase(at, 1 + rng.below(4));
    } else if (op < 9) {
      s.insert(at, s.substr(at, rng.below(8)));
    } else {
      s.resize(at);
    }
  }
  return s;
}

/// A fresh journal seal over the bytes before the last `,"check":"`.
std::string reseal_line(const std::string& line) {
  const std::size_t at = line.rfind(",\"check\":\"");
  if (at == std::string::npos) return line;
  const std::string payload = line.substr(0, at);
  return payload + ",\"check\":\"" + hex16(fnv1a(payload)) + "\"}";
}

/// A fresh artifact seal over the bytes before the last `{"check":"`.
std::string reseal_artifact(const std::string& text) {
  const std::size_t at = text.rfind("{\"check\":\"");
  if (at == std::string::npos) return text;
  const std::string payload = text.substr(0, at);
  return payload + "{\"check\":\"" + witness_self_check(payload) + "\"}\n";
}

struct Tally {
  unsigned accepted = 0;
  unsigned rejected = 0;
};

/// Feed `mutants` mutants of `seed`, drawn from `rng_seed`, to `read`,
/// which returns whether its reader accepted them; every other mutant is
/// resealed first when `reseal` is set. An escaping exception fails the
/// test and names the mutant.
void fuzz(const std::string& seed, std::uint64_t rng_seed, unsigned mutants,
          const std::function<std::string(const std::string&)>& reseal,
          const std::function<bool(const std::string&)>& read, Tally* tally) {
  Rng rng(rng_seed);
  for (unsigned i = 0; i < mutants; ++i) {
    std::string m = mutate(seed, rng);
    if (reseal && i % 2 == 0) m = reseal(m);
    try {
      ++(read(m) ? tally->accepted : tally->rejected);
    } catch (...) {
      ADD_FAILURE() << "exception on mutant " << i << " of seed " << rng_seed << ":\n"
                    << m;
    }
  }
}

/// The counter system of witness_test: `cnt` (8 bits) increments while
/// the 1-bit input is set, and the bad fires at cnt == 5.
void build_counter(ts::TransitionSystem& ts) {
  smt::TermManager& mgr = ts.mgr();
  const TermRef cnt = ts.add_state("cnt", 8);
  const TermRef inc = ts.add_input("inc", 1);
  ts.set_init(cnt, mgr.mk_const(8, 0));
  ts.set_next(cnt, mgr.mk_ite(inc, mgr.mk_add(cnt, mgr.mk_const(8, 1)), cnt));
  ts.add_bad(mgr.mk_eq(cnt, mgr.mk_const(8, 5)), "cnt-target");
}

WitnessTrace counter_trace(const ts::TransitionSystem& ts) {
  bmc::Bmc checker(ts);
  bmc::BmcOptions bo;
  bo.max_bound = 8;
  const std::optional<bmc::Witness> w = checker.check(bo);
  EXPECT_TRUE(w.has_value());
  return w ? extract_trace(ts, *w) : WitnessTrace{};
}

/// Seed reports: stable, timing and shard forms, both report dialects.
std::vector<std::string> seed_reports() {
  CampaignReport report;
  report.seed = 7;
  report.threads = 2;
  report.wall_seconds = 1.5;
  JobResult qed;
  qed.name = "add_carry_stuck/EDSEP-V";
  qed.provenance.family = kQedFamily;
  qed.provenance.mode = "EDSEP-V";
  qed.verdict = Verdict::Falsified;
  qed.trace_length = 6;
  qed.bad_label = "qed-inconsistent/EDSEP-V (SEPE-SQED)";
  JobResult btor2;
  btor2.name = "dir/multi.btor2:b1";
  btor2.spec_index = 1;
  btor2.provenance.family = kBtor2Family;
  btor2.provenance.source = "dir/multi.btor2";
  btor2.provenance.property = 1;
  btor2.verdict = Verdict::Proved;
  btor2.proved_k = 2;
  JobResult broken = btor2;
  broken.name = "broken.btor2:b0";
  broken.spec_index = 2;
  broken.verdict = Verdict::Unknown;
  broken.note = "line 3: unknown operator \"frobnicate\"\ttab";
  report.jobs = {qed, btor2, broken};
  std::vector<std::string> seeds;
  for (const bool timing : {false, true}) seeds.push_back(report.to_json(timing));
  report.shard = CampaignReport::ShardInfo{{1, 3}, 9, "00000000000000ff"};
  seeds.push_back(report.to_json(/*include_timing=*/false));
  return seeds;
}

TEST(FormatFuzz, ReportsNeverThrow) {
  const auto read = [](const std::string& m) {
    CampaignReport report;
    std::string error;
    return parse_report(m, &report, &error);
  };
  Tally tally;
  std::uint64_t rng_seed = 1000;
  for (const std::string& seed : seed_reports())
    fuzz(seed, rng_seed++, 4000, nullptr, read, &tally);
  EXPECT_GE(tally.accepted, 100u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(FormatFuzz, AcceptedJournalLinesAreTheWritersBytes) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  build_counter(ts);
  WitnessTrace trace = counter_trace(ts);
  shrink_trace(ts, &trace);
  VerdictCache::Entry falsified;
  falsified.verdict = Verdict::Falsified;
  falsified.trace_length = trace.length;
  falsified.bad_label = trace.bad_label;
  falsified.stimulus = render_stimulus(trace);
  VerdictCache::Entry proved;
  proved.verdict = Verdict::Proved;
  proved.proved_k = 3;
  VerdictCache::Entry unknown;
  unknown.note = "witness: \"replay\" mismatch\n\x01";
  const auto read = [](const std::string& m) {
    const auto parsed = VerdictCache::parse_line(m);
    if (parsed) {
      EXPECT_EQ(VerdictCache::format_line(parsed->first, parsed->second), m);
    }
    return parsed.has_value();
  };
  Tally tally;
  std::uint64_t rng_seed = 2000;
  for (const VerdictCache::Entry* e : {&falsified, &proved, &unknown}) {
    const std::string line = VerdictCache::format_line("0123456789abcdef", *e);
    fuzz(line, rng_seed++, 4000, reseal_line, read, &tally);
  }
  EXPECT_GE(tally.accepted, 100u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(FormatFuzz, AcceptedStimuliAreTheWritersBytes) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  build_counter(ts);
  WitnessTrace raw = counter_trace(ts);
  WitnessTrace shrunk = raw;
  shrink_trace(ts, &shrunk);
  const auto read = [&](const std::string& m) {
    WitnessTrace back;
    std::string why;
    const bool ok = parse_stimulus(ts, m, &back, &why);
    if (ok) {
      EXPECT_EQ(render_stimulus(back), m);
    }
    return ok;
  };
  Tally tally;
  std::uint64_t rng_seed = 3000;
  for (const WitnessTrace* trace : {&raw, &shrunk})
    fuzz(render_stimulus(*trace), rng_seed++, 6000, nullptr, read, &tally);
  EXPECT_GE(tally.accepted, 100u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(FormatFuzz, AcceptedArtifactsAreTheWritersBytes) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  build_counter(ts);
  WitnessTrace trace = counter_trace(ts);
  const unsigned shrunk = shrink_trace(ts, &trace);
  JobProvenance provenance;
  provenance.family = kBtor2Family;
  provenance.source = "counter.btor2";
  const std::string artifact =
      render_witness_artifact(ts, "counter.btor2:b0", provenance, trace, shrunk);
  const auto read = [](const std::string& m) {
    WitnessArtifact back;
    std::string why;
    const bool ok = check_witness_text(m, &back, &why);
    if (ok) {
      EXPECT_EQ(render_witness_artifact(back), m);
    }
    return ok;
  };
  Tally tally;
  fuzz(artifact, 4000, 6000, reseal_artifact, read, &tally);
  EXPECT_GE(tally.accepted, 100u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(FormatFuzz, Btor2NeverThrows) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(SEPE_CORPUS_DIR))
    if (entry.path().extension() == ".btor2") files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());  // a fixed seed per file
  ASSERT_FALSE(files.empty());
  const auto read = [](const std::string& m) {
    smt::TermManager mgr;
    ts::TransitionSystem ts(mgr);
    return ts::parse_btor2(m, ts).ok;
  };
  Tally tally;
  std::uint64_t rng_seed = 5000;
  for (const std::string& file : files) {
    const std::optional<std::string> text = read_text_file(file);
    ASSERT_TRUE(text.has_value()) << file;
    fuzz(*text, rng_seed++, 600, nullptr, read, &tally);
  }
  EXPECT_GE(tally.accepted, 100u);
  EXPECT_GT(tally.rejected, 0u);
}

}  // namespace
}  // namespace sepe::engine
