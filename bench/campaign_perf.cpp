// campaign_perf — deterministic counter guard for the prover stack.
//
// Runs the Table-1 single-instruction campaign (8 instruction classes ×
// both QED modes, the CI smoke grid) on the user path: one BMC +
// k-induction loop per job, default solver config, 1 worker thread.
// Every counter in the report (smt::kWorkCounters: SAT work, CNF sizes,
// cone-cache traffic, inprocessing, retries) is a deterministic function
// of the code at 1 thread, so consecutive runs (and CI runs on different
// machines) produce identical numbers and the counters form a comparable
// trajectory across commits. Wall time is reported too but is
// machine-dependent and excluded from comparisons; the wall-clock
// yardstick is perfbench (perfbench/NOTES.md).
//
// The campaign runs TWICE:
//
//   cold — fresh cone cache + empty verdict-cache directory. The cone
//          counters (lookups / hits / clauses replayed, the "blast
//          avoided" metric) measure intra-campaign cone sharing;
//          deterministic at 1 thread.
//   warm — same cone cache, same verdict-cache directory. Every job is
//          served from the verdict journal (FALSIFIED rows replayed from
//          their journaled stimuli by the default witness check, as in a
//          user's warm run), so every warm work total drops to zero —
//          the headline saving the cache exists for. The bench
//          hard-fails if any warm verdict field differs from its cold
//          twin, or if the warm run solved anything: the cache must
//          never change answers, only skip work.
//
// Usage: campaign_perf [--json FILE] [--rows N] [--bound N] [--max-k N]
// The default grid must stay in sync with bench/baseline.json and the CI
// perf-report job.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include <unistd.h>

#include "engine/report_io.hpp"
#include "engine/shard.hpp"
#include "qed_bench_util.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

using namespace sepe;

namespace {

/// Job-wise sum of a report's work counters.
smt::Work total(const engine::CampaignReport& report) {
  smt::Work t;
  for (const engine::JobResult& j : report.jobs) t += j.work;
  return t;
}

/// `"name": value` for every work counter, comma-separated.
void write_work(std::ostream& os, const smt::Work& w) {
  const char* sep = "";
  for (const smt::WorkCounter& c : smt::kWorkCounters) {
    os << sep << '"' << c.name << "\": " << w.*c.member;
    sep = ", ";
  }
}

/// Jobs a report served from the verdict journal.
std::size_t served_from_cache(const engine::CampaignReport& report) {
  std::size_t n = 0;
  for (const engine::JobResult& j : report.jobs) n += j.from_cache;
  return n;
}

bool any_work(const smt::Work& w) {
  for (const smt::WorkCounter& c : smt::kWorkCounters)
    if (w.*c.member != 0) return true;
  return false;
}

std::string perf_json(const engine::CampaignReport& cold,
                      const engine::CampaignReport& warm, unsigned rows,
                      unsigned bound, unsigned max_k) {
  std::ostringstream os;
  os << "{\n  \"campaign\": {\"bugs\": \"table1\", \"rows\": " << rows
     << ", \"modes\": \"both\", \"bound\": " << bound << ", \"max_k\": " << max_k
     << ", \"xlen\": 4}";
  os << ",\n  \"jobs\": [";
  std::uint64_t jobs_hit_memory_limit = 0;
  for (std::size_t i = 0; i < cold.jobs.size(); ++i) {
    const engine::JobResult& j = cold.jobs[i];
    os << (i ? ",\n    {" : "\n    {") << "\"name\": ";
    json_escape(os, j.name);
    os << ", \"verdict\": \"" << engine::verdict_name(j.verdict) << "\"";
    if (j.verdict == engine::Verdict::Falsified) {
      os << ", \"trace_length\": " << j.trace_length;
      if (!j.bad_label.empty()) {
        os << ", \"bad_label\": ";
        json_escape(os, j.bad_label);
      }
    }
    if (j.verdict == engine::Verdict::Proved) os << ", \"proved_k\": " << j.proved_k;
    os << ", ";
    write_work(os, j.work);
    os << "}";
    jobs_hit_memory_limit += j.work.hit_memory_limit;
  }
  os << "\n  ]";
  // jobs_hit_memory_limit must be zero in this fault-free bench
  // (docs/ROBUSTNESS.md).
  os << ",\n  \"totals\": {";
  write_work(os, total(cold));
  os << ", \"jobs_hit_memory_limit\": " << jobs_hit_memory_limit << "}";
  // The warm rerun against the same cache directory: everything served
  // from the verdict journal, zero fresh solver work. These totals are
  // deterministic too (they must all be zero with every job cached).
  os << ",\n  \"warm_totals\": {\"jobs_from_cache\": " << served_from_cache(warm)
     << ", \"jobs_total\": " << warm.jobs.size() << ", ";
  write_work(os, total(warm));
  os << "}";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", cold.wall_seconds);
  os << ",\n  \"wall_seconds\": " << buf << "\n}\n";
  return os.str();
}

/// The contract the warm run must prove: identical verdict-bearing
/// fields, job by job. Returns false (and prints the offender) on drift.
bool verdicts_match(const engine::CampaignReport& cold,
                    const engine::CampaignReport& warm) {
  if (cold.jobs.size() != warm.jobs.size()) {
    std::fprintf(stderr, "campaign_perf: warm run has %zu jobs, cold %zu\n",
                 warm.jobs.size(), cold.jobs.size());
    return false;
  }
  for (std::size_t i = 0; i < cold.jobs.size(); ++i) {
    const engine::JobResult& a = cold.jobs[i];
    const engine::JobResult& b = warm.jobs[i];
    if (a.name != b.name || a.verdict != b.verdict ||
        a.trace_length != b.trace_length || a.proved_k != b.proved_k ||
        a.bad_label != b.bad_label || a.note != b.note) {
      std::fprintf(stderr,
                   "campaign_perf: VERDICT DRIFT on '%s': warm run disagrees "
                   "with cold (%s vs %s) — the cache changed an answer\n",
                   a.name.c_str(), engine::verdict_name(b.verdict),
                   engine::verdict_name(a.verdict));
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "-";
  unsigned rows = 8, bound = 6, max_k = 2;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "campaign_perf: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // --rows needs at least one row; --bound 0 and --max-k 0 are real
    // horizons (BMC bound 0 only, BMC only), as in sepe-run.
    const auto parse_count = [&](const char* flag, const char* text,
                                 std::uint64_t min = 0) {
      const auto value = parse_u64_strict(text);
      if (!value || *value < min || *value > 1000) {
        std::fprintf(stderr, "campaign_perf: %s expects a count, got '%s'\n", flag,
                     text);
        std::exit(2);
      }
      return static_cast<unsigned>(*value);
    };
    if (!std::strcmp(argv[i], "--json")) json_path = next("--json");
    else if (!std::strcmp(argv[i], "--rows"))
      rows = parse_count("--rows", next("--rows"), 1);
    else if (!std::strcmp(argv[i], "--bound"))
      bound = parse_count("--bound", next("--bound"));
    else if (!std::strcmp(argv[i], "--max-k"))
      max_k = parse_count("--max-k", next("--max-k"));
    else {
      std::fprintf(stderr,
                   "usage: campaign_perf [--json FILE] [--rows N] [--bound N] "
                   "[--max-k N]\n");
      return 2;
    }
  }

  std::fprintf(stderr, "synthesizing the pinned equivalence table (xlen=4)...\n");
  const auto pinned = bench::make_bench_table(4);

  engine::CampaignMatrix matrix;
  matrix.xlen = 4;
  matrix.modes = {qed::QedMode::EddiV, qed::QedMode::EdsepV};
  auto bugs = proc::table1_single_instruction_bugs();
  if (rows < bugs.size()) bugs.resize(rows);
  matrix.mutations = std::move(bugs);
  matrix.equivalences = &pinned->table;
  matrix.extra_opcodes = {isa::Opcode::ADD, isa::Opcode::ADDI};
  matrix.budget.max_bound = bound;
  matrix.budget.max_k = max_k;

  const engine::CampaignSpec spec = engine::expand(matrix, 1);

  std::error_code ec;
  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path(ec) /
      ("campaign-perf-cache." + std::to_string(::getpid()));

  engine::ShardRunOptions options;
  options.pool.threads = 1;
  options.pool.cone_cache = std::make_shared<smt::ConeCache>();
  options.cache_dir = cache_dir.string();
  options.fingerprint = "bench=campaign_perf;xlen=4;modes=both";

  std::string run_error;
  const engine::CampaignReport cold = engine::run_sharded(spec, options, &run_error);
  if (!run_error.empty()) {
    std::fprintf(stderr, "campaign_perf: cold run failed: %s\n", run_error.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s", cold.to_table().c_str());

  std::fprintf(stderr, "warm rerun against %s...\n", options.cache_dir.c_str());
  const engine::CampaignReport warm = engine::run_sharded(spec, options, &run_error);
  std::filesystem::remove_all(cache_dir, ec);
  if (!run_error.empty()) {
    std::fprintf(stderr, "campaign_perf: warm run failed: %s\n", run_error.c_str());
    return 1;
  }
  if (!verdicts_match(cold, warm)) return 1;
  const std::size_t served = served_from_cache(warm);
  std::fprintf(stderr, "warm run: %zu/%zu jobs from cache\n", served, warm.jobs.size());
  if (served != warm.jobs.size() || any_work(total(warm))) {
    std::fprintf(stderr, "campaign_perf: the warm run solved jobs it should have "
                         "served from the verdict cache\n");
    return 1;
  }

  const std::string json = perf_json(cold, warm, rows, bound, max_k);
  if (json_path == "-") {
    std::printf("%s", json.c_str());
  } else {
    if (!engine::write_text_file_atomic(json_path, json)) {
      std::fprintf(stderr, "campaign_perf: cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perf report written to %s\n", json_path.c_str());
  }
  return cold.count(engine::Verdict::Unknown) == 0 ? 0 : 3;
}
