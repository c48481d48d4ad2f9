// sepe-run — CLI driver for the parallel verification-campaign engine.
//
// Campaigns come from *workload families* (src/engine/workload.hpp):
//
//   * the default QED mode expands a declarative cross-product
//     (instruction classes × QED mode × injected mutation);
//   * `sepe-run corpus DIR` runs every `.btor2` file under DIR
//     (HWMCC-style corpora, the paper's §6.2 interchange format), one
//     job per bad property — malformed files become per-job parse-error
//     rows, not campaign aborts.
//
// Either way the jobs fan out over a worker pool (each job running one
// BMC + k-induction loop), and per-job stats plus an optional JSON report
// come back. Verdicts are deterministic for a fixed spec whatever
// --threads says, as long as budgets are deterministic: --conflicts
// qualifies, --time-cap does not (a wall cap can fire earlier under
// core contention) — see src/engine/campaign.hpp.
//
// Campaigns scale out across processes/hosts: --shard I/N runs the
// deterministic shard I of N (see src/engine/shard.hpp), --cache DIR
// lets a rerun of a failed leg resume from the verdict journal, and the
// merge subcommand folds the N shard reports back into one report whose
// stable JSON is byte-identical to an unsharded run. Any outside
// scheduler (xargs -P, a CI matrix, a cluster array job) launches the
// legs.
//
// Examples:
//   sepe-run --bugs table1 --rows 8 --threads 4
//   sepe-run --bugs xor_as_or,add_wrong --modes edsep --json report.json
//   sepe-run --healthy --max-k 6 --bound 6
//   sepe-run --bugs table1 --shard 2/4 --stable-json --json shard2.json
//   sepe-run corpus tests/corpus --bound 6 --max-k 2 --stable-json --json -
//   sepe-run merge --output merged.json shard0.json shard1.json ...
//
// Exit codes: 0 success; 1 I/O, merge-input or pinned-table synthesis
// failure; 2 usage error; 3 campaign finished with UNKNOWN
// verdicts (including parse-error rows). The full CLI contract lives in
// docs/CLI.md.
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/pinned_table.hpp"
#include "engine/report_io.hpp"
#include "engine/shard.hpp"
#include "engine/witness.hpp"
#include "engine/workload.hpp"
#include "proc/mutations.hpp"
#include "util/fault.hpp"
#include "util/parse.hpp"
#include "util/stopwatch.hpp"

using namespace sepe;
using isa::Opcode;

namespace {

/// Crash-only envelope (docs/ROBUSTNESS.md): SIGTERM/SIGINT raise the
/// cooperative stop flag every CDCL loop polls; the campaign winds down
/// (finished jobs are already in the verdict journal), writes a partial
/// report, and main exits 128+signal (143 / 130). Only async-signal-safe
/// work happens here.
volatile std::sig_atomic_t g_signal = 0;

void handle_terminate_signal(int sig) {
  g_signal = sig;
  fault::request_global_stop();
}

/// Fold an interrupt into the exit status: a run stopped by a signal (or
/// by an injected `stop` fault, which behaves like SIGTERM) reports
/// 128+signal however far it got, so wrappers can tell "finished with
/// UNKNOWNs" (3) from "was told to stop" (130/143).
int exit_code(int code) {
  const int sig =
      g_signal != 0 ? g_signal : (fault::global_stop_requested() ? SIGTERM : 0);
  return sig != 0 ? 128 + sig : code;
}

void usage() {
  std::printf(
      "sepe-run — parallel SEPE-SQED verification campaigns\n"
      "\n"
      "usage: sepe-run [options]                 QED workload (matrix expansion)\n"
      "       sepe-run corpus DIR [options]      BTOR2 corpus workload\n"
      "       sepe-run merge [--output FILE] SHARD.json...\n"
      "       sepe-run check-witness FILE...\n"
      "\n"
      "common options (both workload families):\n"
      "  --threads N      worker threads (default: hardware concurrency)\n"
      "  --bound N        falsification horizon: BMC bounds 0..N (default 10)\n"
      "  --max-k N        proof horizon: k-induction steps 1..N (default 10;\n"
      "                   0 = BMC only)\n"
      "  --encoding E     bit-blasting encoding: auto | tseitin | pg\n"
      "                   (default auto = the workload family's default:\n"
      "                   Tseitin for QED, Plaisted-Greenbaum for corpus)\n"
      "  --conflicts N    per-solver-call conflict budget (default none;\n"
      "                   deterministic, unlike --time-cap)\n"
      "  --time-cap SEC   per-job wall-clock cap (default none; verdicts under\n"
      "                   a wall cap may vary with load and --threads)\n"
      "  --memory-mb N    per-job SAT-arena memory ceiling in MiB (default none;\n"
      "                   deterministic — an over-budget job degrades to an\n"
      "                   UNKNOWN row diagnosed 'resource: memory')\n"
      "  --seed S         RNG seed recorded in the report (default 1)\n"
      "  --shard I/N      run only the deterministic shard I of N (0-based);\n"
      "                   the JSON report then carries shard metadata for merge\n"
      "  --cache DIR      journal finished jobs under DIR (verdicts.jsonl) and\n"
      "                   serve the ones journaled there: how an interrupted\n"
      "                   run resumes, and verdicts are reused across runs,\n"
      "                   shards, and campaigns; stable JSON is byte-identical\n"
      "                   warm or cold (see docs/FORMATS.md); wall-capped jobs\n"
      "                   (--time-cap) are never journaled\n"
      "  --json FILE      write a JSON report ('-' = stdout)\n"
      "  --stable-json    JSON omits timing and counter fields (byte-deterministic)\n"
      "  --witness        print each falsified job's counterexample, solved or\n"
      "                   served from --cache: the shrunk stimulus the witness\n"
      "                   post-pass checked (not with --no-witness-check)\n"
      "  --witness-dir D  write one standalone witness artifact per falsified\n"
      "                   job into D (*.witness, see docs/FORMATS.md) — each\n"
      "                   re-validatable later with check-witness\n"
      "  --no-witness-check\n"
      "                   skip the witness post-pass. By default every\n"
      "                   FALSIFIED verdict is replayed (and delta-debugged)\n"
      "                   on the concrete simulator, independent of the SAT\n"
      "                   stack; a trace that does not replay demotes its row\n"
      "                   to UNKNOWN ('witness: replay mismatch'). Stable JSON\n"
      "                   is byte-identical either way\n"
      "\n"
      "QED workload options:\n"
      "  --xlen W         DUV datapath width (default 4)\n"
      "  --modes M        eddi | edsep | both (default both)\n"
      "  --bugs LIST      comma-separated bug names, or: table1 | fig4 | all\n"
      "                   (default table1)\n"
      "  --rows N         only the first N instruction classes of the catalog\n"
      "  --healthy        verify the unmutated DUV instead of injecting bugs\n"
      "  --list-bugs      list the injectable bug catalog and exit\n"
      "\n"
      "corpus: every .btor2 file under DIR, one job per bad property\n"
      "(multi-property files fan out; malformed files become UNKNOWN rows\n"
      "with the parse diagnostic instead of aborting the campaign).\n"
      "\n"
      "merge: read N shard reports (any order), check they are disjoint and\n"
      "complete, and write the merged report as stable JSON — byte-identical\n"
      "to an unsharded --stable-json run of the same campaign.\n"
      "  --output FILE    merged report destination (default '-' = stdout)\n"
      "\n"
      "check-witness: re-validate standalone witness artifacts (--witness-dir\n"
      "output) from their bytes alone — self-check digest, embedded model,\n"
      "and a full replay on the concrete simulator; the SAT stack is never\n"
      "loaded. Exit 0 when every file is valid, 1 when any is rejected (each\n"
      "rejection is diagnosed on stderr), 2 on usage errors.\n"
      "\n"
      "exit codes: 0 success; 1 I/O, merge or pinned-table synthesis\n"
      "failure; 2 usage error; 3 the campaign finished with UNKNOWN\n"
      "verdicts; 130/143 the run was interrupted (SIGINT/SIGTERM) after\n"
      "writing a partial report — with --cache, re-running with the same\n"
      "flags resumes from the verdict journal.\n"
      "Fault injection (SEPE_FAULT) and the failure-mode matrix are\n"
      "documented in docs/ROBUSTNESS.md.\n");
}

void list_bugs() {
  std::printf("single-instruction bugs (Table 1):\n");
  for (const proc::Mutation& m : proc::table1_single_instruction_bugs())
    std::printf("  %-28s %s\n", m.name.c_str(), m.description.c_str());
  std::printf("multiple-instruction bugs (Figure 4):\n");
  for (const proc::Mutation& m : proc::figure4_multi_instruction_bugs(true))
    std::printf("  %-28s %s\n", m.name.c_str(), m.description.c_str());
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string piece = s.substr(start, comma - start);
    if (!piece.empty()) out.push_back(piece);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// --- strict option-value parsing: malformed values are usage errors
// --- (exit 2) with a diagnostic, never silently-zero atoi results ---

[[noreturn]] void die_usage(const char* flag, const char* expected, const char* got) {
  std::fprintf(stderr, "sepe-run: %s expects %s, got '%s' — try --help\n", flag,
               expected, got);
  std::exit(2);
}

std::uint64_t parse_u64_arg(const char* flag, const char* text) {
  const auto value = parse_u64_strict(text);
  if (!value) die_usage(flag, "an unsigned integer", text);
  return *value;
}

unsigned parse_unsigned_arg(const char* flag, const char* text, unsigned min_value,
                            unsigned max_value = ~0u) {
  const std::uint64_t value = parse_u64_arg(flag, text);
  if (value < min_value || value > max_value) {
    char expected[64];
    std::snprintf(expected, sizeof expected, "an integer in [%u, %u]", min_value,
                  max_value);
    die_usage(flag, expected, text);
  }
  return static_cast<unsigned>(value);
}

double parse_seconds_arg(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !std::isfinite(value) ||
      value < 0.0)
    die_usage(flag, "a non-negative number of seconds", text);
  return value;
}

/// Options shared by every workload family's campaign run.
struct CommonOptions {
  unsigned threads = 0;
  unsigned bound = 10;
  unsigned max_k = 10;
  bool stable_json = false;
  bool print_witness = false;
  std::uint64_t conflicts = 0;
  std::uint64_t seed = 1;
  double time_cap = 0.0;
  unsigned memory_mb = 0;
  bool witness_check = true;
  std::string witness_dir;
  std::string json_path;
  std::string cache_dir;
  std::optional<engine::ShardSpec> shard;
  std::optional<bool> plaisted_greenbaum;  // nullopt = workload default

  engine::JobBudget budget() const {
    engine::JobBudget b;
    b.max_bound = bound;
    b.max_k = max_k;
    b.conflict_budget = conflicts;
    b.max_seconds = time_cap;
    b.memory_limit_mb = memory_mb;
    b.plaisted_greenbaum = plaisted_greenbaum;
    return b;
  }
};

/// Consume argv[i] (advancing i past a value argument) when it is one of
/// the family-independent campaign flags. Malformed values exit 2.
bool parse_common_flag(int& i, int argc, char** argv, CommonOptions* o) {
  const auto next = [&](const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "sepe-run: %s needs a value — try --help\n", flag);
      std::exit(2);
    }
    return argv[++i];
  };
  if (!std::strcmp(argv[i], "--threads"))
    o->threads = parse_unsigned_arg("--threads", next("--threads"), 1);
  else if (!std::strcmp(argv[i], "--bound"))
    o->bound = parse_unsigned_arg("--bound", next("--bound"), 0);
  else if (!std::strcmp(argv[i], "--max-k"))
    o->max_k = parse_unsigned_arg("--max-k", next("--max-k"), 0);
  else if (!std::strcmp(argv[i], "--encoding")) {
    const char* value = next("--encoding");
    if (!std::strcmp(value, "auto"))
      o->plaisted_greenbaum.reset();
    else if (!std::strcmp(value, "tseitin"))
      o->plaisted_greenbaum = false;
    else if (!std::strcmp(value, "pg"))
      o->plaisted_greenbaum = true;
    else
      die_usage("--encoding", "auto | tseitin | pg", value);
  } else if (!std::strcmp(argv[i], "--conflicts"))
    o->conflicts = parse_u64_arg("--conflicts", next("--conflicts"));
  else if (!std::strcmp(argv[i], "--time-cap"))
    o->time_cap = parse_seconds_arg("--time-cap", next("--time-cap"));
  else if (!std::strcmp(argv[i], "--memory-mb"))
    o->memory_mb = parse_unsigned_arg("--memory-mb", next("--memory-mb"), 1);
  else if (!std::strcmp(argv[i], "--seed"))
    o->seed = parse_u64_arg("--seed", next("--seed"));
  else if (!std::strcmp(argv[i], "--shard")) {
    engine::ShardSpec parsed;
    std::string shard_error;
    if (!engine::parse_shard(next("--shard"), &parsed, &shard_error)) {
      std::fprintf(stderr, "sepe-run: %s — try --help\n", shard_error.c_str());
      std::exit(2);
    }
    o->shard = parsed;
  } else if (!std::strcmp(argv[i], "--cache"))
    o->cache_dir = next("--cache");
  else if (!std::strcmp(argv[i], "--json"))
    o->json_path = next("--json");
  else if (!std::strcmp(argv[i], "--stable-json"))
    o->stable_json = true;
  else if (!std::strcmp(argv[i], "--witness"))
    o->print_witness = true;
  else if (!std::strcmp(argv[i], "--witness-dir"))
    o->witness_dir = next("--witness-dir");
  else if (!std::strcmp(argv[i], "--no-witness-check"))
    o->witness_check = false;
  else
    return false;
  return true;
}

/// Run the expanded spec (sharded/journaled as requested) and emit
/// the table + optional JSON report. Shared campaign epilogue of both
/// workload families.
int run_and_report(const engine::CampaignSpec& spec, const CommonOptions& common,
                   const std::string& fingerprint) {
  engine::ShardRunOptions options;
  options.pool.threads = common.threads;
  options.pool.witness.check = common.witness_check;
  if (common.print_witness && !common.witness_check) {
    // The printed table is the checked trace the post-pass leaves on each
    // row; a row served from the journal has no other.
    std::fprintf(stderr, "sepe-run: --witness needs the witness post-pass "
                         "(drop --no-witness-check) — try --help\n");
    return 2;
  }
  if (!common.witness_dir.empty()) {
    if (!common.witness_check) {
      // Artifacts are the post-pass's output; without it the directory
      // would stay silently empty and a later check-witness audit would
      // demote every row.
      std::fprintf(stderr, "sepe-run: --witness-dir needs the witness post-pass "
                           "(drop --no-witness-check) — try --help\n");
      return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(common.witness_dir, ec);
    if (ec) {
      std::fprintf(stderr, "sepe-run: cannot create witness directory '%s': %s\n",
                   common.witness_dir.c_str(), ec.message().c_str());
      return exit_code(1);
    }
    options.pool.witness.artifact_dir = common.witness_dir;
  }
  options.shard = common.shard;
  options.cache_dir = common.cache_dir;
  // Campaign parameters the JobSpecs cannot expose (they shape the model
  // builders): folded into every journal key, so a resume under
  // different flags misses instead of reusing stale verdicts.
  options.fingerprint = fingerprint;
  std::string run_error;
  engine::CampaignReport report = engine::run_sharded(spec, options, &run_error);
  if (!run_error.empty()) {
    std::fprintf(stderr, "sepe-run: %s\n", run_error.c_str());
    return exit_code(1);
  }
  std::size_t served = 0;
  for (const engine::JobResult& j : report.jobs) served += j.from_cache;
  if (served > 0)
    std::fprintf(stderr,
                 "sepe-run: %zu of %zu job(s) served from the verdict journal in %s\n",
                 served, report.jobs.size(), common.cache_dir.c_str());

  // Interrupted (SIGTERM/SIGINT or an injected stop fault): the rows of
  // jobs this run never claimed — never started, or wound down UNKNOWN by
  // the stop — carry no information. Drop them so the partial report
  // holds exactly the finished jobs, then exit 128+signal below. With
  // --cache the finished jobs are already journaled, and the resumed run
  // completes the campaign byte-identically.
  const bool interrupted = fault::global_stop_requested();
  if (interrupted) {
    std::vector<engine::JobResult> kept;
    for (engine::JobResult& j : report.jobs)
      if (!j.name.empty()) kept.push_back(std::move(j));
    report.jobs = std::move(kept);
  }

  std::printf("%s", report.to_table().c_str());
  if (common.print_witness) {
    for (const engine::JobResult& j : report.jobs) {
      const std::string table = engine::witness_table(spec.jobs[j.spec_index], j);
      if (!table.empty()) std::printf("\n[%s]\n%s", j.name.c_str(), table.c_str());
    }
  }

  if (!common.json_path.empty()) {
    const std::string json = report.to_json(/*include_timing=*/!common.stable_json);
    if (common.json_path == "-") {
      std::printf("\n%s", json.c_str());
    } else {
      if (!engine::write_text_file_atomic(common.json_path, json, "report.write")) {
        std::fprintf(stderr, "sepe-run: cannot write '%s'\n",
                     common.json_path.c_str());
        return exit_code(1);
      }
      std::printf("\n%s report written to %s\n",
                  interrupted ? "partial JSON" : "JSON", common.json_path.c_str());
    }
  }
  if (interrupted)
    std::fprintf(stderr, "sepe-run: interrupted — %zu job(s) finished; %s\n",
                 report.jobs.size(),
                 common.cache_dir.empty()
                     ? "add --cache DIR to make interrupts resumable"
                     : "re-run with the same flags to resume from the verdict journal");

  // Exit status: 0 when every job reached a definite or clean verdict
  // (and 128+signal when the run was told to stop).
  return exit_code(report.count(engine::Verdict::Unknown) == 0 ? 0 : 3);
}

/// `sepe-run merge [--output FILE] SHARD.json...` — fan the shard
/// reports back in. Diagnostics go to stderr so `--output -` pipes
/// clean JSON.
int run_merge(int argc, char** argv) {
  std::string out_path = "-";
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--output")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sepe-run: --output needs a value — try --help\n");
        return 2;
      }
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage();
      return 0;
    } else if (argv[i][0] == '-') {
      // '-' is stdout for --output but not a supported input source.
      std::fprintf(stderr, "sepe-run: merge inputs must be shard report files, "
                           "got '%s' — try --help\n",
                   argv[i]);
      return 2;
    } else {
      inputs.push_back(argv[i]);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "sepe-run: merge needs at least one shard report — "
                         "try --help\n");
    return 2;
  }

  std::vector<engine::CampaignReport> shards;
  shards.reserve(inputs.size());
  for (const std::string& path : inputs) {
    const auto text = engine::read_text_file(path);
    if (!text) {
      std::fprintf(stderr, "sepe-run: cannot read '%s'\n", path.c_str());
      return 1;
    }
    engine::CampaignReport report;
    std::string parse_error;
    if (!engine::parse_report(*text, &report, &parse_error)) {
      std::fprintf(stderr, "sepe-run: '%s' is not a campaign report: %s\n",
                   path.c_str(), parse_error.c_str());
      return 1;
    }
    shards.push_back(std::move(report));
  }

  std::string merge_error;
  const auto merged = engine::CampaignReport::merge(shards, &merge_error);
  if (!merged) {
    std::fprintf(stderr, "sepe-run: merge failed: %s\n", merge_error.c_str());
    return 1;
  }

  const std::string json = merged->to_json(/*include_timing=*/false);
  if (out_path == "-") {
    std::printf("%s", json.c_str());
  } else {
    if (!engine::write_text_file_atomic(out_path, json, "report.write")) {
      std::fprintf(stderr, "sepe-run: cannot write '%s'\n", out_path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "merged %zu shards -> %zu jobs: %u falsified, %u proved, "
               "%u bound-clean, %u unknown\n",
               shards.size(), merged->jobs.size(),
               merged->count(engine::Verdict::Falsified),
               merged->count(engine::Verdict::Proved),
               merged->count(engine::Verdict::BoundClean),
               merged->count(engine::Verdict::Unknown));
  return merged->count(engine::Verdict::Unknown) == 0 ? 0 : 3;
}

/// `sepe-run check-witness FILE...` — re-validate standalone witness
/// artifacts with the concrete simulator alone. The SAT stack is never
/// loaded: this is the independent audit path for artifacts produced by
/// --witness-dir, wherever (and by whichever binary) they were written.
int run_check_witness(int argc, char** argv) {
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage();
      return 0;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "sepe-run: check-witness takes artifact files, got '%s' — "
                   "try --help\n",
                   argv[i]);
      return 2;
    }
    files.push_back(argv[i]);
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "sepe-run: check-witness needs at least one artifact file — "
                 "try --help\n");
    return 2;
  }

  unsigned rejected = 0;
  for (const std::string& path : files) {
    const auto text = engine::read_text_file(path);
    if (!text) {
      std::fprintf(stderr, "sepe-run: cannot read '%s'\n", path.c_str());
      ++rejected;
      continue;
    }
    engine::WitnessArtifact artifact;
    std::string why;
    if (!engine::check_witness_text(*text, &artifact, &why)) {
      std::fprintf(stderr, "sepe-run: '%s' REJECTED: %s\n", path.c_str(),
                   why.c_str());
      ++rejected;
      continue;
    }
    const engine::WitnessHeader& header = artifact.header;
    std::printf("%s: valid witness for job '%s' (%s): bad '%s' fires at bound "
                "%u, effective stimulus %u step(s)\n",
                path.c_str(), header.name.c_str(),
                header.mode.empty() ? header.family.c_str() : header.mode.c_str(),
                header.bad_label.c_str(), header.length, header.shrunk);
  }
  if (rejected > 0)
    std::fprintf(stderr, "sepe-run: %u of %zu artifact(s) rejected\n", rejected,
                 files.size());
  return rejected == 0 ? 0 : 1;
}

/// `sepe-run corpus DIR [options]` — the BTOR2 corpus workload family.
int run_corpus(int argc, char** argv) {
  CommonOptions common;
  std::string directory;
  for (int i = 2; i < argc; ++i) {
    if (parse_common_flag(i, argc, argv, &common)) continue;
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage();
      return 0;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "sepe-run: unknown corpus flag '%s' — try --help\n",
                   argv[i]);
      return 2;
    }
    if (!directory.empty()) {
      std::fprintf(stderr, "sepe-run: corpus takes one directory, got '%s' and "
                           "'%s' — try --help\n",
                   directory.c_str(), argv[i]);
      return 2;
    }
    directory = argv[i];
  }
  if (directory.empty()) {
    std::fprintf(stderr, "sepe-run: corpus needs a directory — try --help\n");
    return 2;
  }

  const engine::Btor2CorpusSource source(directory, common.budget());
  std::string expand_error;
  const auto spec = engine::expand_source(source, common.seed, &expand_error);
  if (!spec) {
    std::fprintf(stderr, "sepe-run: %s\n", expand_error.c_str());
    return 1;
  }

  std::printf("corpus campaign: %zu jobs from '%s', bound=%u, max-k=%u\n",
              spec->jobs.size(), directory.c_str(), common.bound, common.max_k);
  if (common.shard)
    std::printf("shard %u/%u of the expanded job list\n", common.shard->index,
                common.shard->count);
  std::printf("\n");

  // Budgets and per-file content hashes are covered by every journal key
  // already; the fingerprint pins the family.
  return run_and_report(*spec, common, "workload=btor2");
}

}  // namespace

int main(int argc, char** argv) {
  // Crash-only envelope first: every subcommand stops cooperatively on
  // SIGTERM/SIGINT and exits 128+signal after writing a partial report.
  std::signal(SIGTERM, handle_terminate_signal);
  std::signal(SIGINT, handle_terminate_signal);
  // Arm SEPE_FAULT before any work happens; see docs/ROBUSTNESS.md.
  fault::init_from_environment();

  if (argc > 1 && !std::strcmp(argv[1], "merge")) return run_merge(argc, argv);
  if (argc > 1 && !std::strcmp(argv[1], "corpus")) return run_corpus(argc, argv);
  if (argc > 1 && !std::strcmp(argv[1], "check-witness"))
    return run_check_witness(argc, argv);

  CommonOptions common;
  unsigned xlen = 4, rows = ~0u;
  bool healthy = false;
  std::string modes_arg = "both", bugs_arg = "table1";

  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sepe-run: %s needs a value — try --help\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (parse_common_flag(i, argc, argv, &common)) continue;
    if (!std::strcmp(argv[i], "--xlen"))
      xlen = parse_unsigned_arg("--xlen", next("--xlen"), 2, 32);
    else if (!std::strcmp(argv[i], "--modes")) modes_arg = next("--modes");
    else if (!std::strcmp(argv[i], "--bugs")) bugs_arg = next("--bugs");
    else if (!std::strcmp(argv[i], "--rows"))
      rows = parse_unsigned_arg("--rows", next("--rows"), 1);
    else if (!std::strcmp(argv[i], "--healthy")) healthy = true;
    else if (!std::strcmp(argv[i], "--list-bugs")) { list_bugs(); return 0; }
    else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "sepe-run: unknown flag '%s' — try --help\n", argv[i]);
      return 2;
    }
  }

  engine::CampaignMatrix matrix;
  matrix.xlen = xlen;
  matrix.budget = common.budget();

  if (modes_arg == "eddi") {
    matrix.modes = {qed::QedMode::EddiV};
  } else if (modes_arg == "edsep") {
    matrix.modes = {qed::QedMode::EdsepV};
  } else if (modes_arg == "both") {
    matrix.modes = {qed::QedMode::EddiV, qed::QedMode::EdsepV};
  } else {
    std::fprintf(stderr, "sepe-run: unknown --modes '%s' (eddi|edsep|both) — "
                         "try --help\n",
                 modes_arg.c_str());
    return 2;
  }

  // Resolve the mutation list.
  const auto table1 = proc::table1_single_instruction_bugs();
  const auto fig4 = proc::figure4_multi_instruction_bugs(/*with_memory=*/true);
  if (!healthy) {
    std::vector<proc::Mutation> selected;
    if (bugs_arg == "table1") {
      selected = table1;
    } else if (bugs_arg == "fig4") {
      selected = fig4;
    } else if (bugs_arg == "all") {
      selected = table1;
      selected.insert(selected.end(), fig4.begin(), fig4.end());
    } else {
      for (const std::string& name : split_csv(bugs_arg)) {
        bool found = false;
        for (const auto* catalog : {&table1, &fig4}) {
          for (const proc::Mutation& m : *catalog)
            if (m.name == name) {
              selected.push_back(m);
              found = true;
            }
        }
        if (!found) {
          std::fprintf(stderr, "sepe-run: unknown bug '%s' — try --list-bugs\n",
                       name.c_str());
          return 2;
        }
        // Job names double as the stable shard/merge ids, so a bug may
        // be requested only once.
        for (std::size_t a = 0; a + 1 < selected.size(); ++a)
          if (selected[a].name == selected.back().name) {
            std::fprintf(stderr, "sepe-run: duplicate bug '%s' in --bugs — "
                                 "try --help\n",
                         name.c_str());
            return 2;
          }
      }
    }
    if (rows < selected.size()) selected.resize(rows);
    if (selected.empty()) {
      std::fprintf(stderr, "sepe-run: no bugs selected (use --healthy for an "
                           "unmutated DUV) — try --help\n");
      return 2;
    }
    matrix.mutations = std::move(selected);
  }

  // Figure-4 interaction bugs need a producer/consumer instruction mix in
  // the DUV; the campaign derives the rest (target + replay opcodes).
  matrix.extra_opcodes = {Opcode::ADD, Opcode::ADDI};

  const bool needs_table = modes_arg != "eddi";
  std::unique_ptr<engine::PinnedTable> pinned;
  if (needs_table) {
    // make_pinned_table loads the compiled-in table at its width and
    // synthesizes every other width.
    const bool compiled_in = xlen == engine::kPinnedTextXlen;
    std::printf("%s the pinned equivalence table (xlen=%u)...\n",
                compiled_in ? "loading" : "synthesizing", xlen);
    Stopwatch synth_clock;
    std::string failed_key;
    pinned = engine::make_pinned_table(xlen, &failed_key);
    if (!pinned) {
      std::fprintf(stderr, "sepe-run: the pinned equivalence for %s failed to %s "
                           "at xlen %u\n",
                   failed_key.c_str(), compiled_in ? "load" : "synthesize", xlen);
      return 1;
    }
    std::printf("table ready: %zu instructions, %.2fs\n\n", pinned->table.size(),
                synth_clock.seconds());
    matrix.equivalences = &pinned->table;
  }

  const engine::CampaignSpec spec = engine::expand(matrix, common.seed);
  std::printf("campaign: %zu jobs (%zu instruction classes × %zu modes), "
              "bound=%u, max-k=%u\n",
              spec.jobs.size(),
              matrix.mutations.empty() ? 1 : matrix.mutations.size(),
              matrix.modes.size(), common.bound, common.max_k);
  if (common.shard)
    std::printf("shard %u/%u of the expanded job list\n", common.shard->index,
                common.shard->count);
  std::printf("\n");

  return run_and_report(spec, common,
                        "xlen=" + std::to_string(xlen) + ";modes=" + modes_arg);
}
