// table1_single_instr — reproduces Table 1: thirteen injected
// single-instruction bugs; SEPE-SQED (EDSEP-V) detects every one, SQED
// (EDDI-V) detects none.
//
// Runs as two campaigns on the parallel verification engine
// (src/engine): first every EDSEP-V job fans out across the worker
// pool (expect a counterexample per row: detection time reported), then
// the EDDI-V jobs run with each row's bound set two past the depth
// where EDSEP-V already saw the bug (expect *no* counterexample:
// reported as "-", exactly the paper's column). The DUV opcode set per
// row is the target instruction plus its replay's opcodes, the
// smallest design that exercises the bug (the paper's RIDECORE carries
// the full ISA; the shape — detect vs not — is what transfers).
//
// Flags: --xlen W (datapath, default 4), --bound N (BMC bound, default
// 10), --sqed-cap SEC (EDDI-V per-row wall cap, default 60), --rows N,
// --threads N (worker pool size, default: hardware concurrency),
// --shard I/N (run only the deterministic row-shard I of N, so the
// thirteen rows can be split across machines and the printed sub-tables
// concatenated).
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "engine/shard.hpp"
#include "qed_bench_util.hpp"

using namespace sepe;
using namespace sepe::bench;
using isa::Opcode;

int main(int argc, char** argv) {
  unsigned xlen = 4, bound = 10, rows_limit = 13, threads = 0;
  double sqed_cap = 60.0;
  engine::ShardSpec shard;  // default 0/1 = every row
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--xlen") && i + 1 < argc) xlen = std::atoi(argv[++i]);
    if (!std::strcmp(argv[i], "--bound") && i + 1 < argc) bound = std::atoi(argv[++i]);
    if (!std::strcmp(argv[i], "--sqed-cap") && i + 1 < argc)
      sqed_cap = std::atof(argv[++i]);
    if (!std::strcmp(argv[i], "--rows") && i + 1 < argc)
      rows_limit = std::atoi(argv[++i]);
    if (!std::strcmp(argv[i], "--threads") && i + 1 < argc)
      threads = std::atoi(argv[++i]);
    if (!std::strcmp(argv[i], "--shard") && i + 1 < argc) {
      std::string error;
      if (!engine::parse_shard(argv[++i], &shard, &error)) {
        std::fprintf(stderr, "table1_single_instr: %s\n", error.c_str());
        return 2;
      }
    }
  }

  std::printf("Table 1 — injected single-instruction bugs (xlen=%u, bound=%u)\n", xlen,
              bound);
  std::printf("%s the pinned equivalence table...\n",
              xlen == engine::kPinnedTextXlen ? "loading" : "synthesizing");
  const auto pinned = make_bench_table(xlen);

  auto bugs = proc::table1_single_instruction_bugs();
  if (rows_limit < bugs.size()) bugs.resize(rows_limit);

  // Optional scale-out: keep only this shard's rows. Each row yields one
  // EDSEP-V and one EDDI-V job whose budget depends on that row's
  // EDSEP-V result, so rows (not jobs) are the sharding unit here.
  if (shard.count > 1) {
    std::vector<std::string> ids;
    for (const proc::Mutation& bug : bugs) ids.push_back(bug.name);
    const std::vector<unsigned> assignment = engine::shard_assignment(ids, shard.count);
    std::vector<proc::Mutation> mine;
    for (std::size_t i = 0; i < bugs.size(); ++i)
      if (assignment[i] == shard.index) mine.push_back(bugs[i]);
    std::printf("shard %u/%u: %zu of %zu rows\n", shard.index, shard.count,
                mine.size(), bugs.size());
    bugs = std::move(mine);
    if (bugs.empty()) {
      std::printf("no rows fall into this shard — nothing to do\n");
      return 0;
    }
  }

  // Per-row DUV derivation (target + its replay's opcodes, memory sized to
  // the address space) shared with engine::expand via derive_duv_config.
  engine::CampaignMatrix matrix;
  matrix.xlen = xlen;
  matrix.mem_words = 8;
  matrix.equivalences = &pinned->table;
  const auto job_config = [&](const proc::Mutation& bug) {
    return engine::derive_duv_config(matrix, &bug);
  };

  engine::CampaignOptions pool;
  pool.threads = threads;

  // --- campaign 1: SEPE-SQED (EDSEP-V), one job per row ---
  engine::CampaignSpec sepe_spec;
  for (const proc::Mutation& bug : bugs) {
    engine::JobBudget budget;
    budget.max_bound = bound;
    budget.max_k = 0;  // Table 1 is a pure BMC experiment
    sepe_spec.jobs.push_back(engine::make_qed_job(bug.name + "/EDSEP-V",
                                                  qed::QedMode::EdsepV, job_config(bug),
                                                  bug, &pinned->table, budget));
  }
  const engine::CampaignReport sepe = engine::run_campaign(sepe_spec, pool);

  // --- campaign 2: SQED (EDDI-V); sweep at least two bounds past the
  // depth where SEPE-SQED already sees the bug — enough to substantiate
  // the "-" — under the per-row wall cap. ---
  engine::CampaignSpec sqed_spec;
  for (std::size_t i = 0; i < bugs.size(); ++i) {
    engine::JobBudget budget;
    budget.max_bound = sepe.jobs[i].verdict == engine::Verdict::Falsified
                           ? sepe.jobs[i].trace_length + 2
                           : bound;
    budget.max_seconds = sqed_cap;
    budget.max_k = 0;
    sqed_spec.jobs.push_back(engine::make_qed_job(bugs[i].name + "/EDDI-V",
                                                  qed::QedMode::EddiV,
                                                  job_config(bugs[i]), bugs[i], nullptr,
                                                  budget));
  }
  const engine::CampaignReport sqed = engine::run_campaign(sqed_spec, pool);

  std::printf("\n%-8s %-28s | %-14s | %s\n", "Type", "Injected bug", "SEPE-SQED",
              "SQED");
  std::printf("---------------------------------------+----------------+------------\n");

  unsigned sepe_found = 0, sqed_found = 0;
  for (std::size_t i = 0; i < bugs.size(); ++i) {
    const engine::JobResult& s = sepe.jobs[i];
    const engine::JobResult& q = sqed.jobs[i];
    char sepe_cell[32], sqed_cell[32];
    if (s.verdict == engine::Verdict::Falsified) {
      std::snprintf(sepe_cell, sizeof sepe_cell, "%.2fs (len %u)", s.seconds,
                    s.trace_length);
      ++sepe_found;
    } else {
      std::snprintf(sepe_cell, sizeof sepe_cell, "MISSED");
    }
    if (q.verdict == engine::Verdict::Falsified) {
      std::snprintf(sqed_cell, sizeof sqed_cell, "%.2fs (!)", q.seconds);
      ++sqed_found;
    } else {
      // The paper's "-": no counterexample. Distinguish a finished bound
      // sweep from a wall-cap stop (both support the "-" verdict; the cap
      // is reported for honesty).
      std::snprintf(sqed_cell, sizeof sqed_cell,
                    q.hit_resource_limit ? "- (cap %.0fs)" : "-", q.seconds);
    }
    std::printf("%-8s %-28s | %-14s | %s\n", isa::opcode_name(bugs[i].target),
                bugs[i].description.substr(0, 28).c_str(), sepe_cell, sqed_cell);
  }

  std::printf("\nSEPE-SQED detected %u/%zu, SQED detected %u/%zu "
              "(paper: 13/13 vs 0/13)\n",
              sepe_found, bugs.size(), sqed_found, bugs.size());
  std::printf("engine: %u threads, %.2fs + %.2fs wall for the two campaigns\n",
              sepe.threads, sepe.wall_seconds, sqed.wall_seconds);
  return 0;
}
