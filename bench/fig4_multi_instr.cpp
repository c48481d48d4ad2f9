// fig4_multi_instr — reproduces Figure 4: twenty injected
// multiple-instruction bugs, detected by BOTH methods; per bug the
// detection runtime and counterexample length of SQED (EDDI-V) and
// SEPE-SQED (EDSEP-V) are reported, plus the SQED/SEPE ratio curves of
// the paper (runtime ratio and counterexample-length ratio).
//
// Flags: --xlen W (default 6), --bound N (default 12), --cap SEC
// (per-run wall cap, default 120), --rows N (first N bugs).
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "qed_bench_util.hpp"

using namespace sepe;
using namespace sepe::bench;
using isa::Opcode;

int main(int argc, char** argv) {
  unsigned xlen = 4, bound = 12, rows_limit = 20;
  double cap = 120.0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--xlen") && i + 1 < argc) xlen = std::atoi(argv[++i]);
    if (!std::strcmp(argv[i], "--bound") && i + 1 < argc) bound = std::atoi(argv[++i]);
    if (!std::strcmp(argv[i], "--cap") && i + 1 < argc) cap = std::atof(argv[++i]);
    if (!std::strcmp(argv[i], "--rows") && i + 1 < argc)
      rows_limit = std::atoi(argv[++i]);
  }

  std::printf("Figure 4 — multiple-instruction bugs (xlen=%u, bound=%u, cap=%.0fs)\n",
              xlen, bound, cap);
  std::printf("%s the pinned equivalence table...\n",
              xlen == engine::kPinnedTextXlen ? "loading" : "synthesizing");
  auto pinned = make_bench_table(xlen);
  // MUL equivalence (negation conjugation) for the MUL-consumer bug.
  pinned->add("MUL", synth::make_spec(Opcode::MUL), {"NEG", "MUL_C", "NEG"}, xlen);

  const bool with_memory = true;
  const auto bugs = proc::figure4_multi_instruction_bugs(with_memory);

  std::printf("\n%-3s %-26s | %-15s | %-15s | %-8s %-8s\n", "No.", "bug", "SQED",
              "SEPE-SQED", "t-ratio", "len-ratio");
  std::printf("-------------------------------+-----------------+-----------------+"
              "------------------\n");

  unsigned both = 0, done = 0, sepe_shorter_or_equal = 0;
  double tratio_sum = 0;
  unsigned tratio_n = 0;
  for (std::size_t i = 0; i < bugs.size() && i < rows_limit; ++i) {
    const proc::Mutation& bug = bugs[i];

    proc::ProcConfig config;
    config.xlen = xlen;
    // Largest power-of-two memory the address space supports (cap 8).
    config.mem_words = xlen >= 5 ? 8 : (1u << (xlen - 2));
    // Producer/consumer mix: ADDI produces, ADD consumes; add the bug's
    // own target opcode and its replay's opcodes.
    config.opcodes = {Opcode::ADD, Opcode::ADDI};
    const auto add_unique = [&](Opcode op) {
      for (Opcode o : config.opcodes)
        if (o == op) return;
      config.opcodes.push_back(op);
    };
    if (bug.target != Opcode::NOP) add_unique(bug.target);
    for (Opcode base : std::vector<Opcode>(config.opcodes))
      for (Opcode op : replay_opcodes(*pinned, base)) add_unique(op);

    const QedRunResult sqed = run_qed_bmc(qed::QedMode::EddiV, config, nullptr, &bug,
                                          bound, cap);
    const QedRunResult sepe = run_qed_bmc(qed::QedMode::EdsepV, config, &pinned->table,
                                          &bug, bound, cap);

    char sqed_cell[32], sepe_cell[32];
    if (sqed.found)
      std::snprintf(sqed_cell, sizeof sqed_cell, "%.2fs len %u", sqed.seconds,
                    sqed.trace_length);
    else
      std::snprintf(sqed_cell, sizeof sqed_cell, "missed");
    if (sepe.found)
      std::snprintf(sepe_cell, sizeof sepe_cell, "%.2fs len %u", sepe.seconds,
                    sepe.trace_length);
    else
      std::snprintf(sepe_cell, sizeof sepe_cell, "missed");

    if (sqed.found && sepe.found) {
      ++both;
      const double tr = sepe.seconds > 0 ? sqed.seconds / sepe.seconds : 0;
      const double lr =
          sepe.trace_length > 0 ? double(sqed.trace_length) / sepe.trace_length : 0;
      tratio_sum += tr;
      ++tratio_n;
      if (sepe.trace_length <= sqed.trace_length) ++sepe_shorter_or_equal;
      std::printf("%-3zu %-26s | %-15s | %-15s | %-8.2f %-8.2f\n", i + 1,
                  bug.name.substr(0, 26).c_str(), sqed_cell, sepe_cell, tr, lr);
    } else {
      std::printf("%-3zu %-26s | %-15s | %-15s | %-8s %-8s\n", i + 1,
                  bug.name.substr(0, 26).c_str(), sqed_cell, sepe_cell, "-", "-");
    }
    std::fflush(stdout);
    ++done;
  }

  std::printf("\nboth methods detected %u/%u bugs (paper: all)\n", both, done);
  if (tratio_n)
    std::printf("mean SQED/SEPE runtime ratio: %.2f  |  SEPE trace <= SQED trace on "
                "%u/%u bugs\n", tratio_sum / tratio_n, sepe_shorter_or_equal, tratio_n);
  return 0;
}
