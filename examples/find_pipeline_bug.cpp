// find_pipeline_bug — the verification half of the paper (Fig. 1 lower
// path, Fig. 2 model): inject a named RTL mutation into the pipelined
// DUV, attach BOTH QED modules, and model-check them as a two-job
// campaign on the parallel engine — each job one BMC + k-induction
// loop — to compare what SQED and SEPE-SQED can see.
//
// Usage: ./examples/find_pipeline_bug [BUG_NAME]
//        ./examples/find_pipeline_bug --list
//        default bug: xor_as_or (a Table-1 single-instruction bug)
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "engine/campaign.hpp"
#include "engine/witness.hpp"
#include "engine/workload.hpp"
#include "proc/mutations.hpp"
#include "qed/qed_module.hpp"
#include "synth/cegis.hpp"

using namespace sepe;
using isa::Opcode;

namespace {

std::optional<proc::Mutation> find_bug(const std::string& name) {
  for (proc::Mutation& m : proc::table1_single_instruction_bugs())
    if (m.name == name) return m;
  for (proc::Mutation& m : proc::figure4_multi_instruction_bugs(true))
    if (m.name == name) return m;
  return std::nullopt;
}

void list_bugs() {
  std::printf("single-instruction bugs (Table 1):\n");
  for (const proc::Mutation& m : proc::table1_single_instruction_bugs())
    std::printf("  %-28s %s\n", m.name.c_str(), m.description.c_str());
  std::printf("multiple-instruction bugs (Figure 4):\n");
  for (const proc::Mutation& m : proc::figure4_multi_instruction_bugs(true))
    std::printf("  %-28s %s\n", m.name.c_str(), m.description.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string bug_name = argc > 1 ? argv[1] : "xor_as_or";
  if (bug_name == "--list") {
    list_bugs();
    return 0;
  }
  const auto bug = find_bug(bug_name);
  if (!bug) {
    std::fprintf(stderr, "unknown bug '%s' — try --list\n", bug_name.c_str());
    return 2;
  }
  std::printf("injected bug: %s\n  %s\n  class: %s\n\n", bug->name.c_str(),
              bug->description.c_str(),
              bug->single_instruction ? "single-instruction (Table 1)"
                                      : "multiple-instruction (Figure 4)");

  // Equivalence table for the instructions this demo streams. Synthesized
  // on the spot with HPF-CEGIS over the standard library.
  const auto library = synth::make_standard_library();
  std::vector<synth::SynthSpec> specs;
  specs.reserve(8);
  synth::EquivalenceTable table;
  constexpr unsigned kDuvXlen = 4;
  const auto synthesize = [&](Opcode op) {
    specs.push_back(synth::make_spec(op));
    synth::DriverOptions driver;
    driver.cegis.xlen = kDuvXlen;  // match the DUV width: solved constants
                                   // are only guaranteed at this width
    driver.multiset_size = 3;
    driver.target_programs = 3;
    driver.max_seconds = 60.0;
    synth::HpfOptions hpf;
    auto r = synth::hpf_cegis(specs.back(), library, driver, hpf);
    // Prefer a program that avoids the instruction's own opcode — maximum
    // datapath separation (§4.2's alpha-penalty goal).
    const synth::SynthProgram* chosen = nullptr;
    for (const synth::SynthProgram& p : r.programs)
      if (!p.uses_opcode(op) && synth::verify_program(p, kDuvXlen)) chosen = &p;
    if (!chosen)
      for (const synth::SynthProgram& p : r.programs)
        if (synth::verify_program(p, kDuvXlen)) chosen = &p;
    if (chosen) table.add(isa::opcode_name(op), *chosen);
    std::printf("equivalence for %-5s: %s\n", isa::opcode_name(op),
                chosen ? "synthesized" : "NOT FOUND");
  };

  // Stream the bug's own instruction (if any) plus a producer pair.
  std::vector<Opcode> stream = {Opcode::ADD, Opcode::ADDI};
  if (bug->target != Opcode::NOP && !isa::is_store(bug->target) &&
      !isa::is_load(bug->target)) {
    bool present = false;
    for (Opcode op : stream) present |= (op == bug->target);
    if (!present) stream.push_back(bug->target);
  }
  std::printf("synthesizing equivalences for the instruction stream...\n");
  for (Opcode op : stream) synthesize(op);
  std::printf("\n");

  // DUV opcode set: stream + everything the replays issue.
  proc::ProcConfig config;
  config.xlen = kDuvXlen;
  config.mem_words = 8;
  config.opcodes = stream;
  for (Opcode op : {Opcode::SUB, Opcode::XOR, Opcode::OR, Opcode::AND, Opcode::XORI,
                    Opcode::ADDI, Opcode::SLL, Opcode::SRL, Opcode::SLT, Opcode::SLTU})
    if (!config.supports(op)) config.opcodes.push_back(op);

  // One engine job per QED module; both fan out on the worker pool, each
  // under the shared wall cap.
  engine::JobBudget budget;
  budget.max_bound = 10;
  budget.max_k = 4;
  budget.max_seconds = 180.0;
  engine::CampaignSpec spec;
  for (const qed::QedMode mode : {qed::QedMode::EddiV, qed::QedMode::EdsepV})
    spec.jobs.push_back(engine::make_qed_job(std::string(engine::mode_tag(mode)), mode,
                                             config, *bug, &table, budget,
                                             /*queue_capacity=*/2, /*counter_bits=*/3));

  engine::CampaignOptions pool;
  pool.threads = 2;
  const engine::CampaignReport report = engine::run_campaign(spec, pool);

  for (const engine::JobResult& r : report.jobs) {
    const bool eddi = r.provenance.mode == engine::mode_tag(qed::QedMode::EddiV);
    std::printf("=== %s ===\n",
                qed::qed_mode_name(eddi ? qed::QedMode::EddiV : qed::QedMode::EdsepV));
    switch (r.verdict) {
      case engine::Verdict::Falsified:
        std::printf("VIOLATION at bound %u (%.2fs)\n%s\n", r.trace_length, r.seconds,
                    engine::witness_table(spec.jobs[r.spec_index], r).c_str());
        break;
      case engine::Verdict::Proved:
        std::printf("PROVED by k-induction at k=%u (%.2fs) — no violation at any "
                    "depth\n\n", r.proved_k, r.seconds);
        break;
      case engine::Verdict::Unknown:
        std::printf("no verdict within the resource budget (%.0fs)\n\n",
                    budget.max_seconds);
        break;
      case engine::Verdict::BoundClean:
        std::printf("no violation up to bound %u (%.2fs)%s\n\n", budget.max_bound,
                    r.seconds,
                    bug->single_instruction && eddi
                        ? " — the false negative the paper predicts for SQED"
                        : "");
        break;
    }
  }
  return 0;
}
