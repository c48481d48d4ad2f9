// processor.hpp — the design under verification: a pipelined RISC-V core
// as a symbolic transition system ("RideCore-lite").
//
// The paper evaluates on RIDECORE, a superscalar out-of-order Verilog
// core, converted to BTOR2 via Yosys. This repository substitutes a
// parameterized in-order pipeline built directly as a TransitionSystem
// (see docs/ARCHITECTURE.md "Substitutions" for why this preserves the
// experiments' behaviour). The pipeline has three stages:
//
//   D (decode latch) -> X (execute: regfile read + forwarding + ALU +
//   memory access) -> W (writeback latch -> register file write)
//
// with a full operand-forwarding path W->X, so back-to-back dependent
// instructions execute without stalls — and so that *forwarding logic* is
// available for realistic multiple-instruction bug injection.
//
// Instructions enter as decoded field bundles (valid, op, rd, rs1, rs2,
// imm). The QED modules (src/qed) drive these inputs; the imm input
// carries the already-extended xlen-wide operand.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "isa/semantics.hpp"
#include "ts/transition_system.hpp"

namespace sepe::proc {

/// Static configuration of the core.
struct ProcConfig {
  unsigned xlen = 8;        // datapath width (reduced for BMC tractability)
  unsigned mem_words = 8;   // data memory words (power of two)
  std::vector<isa::Opcode> opcodes;  // instruction subset implemented

  /// ALU-only subset used by most benches (no memory instructions).
  static ProcConfig alu_subset(unsigned xlen);
  /// ALU + LW/SW.
  static ProcConfig with_memory(unsigned xlen);

  bool supports(isa::Opcode op) const;
  bool has_memory() const;
};

/// Execute-stage view handed to mutation hooks: everything a realistic
/// RTL edit could key on.
struct MutationCtx {
  smt::TermManager* mgr = nullptr;
  unsigned xlen = 0;
  // Decode latch (instruction currently in X).
  smt::TermRef d_valid, d_op, d_rd, d_rs1, d_rs2, d_imm;
  // Writeback latch (previous instruction).
  smt::TermRef w_valid, w_wen, w_rd, w_value;
  // Operand values after forwarding.
  smt::TermRef op_a, op_b;
  // Forwarding hit conditions (before any mutation).
  smt::TermRef fwd_a, fwd_b;
};

/// Term-rewriting hook: receives the correct term, returns the mutated
/// one. Hooks that are not set leave the design healthy at that point.
using TermHook = std::function<smt::TermRef(const MutationCtx&, smt::TermRef)>;

/// An injected RTL bug. `single_instruction` distinguishes Table-1 bugs
/// (uniform corruption of one instruction's function — invisible to
/// SQED's self-consistency) from Figure-4 bugs (sequence-dependent).
struct Mutation {
  std::string name;
  std::string description;
  bool single_instruction = false;
  isa::Opcode target = isa::Opcode::NOP;  // informational

  TermHook result_hook;      // rewrites the X-stage ALU/load result
  TermHook fwd_a_hook;       // rewrites the rs1-forwarding condition
  TermHook fwd_b_hook;       // rewrites the rs2-forwarding condition
  TermHook op_a_hook;        // rewrites the forwarded rs1 operand value
  TermHook op_b_hook;        // rewrites the forwarded rs2 operand value
  TermHook wen_hook;         // rewrites the register write-enable
  TermHook store_data_hook;  // rewrites SW data
  TermHook store_addr_hook;  // rewrites SW address
  TermHook wdata_hook;       // rewrites the value written to the regfile
};

/// A built processor model: the transition system plus handles to its
/// interface, for the QED modules and tests.
struct ProcModel {
  ProcConfig config;
  ts::TransitionSystem* ts = nullptr;

  // Inputs (decoded instruction bundle).
  smt::TermRef in_valid, in_op, in_rd, in_rs1, in_rs2, in_imm;

  // Architectural state.
  std::vector<smt::TermRef> regs;  // 32 registers
  std::vector<smt::TermRef> mem;   // config.mem_words words

  // Pipeline latches (observation points for QED-ready logic).
  smt::TermRef d_valid, d_op, d_rd, d_rs1, d_rs2, d_imm;
  smt::TermRef w_valid, w_wen, w_rd, w_value;

  // X-stage effective address term (LW/SW), for QED address-range
  // assumptions; kNullTerm when the config has no memory instructions.
  smt::TermRef x_addr = smt::kNullTerm;

  /// 1-bit term: pipeline holds no in-flight instruction.
  smt::TermRef drained() const;

  /// 6-bit opcode id constant for comparisons against in_op/d_op.
  smt::TermRef opcode_const(isa::Opcode op) const;
};

constexpr unsigned kOpcodeBits = 6;

/// Build the pipeline into `ts`, optionally injecting a mutation.
ProcModel build_processor(ts::TransitionSystem& ts, const ProcConfig& config,
                          const Mutation* mutation = nullptr,
                          const std::string& name_prefix = "duv");

}  // namespace sepe::proc
