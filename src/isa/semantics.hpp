// semantics.hpp — formal semantic models φ_instr(I, A, O) of RV32IM
// instructions (paper §4.1), width-parameterized.
//
// Two interpretations of the same semantics are provided and cross-checked
// by tests:
//   * concrete : BitVec -> BitVec, used by the ISS and QED testing;
//   * symbolic : TermRef -> TermRef, used by the synthesizer's component
//     library and by the processor model's execute stage.
//
// Width parameterization (`xlen`): the architectural register width. The
// paper works at RV32 (xlen=32); the BMC benches run reduced widths so the
// in-repo SAT core solves in seconds (docs/ARCHITECTURE.md "Substitutions").
// Immediates keep their architectural 12-bit encoding and are sign-
// extended or truncated onto the datapath, so all synthesized
// equivalences remain width-generic.
#pragma once

#include "isa/isa.hpp"
#include "smt/term.hpp"
#include "util/bitvec.hpp"

namespace sepe::isa {

/// Sign-extend/truncate an architectural 12-bit immediate onto `xlen` bits.
BitVec imm_to_xlen(std::int32_t imm, unsigned xlen);

/// Concrete ALU semantics: result of `op` on xlen-wide operands.
/// `b` is the second register value for R-type ops and the already
/// extended immediate for I-type ops. Loads/stores are not ALU ops and
/// assert.
BitVec alu_concrete(Opcode op, const BitVec& a, const BitVec& b);

/// Symbolic ALU semantics mirroring alu_concrete term-for-term.
smt::TermRef alu_symbolic(smt::TermManager& mgr, Opcode op, smt::TermRef a,
                          smt::TermRef b);

/// Symbolic immediate: the instruction's immediate as an xlen-wide
/// constant term (sign extension included).
smt::TermRef imm_symbolic(smt::TermManager& mgr, const Instruction& inst, unsigned xlen);

/// Full symbolic result of a register-writing instruction given symbolic
/// source values. For LUI, `rs1_val` is ignored. Asserts for loads/stores.
smt::TermRef instruction_result(smt::TermManager& mgr, const Instruction& inst,
                                smt::TermRef rs1_val, smt::TermRef rs2_val,
                                unsigned xlen);

/// Concrete twin of instruction_result.
BitVec instruction_result_concrete(const Instruction& inst, const BitVec& rs1_val,
                                   const BitVec& rs2_val, unsigned xlen);

}  // namespace sepe::isa
