// spec.hpp — synthesis specifications φ_spec for original instructions.
//
// A SynthSpec is the formal semantic model of an original instruction g
// (paper §4.1): typed inputs (register values plus the instruction's own
// immediate operands), one output, and a term-level semantics function.
// The synthesizer searches for component programs P with
// ∀ inputs: P(inputs) == g(inputs)  (formula (2) of the paper).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "isa/semantics.hpp"
#include "smt/term.hpp"

namespace sepe::synth {

/// Input sorts of a spec. Reg inputs are xlen wide and are the values the
/// component data inputs may connect to; immediate inputs carry the
/// original instruction's own immediate operand and may only feed
/// component *attributes* of the matching class (passthrough).
enum class InputClass : std::uint8_t { Reg, Imm12, Imm20, Shamt5 };

unsigned input_class_width(InputClass c, unsigned xlen);

struct SynthSpec {
  std::string name;     // e.g. "SUB" — used for Name(g) matching (χ_j)
  isa::Opcode opcode;   // opcode identity for the exclusion constraint
  std::vector<InputClass> inputs;

  /// Semantics: input terms at their class widths -> xlen-wide output.
  std::function<smt::TermRef(smt::TermManager&, const std::vector<smt::TermRef>&,
                             unsigned /*xlen*/)>
      semantics;

  unsigned num_reg_inputs() const {
    unsigned n = 0;
    for (InputClass c : inputs)
      if (c == InputClass::Reg) ++n;
    return n;
  }
};

/// Spec for a register-writing instruction's value semantics. Handles
/// R-type (two Reg inputs), I-type ALU (Reg + Imm12), shifts (Reg +
/// Shamt5) and LUI (Imm20).
SynthSpec make_spec(isa::Opcode op);

/// Spec for the effective-address computation of LW/SW (rs1 + sext(imm)).
/// Memory instructions are covered by synthesizing the address path and
/// re-attaching the access (docs/ARCHITECTURE.md "Substitutions").
SynthSpec make_address_spec(isa::Opcode op);

/// The 26 synthesis cases of the paper's Figure 3 experiment: every
/// RV32IM value-producing instruction in the supported subset.
std::vector<SynthSpec> make_figure3_cases();

}  // namespace sepe::synth
