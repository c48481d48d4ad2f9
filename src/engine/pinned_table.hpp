// pinned_table.hpp — the pinned EDSEP-V equivalence table.
//
// The equivalence programs here are the ones HPF-CEGIS finds (see
// bench/fig3_synthesis); pinning the multisets makes every
// verification-side campaign deterministic and avoids re-paying the
// synthesis cost per run. Each program transforms the operand data path
// (different wiring or different opcodes), which is what lets EDSEP-V
// separate a single-instruction bug's effect on the original instruction
// from its effect on the replay (paper §5).
//
// Shared by the campaign engine's CLI driver (tools/sepe-run) and the
// Table-1 / Figure-4 benches.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "synth/cegis.hpp"

namespace sepe::engine {

/// Owns the specs the table's programs point into.
struct PinnedTable {
  std::vector<synth::Component> lib = synth::make_standard_library();
  std::vector<synth::SynthSpec> specs;
  synth::EquivalenceTable table;

  PinnedTable() { specs.reserve(64); }

  const synth::Component* comp(const std::string& name) const {
    for (const auto& c : lib)
      if (c.name == name) return &c;
    assert(false && "unknown component");
    return nullptr;
  }

  /// Synthesize one pinned equivalence via CEGIS on a fixed multiset.
  /// Returns false, leaving the table unchanged, when CEGIS finds no
  /// program (a budget ran out, or the SAT solver ran out of memory).
  ///
  /// `synth_xlen` must equal the DUV width the table will verify:
  /// solved attribute constants (sign masks, multiplier tricks) are in
  /// general only correct at the width they were synthesized for, so the
  /// program is re-proved at that width here.
  bool add(const std::string& key, synth::SynthSpec spec,
           const std::vector<std::string>& multiset, unsigned synth_xlen) {
    specs.push_back(std::move(spec));
    std::vector<const synth::Component*> comps;
    for (const std::string& name : multiset) comps.push_back(comp(name));
    synth::CegisOptions o;
    o.xlen = synth_xlen;
    // Prefer a program whose output instruction differs from the
    // original opcode (full datapath separation); fall back to the plain
    // §4.1 constraint when the multiset cannot satisfy that.
    o.forbid_output_op = true;
    auto p = synth::cegis_multiset(specs.back(), comps, o);
    if (!p) {
      o.forbid_output_op = false;
      p = synth::cegis_multiset(specs.back(), comps, o);
    }
    if (!p) return false;
    assert(synth::verify_program(*p, synth_xlen) && "pinned program failed re-proof");
    table.add(key, std::move(*p));
    return true;
  }
};

/// The equivalence table covering every instruction the Table-1 and
/// Figure-4 campaigns stream. Every program reshapes the operands, so a
/// uniform corruption of the original instruction diverges from the
/// replay (even for the rows whose equivalent reuses the opcode, e.g.
/// SRA == NOT(SRA(NOT(a), b))).
///
/// Returns nullptr when an equivalence fails to synthesize, and names its
/// key in `*failed` when that is non-null.
inline std::unique_ptr<PinnedTable> make_pinned_table(unsigned duv_xlen,
                                                      std::string* failed = nullptr) {
  using isa::Opcode;
  struct Row {
    const char* key;
    synth::SynthSpec spec;
    std::vector<std::string> multiset;
  };
  auto spec = [](Opcode op) { return synth::make_spec(op); };
  Row rows[] = {
      {"ADD", spec(Opcode::ADD), {"NOT", "SUB", "NOT"}},
      {"SUB", spec(Opcode::SUB), {"NOT", "ADD", "NOT"}},     // Listing 1
      {"XOR", spec(Opcode::XOR), {"OR", "AND", "SUB"}},
      {"OR", spec(Opcode::OR), {"ADD", "AND", "SUB"}},       // a+b-(a&b)
      {"AND", spec(Opcode::AND), {"ADD", "OR", "SUB"}},      // a+b-(a|b)
      {"SLT", spec(Opcode::SLT), {"XORI", "XORI", "SLTU"}},  // sign-flip
      {"SLTU", spec(Opcode::SLTU), {"XORI", "XORI", "SLT"}},
      // complement conjugation
      {"SRA", spec(Opcode::SRA), {"NOT", "SRA", "NOT"}},
      {"MULH", spec(Opcode::MULH), {"MULHSU_C", "SIGNSEL", "SUB"}},
      {"XORI", spec(Opcode::XORI), {"NOT", "XORI", "NOT"}},
      {"SLLI", spec(Opcode::SLLI), {"XOR", "ADDI", "SLL"}},  // materialized shamt
      {"SRAI", spec(Opcode::SRAI), {"NOT", "SRAI", "NOT"}},
      // conjugated passthrough
      {"ADDI", spec(Opcode::ADDI), {"NOT", "NOT", "ADDI"}},
      {"LW_ADDR", synth::make_address_spec(Opcode::LW), {"NOT", "NOT", "ADDI"}},
      {"SW_ADDR", synth::make_address_spec(Opcode::SW), {"NOT", "NOT", "ADDI"}},
  };
  auto t = std::make_unique<PinnedTable>();
  for (Row& r : rows) {
    if (!t->add(r.key, std::move(r.spec), r.multiset, duv_xlen)) {
      if (failed) *failed = r.key;
      return nullptr;
    }
  }
  return t;
}

}  // namespace sepe::engine
