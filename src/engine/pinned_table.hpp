// pinned_table.hpp — the pinned EDSEP-V equivalence table.
//
// The equivalence programs here are the ones HPF-CEGIS finds (see
// bench/fig3_synthesis) on a fixed multiset per instruction; pinning the
// multisets makes every verification-side campaign deterministic. Each
// program transforms the operand data path (different wiring or different
// opcodes), which is what lets EDSEP-V separate a single-instruction bug's
// effect on the original instruction from its effect on the replay (paper
// §5).
//
// At xlen 4, the default width of sepe-run and the benches, the 15
// programs are compiled in as the text EquivalenceTable::to_string() prints
// (pinned_table.cpp), so a campaign does not re-pay the synthesis cost
// per run: make_pinned_table loads that text and re-checks every program
// at the DUV width by the exhaustive sweep of smt/flat_eval.hpp, which
// starts no SAT solver. Other widths synthesize the table by CEGIS.
// pinned_table_test re-synthesizes the xlen-4 table and diffs it against
// the compiled-in text.
//
// Shared by the campaign engine's CLI driver (tools/sepe-run) and the
// Table-1 / Figure-4 benches.
#pragma once

#include <cassert>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "synth/cegis.hpp"

namespace sepe::engine {

/// Owns the specs the table's programs point into. A deque never moves
/// its elements on push_back, so those pointers stay valid as rows grow.
struct PinnedTable {
  std::vector<synth::Component> lib = synth::make_standard_library();
  std::deque<synth::SynthSpec> specs;
  synth::EquivalenceTable table;

  /// The library component called `name`; nullptr if there is none.
  const synth::Component* comp(const std::string& name) const {
    for (const auto& c : lib)
      if (c.name == name) return &c;
    return nullptr;
  }

  /// Synthesize one pinned equivalence via CEGIS on a fixed multiset.
  /// Returns false, leaving the table unchanged, when the multiset names a
  /// component the library lacks or CEGIS finds no program (a budget ran
  /// out, or the SAT solver ran out of memory).
  ///
  /// `synth_xlen` must equal the DUV width the table will verify:
  /// solved attribute constants (sign masks, multiplier tricks) are in
  /// general only correct at the width they were synthesized for, so the
  /// program is re-proved at that width here.
  bool add(const std::string& key, synth::SynthSpec spec,
           const std::vector<std::string>& multiset, unsigned synth_xlen) {
    std::vector<const synth::Component*> comps;
    for (const std::string& name : multiset) {
      comps.push_back(comp(name));
      if (!comps.back()) return false;
    }
    specs.push_back(std::move(spec));
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

/// The DUV width whose table is compiled in.
constexpr unsigned kPinnedTextXlen = 4;

/// The compiled-in table for kPinnedTextXlen, as
/// EquivalenceTable::to_string() prints it.
std::string_view pinned_table_text();

/// The equivalence table covering every instruction the Table-1 and
/// Figure-4 campaigns stream. Every program reshapes the operands, so a
/// uniform corruption of the original instruction diverges from the
/// replay (even for the rows whose equivalent reuses the opcode, e.g.
/// SRA == NOT(SRA(NOT(a), b))).
///
/// At kPinnedTextXlen this is load_pinned_table(pinned_table_text()); at
/// any other width, synthesize_pinned_table. Returns nullptr when a row
/// fails, and names its key in `*failed` when that is non-null.
std::unique_ptr<PinnedTable> make_pinned_table(unsigned duv_xlen,
                                               std::string* failed = nullptr);

/// The same rows synthesized by CEGIS, each from its pinned multiset
/// (PinnedTable::add). nullptr when an equivalence fails to synthesize.
std::unique_ptr<PinnedTable> synthesize_pinned_table(unsigned duv_xlen,
                                                     std::string* failed = nullptr);

/// The same rows read from `text` (EquivalenceTable::parse), each program
/// then swept at `duv_xlen` (synth::sweep_proves_equivalent); runs no
/// CEGIS and starts no SAT solver. nullptr when the text does not render
/// back byte for byte, lacks a row or holds an unknown one, or a program
/// fails the sweep.
std::unique_ptr<PinnedTable> load_pinned_table(std::string_view text, unsigned duv_xlen,
                                               std::string* failed = nullptr);

}  // namespace sepe::engine
