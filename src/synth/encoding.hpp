// encoding.hpp — component-based program synthesis encoding + CEGIS core.
//
// Implements the constraint system of paper §2.2/§4.1 (after Gulwani [11]
// and Buchwald [12]):
//
//   * location variables L: every component instance ("line") gets an
//     output slot; every component data input gets a source location
//     (a spec register input or an earlier slot);
//   * ψ_wfp : slot permutation (alldiff), acyclicity (inputs read strictly
//     earlier locations), and a no-dead-code constraint (every line's
//     output is the program output or feeds another line);
//   * a lex-leader symmetry cut in ψ_wfp (Crawford et al., KR 1996):
//     lines j < j2 of the same component (the same Component pointer;
//     multisets are drawn with replacement) also satisfy
//     out_loc[j2] < out_loc[j], so the later line takes the earlier slot.
//     Sound because every constraint below is stated per line through
//     that line's component: swapping two such lines' location and
//     attribute variables maps models to models, so each program keeps
//     exactly one representative and a refutation stops re-proving every
//     permutation of them. This orientation leaves the pinned table's
//     programs where they were; the opposite one moves the SLT and SLTU
//     programs.
//     Deliberately not cut: commutative operand order (the §4.1 identity
//     exclusion admits swapped-operand programs such as SUB's pinned
//     ADD(in1, v0), so ordering operands would shrink the program space,
//     not remove a symmetry), and examples carried across multisets
//     (each one adds a copy of the program circuit to every query, which
//     measured slower);
//   * ψ_conn: value-at-location muxes tie per-example slot values to line
//     outputs;
//   * φ_lib : each line's output equals its component's semantics;
//   * the identity-exclusion constraint of §4.1: a component with the same
//     name as the original instruction must not read the spec inputs
//     verbatim (otherwise synthesis would degenerate into SQED
//     self-duplication);
//   * internal attributes (DIC/CIC immediates) are solved constants,
//     optionally *passthrough-wired* to the original instruction's own
//     immediate operand of the same width class.
//
// cegis_multiset() runs the full CEGIS refinement loop (synthesize over
// accumulated examples -> verify candidate -> add counterexample) for one
// multiset of components, exactly the CEGIS(g, S) call of Algorithm 1.
//
// The verify step builds the miter program != spec once. When the spec's
// inputs total at most smt::kSweepMaxInputBits bits (every Figure-3 case
// at xlen 8), the exhaustive sweep of smt/flat_eval.hpp evaluates it at
// every input point, and a miter false everywhere accepts the candidate.
// A disagreement, or a larger input space, goes to the SAT verifier on the
// same miter: UNSAT accepts, and a model is the next counterexample. So
// counterexamples always come from SAT, and the sweep changes what a run
// costs, never which candidates it visits.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "smt/eval.hpp"
#include "smt/smt_solver.hpp"
#include "synth/component.hpp"
#include "synth/spec.hpp"

namespace sepe::synth {

/// An internal-attribute binding in a synthesized line: either a solved
/// constant or a passthrough of one of the spec's immediate inputs.
struct AttrBinding {
  bool passthrough = false;
  unsigned input_index = 0;  // spec input index when passthrough
  BitVec constant;           // attr-class width when !passthrough
};

/// One line of a synthesized program, in execution order.
struct SynthLine {
  const Component* comp = nullptr;
  std::vector<unsigned> input_locs;  // < num_reg_inputs: spec reg input;
                                     // else line index + num_reg_inputs
  std::vector<AttrBinding> attrs;
};

/// A verified synthesized program: the semantically equivalent program of
/// the paper. Lines are in execution order; the last line produces the
/// program output.
struct SynthProgram {
  const SynthSpec* spec = nullptr;
  std::vector<SynthLine> lines;

  /// Total instruction count after lowering (components may expand).
  unsigned instruction_count() const;

  /// Build the program's output term over the given spec input terms.
  smt::TermRef to_term(smt::TermManager& mgr,
                       const std::vector<smt::TermRef>& spec_inputs,
                       unsigned xlen) const;

  /// Concrete execution (for tests / QED testing).
  BitVec eval(const std::vector<BitVec>& spec_inputs, unsigned xlen) const;

  /// Human-readable listing, e.g. "XOR v0, in0, in1".
  std::string to_string() const;

  /// Canonical fingerprint used to deduplicate programs.
  std::string fingerprint() const;

  /// Does any instruction of the lowered program use `op`? (Table-1 bug
  /// detection needs equivalent programs that avoid the buggy opcode.)
  bool uses_opcode(isa::Opcode op) const;

  /// Lower to concrete instructions. `in_regs` maps spec reg inputs to
  /// register numbers, `imm_values` gives the original instruction's
  /// immediate operands (for passthrough attrs), `out_reg` receives the
  /// result and `temps` supplies scratch registers (enough for
  /// intermediate lines + component-internal temporaries; consumed in
  /// order, respecting read-after-write as §5 requires).
  isa::Program lower(const std::vector<std::uint8_t>& in_regs, std::uint8_t out_reg,
                     const std::vector<std::int32_t>& imm_values,
                     const std::vector<std::uint8_t>& temps) const;

  /// Scratch registers lower() consumes.
  unsigned temps_needed() const;
};

/// Budgets and knobs for one CEGIS run.
struct CegisOptions {
  unsigned xlen = 16;
  unsigned max_iterations = 24;
  std::uint64_t synth_conflict_budget = 200000;
  std::uint64_t verify_conflict_budget = 400000;
  /// Wall cap per synthesis solver call (0 = none); bounds monolithic
  /// classical-CEGIS queries that a conflict budget alone under-controls.
  double synth_seconds_budget = 0.0;
  bool exclude_identity = true;       // the §4.1 input constraint
  bool require_all_outputs_used = true;
  /// Forbid the program's *output* line from lowering to the original
  /// instruction's opcode. Optional strengthening of the §4.1 constraint:
  /// it rules out degenerate "conjugation-prefix" programs whose final
  /// instruction recomputes g on identical values (which a uniform
  /// single-instruction bug would corrupt identically on both streams).
  bool forbid_output_op = false;
};

/// Counters for the evaluation harness.
struct CegisStats {
  unsigned iterations = 0;
  unsigned examples = 0;
  std::uint64_t solver_conflicts = 0;
};

/// CEGIS(g, S): search for a program over exactly the components of
/// `multiset` that is semantically equivalent to `spec` for all inputs.
/// Returns nullopt if the multiset cannot synthesize the spec (or a
/// resource budget was exhausted).
std::optional<SynthProgram> cegis_multiset(const SynthSpec& spec,
                                           const std::vector<const Component*>& multiset,
                                           const CegisOptions& options,
                                           CegisStats* stats = nullptr);

/// Exhaustive-for-all-inputs equivalence check of an already-built
/// program against its spec (used by tests and by the width-generic
/// re-verification step before a program enters the equivalence table).
/// Always a SAT query, never the sweep: it is the independent re-proof of
/// what cegis_multiset accepted.
bool verify_program(const SynthProgram& program, unsigned xlen,
                    std::uint64_t conflict_budget = 0);

}  // namespace sepe::synth
