#include "synth/encoding.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "smt/flat_eval.hpp"

namespace sepe::synth {

using smt::Result;
using smt::SmtSolver;
using smt::TermManager;
using smt::TermRef;

namespace {

/// Indices of the spec's Reg inputs within spec.inputs.
std::vector<unsigned> reg_input_indices(const SynthSpec& spec) {
  std::vector<unsigned> idx;
  for (unsigned i = 0; i < spec.inputs.size(); ++i)
    if (spec.inputs[i] == InputClass::Reg) idx.push_back(i);
  return idx;
}

/// Indices of the spec's inputs a component attribute may passthrough.
/// Same-class always matches; additionally an Imm12 attribute may take a
/// Shamt5 spec input zero-extended — this is what lets the synthesizer
/// materialize a symbolic shift amount into a register via ADDI, the only
/// route to shift-instruction equivalents that avoid the shift-immediate
/// opcode itself.
std::vector<unsigned> passthrough_candidates(const SynthSpec& spec, AttrClass cls) {
  std::vector<unsigned> idx;
  for (unsigned i = 0; i < spec.inputs.size(); ++i) {
    const InputClass ic = spec.inputs[i];
    const bool match = (cls == AttrClass::Imm12 && ic == InputClass::Imm12) ||
                       (cls == AttrClass::Imm20 && ic == InputClass::Imm20) ||
                       (cls == AttrClass::Shamt5 && ic == InputClass::Shamt5) ||
                       (cls == AttrClass::Imm12 && ic == InputClass::Shamt5);
    if (match) idx.push_back(i);
  }
  return idx;
}

/// Widen a passthrough source term onto the attribute's width (Shamt5 ->
/// Imm12 zero-extension; same width is the identity).
smt::TermRef convert_passthrough(smt::TermManager& mgr, smt::TermRef input,
                                 unsigned attr_w) {
  const unsigned w = mgr.width(input);
  assert(w <= attr_w);
  return w == attr_w ? input : mgr.mk_zext(input, attr_w);
}

unsigned bits_for(unsigned values) {
  unsigned b = 1;
  while ((1u << b) < values) ++b;
  return b;
}

}  // namespace

unsigned SynthProgram::instruction_count() const {
  unsigned n = 0;
  for (const SynthLine& l : lines) n += l.comp->cost;
  return n;
}

unsigned SynthProgram::temps_needed() const {
  unsigned n = lines.empty() ? 0 : static_cast<unsigned>(lines.size()) - 1;
  for (const SynthLine& l : lines) n += l.comp->num_temps;
  return n;
}

TermRef SynthProgram::to_term(TermManager& mgr, const std::vector<TermRef>& spec_inputs,
                              unsigned xlen) const {
  const auto reg_idx = reg_input_indices(*spec);
  const unsigned m = static_cast<unsigned>(reg_idx.size());
  std::vector<TermRef> values;  // location -> value term
  for (unsigned i = 0; i < m; ++i) values.push_back(spec_inputs[reg_idx[i]]);
  for (const SynthLine& line : lines) {
    std::vector<TermRef> ins;
    for (unsigned loc : line.input_locs) {
      assert(loc < values.size() && "acyclicity violated");
      ins.push_back(values[loc]);
    }
    std::vector<TermRef> attrs;
    for (unsigned a = 0; a < line.attrs.size(); ++a) {
      const AttrBinding& ab = line.attrs[a];
      attrs.push_back(ab.passthrough
                          ? convert_passthrough(mgr, spec_inputs[ab.input_index],
                                                attr_class_width(line.comp->attrs[a]))
                          : mgr.mk_const(ab.constant));
    }
    values.push_back(line.comp->semantics(mgr, ins, attrs, xlen));
  }
  return values.back();
}

BitVec SynthProgram::eval(const std::vector<BitVec>& spec_inputs, unsigned xlen) const {
  TermManager mgr;
  std::vector<TermRef> in_terms;
  for (const BitVec& v : spec_inputs) in_terms.push_back(mgr.mk_const(v));
  const TermRef out = to_term(mgr, in_terms, xlen);
  return smt::eval_term(mgr, out, {});
}

std::string SynthProgram::to_string() const {
  const auto reg_idx = reg_input_indices(*spec);
  const unsigned m = static_cast<unsigned>(reg_idx.size());
  auto loc_name = [&](unsigned loc) {
    if (loc < m) return "in" + std::to_string(loc);
    return "v" + std::to_string(loc - m);
  };
  std::ostringstream os;
  for (unsigned j = 0; j < lines.size(); ++j) {
    const SynthLine& l = lines[j];
    os << l.comp->name << " " << loc_name(m + j);
    for (unsigned loc : l.input_locs) os << ", " << loc_name(loc);
    for (const AttrBinding& ab : l.attrs) {
      if (ab.passthrough)
        os << ", imm[" << ab.input_index << "]";
      else
        os << ", " << ab.constant.to_hex();
    }
    if (j + 1 < lines.size()) os << "\n";
  }
  return os.str();
}

std::string SynthProgram::fingerprint() const {
  std::ostringstream os;
  for (const SynthLine& l : lines) {
    os << l.comp->name << '(';
    for (unsigned loc : l.input_locs) os << loc << ',';
    for (const AttrBinding& ab : l.attrs) {
      if (ab.passthrough)
        os << 'p' << ab.input_index << ',';
      else
        os << 'c' << ab.constant.uval() << ',';
    }
    os << ");";
  }
  return os.str();
}

bool SynthProgram::uses_opcode(isa::Opcode op) const {
  for (const SynthLine& l : lines)
    for (const ExpansionInstr& e : l.comp->expansion)
      if (e.op == op) return true;
  return false;
}

isa::Program SynthProgram::lower(const std::vector<std::uint8_t>& in_regs,
                                 std::uint8_t out_reg,
                                 const std::vector<std::int32_t>& imm_values,
                                 const std::vector<std::uint8_t>& temps) const {
  assert(in_regs.size() >= spec->num_reg_inputs());
  assert(temps.size() >= temps_needed());
  const unsigned m = spec->num_reg_inputs();
  std::vector<std::uint8_t> loc_reg(m + lines.size());
  for (unsigned i = 0; i < m; ++i) loc_reg[i] = in_regs[i];

  std::size_t next_temp = 0;
  isa::Program out;
  for (unsigned j = 0; j < lines.size(); ++j) {
    const SynthLine& l = lines[j];
    const bool last = (j + 1 == lines.size());
    const std::uint8_t dest = last ? out_reg : temps[next_temp++];
    loc_reg[m + j] = dest;

    std::vector<std::uint8_t> ins;
    for (unsigned loc : l.input_locs) ins.push_back(loc_reg[loc]);
    std::vector<std::int32_t> attr_vals;
    for (const AttrBinding& ab : l.attrs) {
      if (ab.passthrough) {
        assert(ab.input_index < imm_values.size());
        attr_vals.push_back(imm_values[ab.input_index]);
      } else {
        // Imm12/Imm20 are sign-/zero-interpreted per their use; sval gives
        // the architectural signed reading for 12-bit immediates.
        attr_vals.push_back(static_cast<std::int32_t>(
            ab.constant.width() == 12 ? ab.constant.sval()
                                      : static_cast<std::int64_t>(ab.constant.uval())));
      }
    }
    std::vector<std::uint8_t> comp_temps;
    for (unsigned t = 0; t < l.comp->num_temps; ++t)
      comp_temps.push_back(temps[next_temp++]);

    const isa::Program expansion =
        lower_expansion(l.comp->expansion, ins, dest, attr_vals, comp_temps);
    out.insert(out.end(), expansion.begin(), expansion.end());
  }
  return out;
}

bool verify_program(const SynthProgram& program, unsigned xlen,
                    std::uint64_t conflict_budget) {
  TermManager mgr;
  SmtSolver solver(mgr);
  std::vector<TermRef> inputs;
  for (unsigned i = 0; i < program.spec->inputs.size(); ++i) {
    inputs.push_back(mgr.mk_var("vin" + std::to_string(i),
                                input_class_width(program.spec->inputs[i], xlen)));
  }
  const TermRef prog_out = program.to_term(mgr, inputs, xlen);
  const TermRef spec_out = program.spec->semantics(mgr, inputs, xlen);
  solver.assert_formula(mgr.mk_ne(prog_out, spec_out));
  solver.set_conflict_budget(conflict_budget);
  return solver.check() == Result::Unsat;
}

namespace {

/// All state of one synthesis encoding instance.
class MultisetEncoder {
 public:
  MultisetEncoder(const SynthSpec& spec, const std::vector<const Component*>& multiset,
                  const CegisOptions& options)
      : spec_(spec),
        comps_(multiset),
        options_(options),
        solver_(mgr_),
        reg_idx_(reg_input_indices(spec)),
        m_(static_cast<unsigned>(reg_idx_.size())),
        n_(static_cast<unsigned>(multiset.size())),
        loc_bits_(bits_for(m_ + n_ + 1)) {
    build_location_variables();
    assert_wfp();
    if (options_.exclude_identity) assert_identity_exclusion();
    if (options_.forbid_output_op) assert_output_op_differs();
  }

  /// Add one concrete example (counterexample) to the synthesis constraints.
  void add_example(const std::vector<BitVec>& example);

  /// Solve the accumulated constraints; extract a candidate program.
  std::optional<SynthProgram> solve_candidate();

  std::uint64_t conflicts() const { return solver_.work().solver_conflicts; }

 private:
  TermRef loc_const(unsigned v) { return mgr_.mk_const(loc_bits_, v); }

  void build_location_variables();
  void assert_wfp();
  void assert_identity_exclusion();
  void assert_output_op_differs();

  const SynthSpec& spec_;
  const std::vector<const Component*>& comps_;
  const CegisOptions& options_;
  TermManager mgr_;
  SmtSolver solver_;
  std::vector<unsigned> reg_idx_;
  unsigned m_, n_, loc_bits_;
  unsigned example_count_ = 0;

  std::vector<TermRef> out_loc_;                        // per line
  std::vector<std::vector<TermRef>> in_loc_;            // per line, per input
  std::vector<std::vector<TermRef>> attr_const_;        // per line, per attr
  std::vector<std::vector<TermRef>> attr_sel_;  // per line, per attr (may be null)
  std::vector<std::vector<std::vector<unsigned>>> attr_cands_;  // candidates per attr
};

void MultisetEncoder::build_location_variables() {
  for (unsigned j = 0; j < n_; ++j) {
    const Component& c = *comps_[j];
    const std::string pj = "l" + std::to_string(j);
    out_loc_.push_back(mgr_.mk_var(pj + "_out", loc_bits_));
    std::vector<TermRef> ins;
    for (unsigned k = 0; k < c.num_inputs; ++k)
      ins.push_back(mgr_.mk_var(pj + "_in" + std::to_string(k), loc_bits_));
    in_loc_.push_back(std::move(ins));

    std::vector<TermRef> consts, sels;
    std::vector<std::vector<unsigned>> cands;
    for (unsigned a = 0; a < c.attrs.size(); ++a) {
      consts.push_back(
          mgr_.mk_var(pj + "_attr" + std::to_string(a), attr_class_width(c.attrs[a])));
      const auto cand = passthrough_candidates(spec_, c.attrs[a]);
      cands.push_back(cand);
      if (cand.empty()) {
        sels.push_back(smt::kNullTerm);
      } else {
        // Selector: 0 = solved constant, i+1 = passthrough of cand[i].
        const unsigned selw = bits_for(static_cast<unsigned>(cand.size()) + 1);
        const TermRef sel = mgr_.mk_var(pj + "_sel" + std::to_string(a), selw);
        solver_.assert_formula(
            mgr_.mk_ule(sel, mgr_.mk_const(selw, cand.size())));
        sels.push_back(sel);
      }
    }
    attr_const_.push_back(std::move(consts));
    attr_sel_.push_back(std::move(sels));
    attr_cands_.push_back(std::move(cands));
  }
}

void MultisetEncoder::assert_wfp() {
  // Output slots form a permutation of [m, m+n). Lines of one component
  // are interchangeable under every constraint this encoder asserts, so
  // they also take their slots in reverse line order (the symmetry cut of
  // encoding.hpp): one representative per program.
  for (unsigned j = 0; j < n_; ++j) {
    solver_.assert_formula(mgr_.mk_ule(loc_const(m_), out_loc_[j]));
    solver_.assert_formula(mgr_.mk_ult(out_loc_[j], loc_const(m_ + n_)));
    for (unsigned j2 = j + 1; j2 < n_; ++j2) {
      solver_.assert_formula(mgr_.mk_ne(out_loc_[j], out_loc_[j2]));
      if (comps_[j] == comps_[j2])
        solver_.assert_formula(mgr_.mk_ult(out_loc_[j2], out_loc_[j]));
    }
  }
  // Acyclicity: every data input reads a strictly earlier location.
  for (unsigned j = 0; j < n_; ++j)
    for (TermRef in : in_loc_[j])
      solver_.assert_formula(mgr_.mk_ult(in, out_loc_[j]));
  // No dead code: each line is the final producer or feeds someone.
  if (options_.require_all_outputs_used) {
    for (unsigned j = 0; j < n_; ++j) {
      std::vector<TermRef> uses{mgr_.mk_eq(out_loc_[j], loc_const(m_ + n_ - 1))};
      for (unsigned j2 = 0; j2 < n_; ++j2)
        for (TermRef in : in_loc_[j2]) uses.push_back(mgr_.mk_eq(in, out_loc_[j]));
      solver_.assert_formula(mgr_.mk_or_many(uses));
    }
  }
}

void MultisetEncoder::assert_output_op_differs() {
  // The final slot may not be produced by a component whose lowering
  // *ends* in the original opcode: the replayed value would then come
  // out of the same functional unit as the original's, defeating the
  // datapath separation single-instruction bug detection relies on.
  for (unsigned j = 0; j < n_; ++j) {
    const Component& c = *comps_[j];
    if (c.expansion.empty() || c.expansion.back().op != spec_.opcode) continue;
    solver_.assert_formula(
        mgr_.mk_ne(out_loc_[j], loc_const(m_ + n_ - 1)));
  }
}

void MultisetEncoder::assert_identity_exclusion() {
  // §4.1: the synthesized program must not be *identical to the original
  // instruction g*, otherwise the "equivalent program" degenerates into
  // SQED's duplicate. A line can only reproduce g verbatim when its
  // component lowers to exactly one instruction of g's opcode, its data
  // inputs read the spec operands in order, and (for immediate forms) its
  // immediate is wired through from g's own immediate operand. Anything
  // else — multi-instruction expansions, differently-wired inputs, solved
  // constants standing in for a symbolic immediate — is structurally a
  // different program and stays admissible.
  for (unsigned j = 0; j < n_; ++j) {
    const Component& c = *comps_[j];
    if (c.expansion.size() != 1) continue;
    const ExpansionInstr& e = c.expansion[0];
    if (e.op != spec_.opcode) continue;
    if (c.num_inputs != m_) continue;

    std::vector<TermRef> identical;
    for (unsigned k = 0; k < c.num_inputs; ++k)
      identical.push_back(mgr_.mk_eq(in_loc_[j][k], loc_const(k)));

    if (e.imm.kind == ImmOperand::Kind::Attr) {
      const unsigned a = e.imm.attr_index;
      // A solved-constant immediate can never equal g's symbolic
      // immediate for all inputs, so only the passthrough wiring is the
      // identity (selector value 1 = first candidate; our specs carry at
      // most one immediate operand per width class).
      if (attr_sel_[j][a] == smt::kNullTerm) continue;
      const unsigned selw = mgr_.width(attr_sel_[j][a]);
      identical.push_back(mgr_.mk_eq(attr_sel_[j][a], mgr_.mk_const(selw, 1)));
    } else if (isa::opcode_format(e.op) != isa::Format::R) {
      // Hardwired immediate vs g's symbolic immediate: cannot coincide
      // for every input, so this line cannot reproduce g.
      continue;
    }
    solver_.assert_formula(mgr_.mk_not(mgr_.mk_and_many(identical)));
  }
}

void MultisetEncoder::add_example(const std::vector<BitVec>& example) {
  assert(example.size() == spec_.inputs.size());
  const unsigned e = example_count_++;
  const unsigned xlen = options_.xlen;
  const std::string pe = "e" + std::to_string(e);

  // Spec input terms for this example are constants.
  std::vector<TermRef> in_terms;
  for (const BitVec& v : example) in_terms.push_back(mgr_.mk_const(v));

  // Value terms by location: reg inputs are constants, line slots are
  // fresh variables tied to line outputs below.
  std::vector<TermRef> loc_val(m_ + n_);
  for (unsigned i = 0; i < m_; ++i) loc_val[i] = in_terms[reg_idx_[i]];
  for (unsigned s = 0; s < n_; ++s)
    loc_val[m_ + s] = mgr_.mk_var(pe + "_slot" + std::to_string(s), xlen);

  for (unsigned j = 0; j < n_; ++j) {
    const Component& c = *comps_[j];
    // ψ_conn: resolve each data input through a value-at-location mux.
    std::vector<TermRef> ins;
    for (unsigned k = 0; k < c.num_inputs; ++k) {
      TermRef val = loc_val[0];
      for (unsigned loc = 1; loc + 1 < m_ + n_; ++loc)
        val = mgr_.mk_ite(mgr_.mk_eq(in_loc_[j][k], loc_const(loc)), loc_val[loc], val);
      ins.push_back(m_ + n_ >= 2 ? val : loc_val[0]);
    }
    // Attributes: solved constant or passthrough of a concrete immediate.
    std::vector<TermRef> attrs;
    for (unsigned a = 0; a < c.attrs.size(); ++a) {
      TermRef val = attr_const_[j][a];
      if (attr_sel_[j][a] != smt::kNullTerm) {
        const unsigned selw = mgr_.width(attr_sel_[j][a]);
        const unsigned attr_w = attr_class_width(c.attrs[a]);
        for (unsigned ci = 0; ci < attr_cands_[j][a].size(); ++ci) {
          val = mgr_.mk_ite(
              mgr_.mk_eq(attr_sel_[j][a], mgr_.mk_const(selw, ci + 1)),
              convert_passthrough(mgr_, in_terms[attr_cands_[j][a][ci]], attr_w), val);
        }
      }
      attrs.push_back(val);
    }
    // φ_lib: the slot holding this line's output equals its semantics.
    const TermRef out = c.semantics(mgr_, ins, attrs, xlen);
    for (unsigned s = 0; s < n_; ++s) {
      solver_.assert_formula(mgr_.mk_implies(mgr_.mk_eq(out_loc_[j], loc_const(m_ + s)),
                                             mgr_.mk_eq(loc_val[m_ + s], out)));
    }
  }

  // φ_spec: the last slot equals the original instruction's output.
  const TermRef spec_out = spec_.semantics(mgr_, in_terms, xlen);
  solver_.assert_formula(mgr_.mk_eq(loc_val[m_ + n_ - 1], spec_out));
}

std::optional<SynthProgram> MultisetEncoder::solve_candidate() {
  solver_.set_conflict_budget(options_.synth_conflict_budget);
  solver_.set_time_budget(options_.synth_seconds_budget);
  if (solver_.check() != Result::Sat) return std::nullopt;

  // Extract locations, attribute constants and passthrough selectors.
  std::vector<unsigned> slot_of_line(n_);
  for (unsigned j = 0; j < n_; ++j)
    slot_of_line[j] = static_cast<unsigned>(solver_.value(out_loc_[j]).uval()) - m_;

  std::vector<unsigned> line_at_slot(n_);
  for (unsigned j = 0; j < n_; ++j) line_at_slot[slot_of_line[j]] = j;

  SynthProgram prog;
  prog.spec = &spec_;
  for (unsigned s = 0; s < n_; ++s) {
    const unsigned j = line_at_slot[s];
    SynthLine line;
    line.comp = comps_[j];
    for (TermRef in : in_loc_[j])
      line.input_locs.push_back(static_cast<unsigned>(solver_.value(in).uval()));
    for (unsigned a = 0; a < line.comp->attrs.size(); ++a) {
      AttrBinding ab;
      if (attr_sel_[j][a] != smt::kNullTerm) {
        const std::uint64_t sel = solver_.value(attr_sel_[j][a]).uval();
        if (sel >= 1 && sel <= attr_cands_[j][a].size()) {
          ab.passthrough = true;
          ab.input_index = attr_cands_[j][a][sel - 1];
        }
      }
      if (!ab.passthrough) ab.constant = solver_.value(attr_const_[j][a]);
      line.attrs.push_back(ab);
    }
    prog.lines.push_back(std::move(line));
  }
  return prog;
}

}  // namespace

std::optional<SynthProgram> cegis_multiset(const SynthSpec& spec,
                                           const std::vector<const Component*>& multiset,
                                           const CegisOptions& options,
                                           CegisStats* stats) {
  MultisetEncoder encoder(spec, multiset, options);

  // Seed examples: corner values plus a mixed pattern; real CEGIS
  // counterexamples arrive from the verifier below.
  const unsigned xlen = options.xlen;
  std::vector<std::vector<BitVec>> seeds(2);
  for (InputClass ic : spec.inputs) {
    const unsigned w = input_class_width(ic, xlen);
    seeds[0].push_back(BitVec(w, 1));
    seeds[1].push_back(BitVec(w, 0x5a5a5a5a5a5a5a5aULL));
  }
  for (const auto& s : seeds) encoder.add_example(s);

  for (unsigned iter = 0; iter < options.max_iterations; ++iter) {
    if (stats) stats->iterations = iter + 1;
    auto candidate = encoder.solve_candidate();
    if (stats) stats->solver_conflicts = encoder.conflicts();
    if (!candidate) return std::nullopt;

    // Verify: search for an input where candidate and spec disagree. A
    // small input space is swept exhaustively; a disagreement, or a space
    // over the cap, goes to SAT, which also supplies the counterexample.
    TermManager vmgr;
    std::vector<TermRef> vins;
    for (unsigned i = 0; i < spec.inputs.size(); ++i)
      vins.push_back(vmgr.mk_var("vin" + std::to_string(i),
                                 input_class_width(spec.inputs[i], xlen)));
    const TermRef prog_out = candidate->to_term(vmgr, vins, xlen);
    const TermRef spec_out = spec.semantics(vmgr, vins, xlen);
    const TermRef miter = vmgr.mk_ne(prog_out, spec_out);
    if (smt::sweep_proves_false(vmgr, miter, vins)) return candidate;
    SmtSolver vsolver(vmgr);
    vsolver.assert_formula(miter);
    vsolver.set_conflict_budget(options.verify_conflict_budget);
    const Result r = vsolver.check();
    if (r == Result::Unsat) return candidate;   // verified equivalent
    if (r == Result::Unknown) return std::nullopt;  // budget exhausted

    std::vector<BitVec> cex;
    for (TermRef v : vins) cex.push_back(vsolver.value(v));
    encoder.add_example(cex);
    if (stats) stats->examples = static_cast<unsigned>(seeds.size()) + iter + 1;
  }
  return std::nullopt;
}

}  // namespace sepe::synth
