// transition_system.hpp — symbolic transition-system IR.
//
// The RTL-level representation used by the processor model (src/proc), the
// QED modules (src/qed) and the bounded model checker (src/bmc). A
// TransitionSystem is the same object a Yosys→BTOR2 flow hands to Pono in
// the paper's toolchain (§6.2): state variables with init and next
// functions, free inputs, global input constraints, and safety properties
// ("bad" states are property negations).
#pragma once

#include <string>
#include <vector>

#include "smt/term.hpp"

namespace sepe::ts {

/// Index of a state variable within its system.
using StateId = std::size_t;

/// A symbolic finite-state transition system over bit-vector terms.
///
/// All terms live in one shared TermManager supplied at construction.
/// State/next/init discipline:
///   * add_state() introduces a state variable (a Var term);
///   * set_init()  fixes its value in the initial state (optional —
///     uninitialized state starts unconstrained);
///   * set_next()  gives its next-state function over current-state vars
///     and current inputs (required before unrolling).
/// add_constraint() adds an invariant assumption over every step
/// (e.g. "the instruction input is a valid opcode").
/// add_bad() declares a safety property violation condition (BMC searches
/// for a step where some bad term is true).
class TransitionSystem {
 public:
  explicit TransitionSystem(smt::TermManager& mgr) : mgr_(&mgr) {}

  smt::TermManager& mgr() const { return *mgr_; }

  /// Create a state variable of the given width. Returns its Var term.
  smt::TermRef add_state(const std::string& name, unsigned width);
  /// Create a free input of the given width.
  smt::TermRef add_input(const std::string& name, unsigned width);

  void set_init(smt::TermRef state, smt::TermRef value);
  void set_next(smt::TermRef state, smt::TermRef next);

  void add_constraint(smt::TermRef cond);
  /// Constraint that holds only in the initial state (step 0) — e.g. the
  /// QED-consistent initial-state requirement over an otherwise symbolic
  /// register file.
  void add_init_constraint(smt::TermRef cond);
  void add_bad(smt::TermRef cond, const std::string& label = "");
  /// Drop every bad condition (and label) except `index`. Used by
  /// multi-property workloads (e.g. BTOR2 corpus files) that fan one
  /// parsed model out into one verification job per property.
  void retain_bad(std::size_t index);

  bool is_state(smt::TermRef t) const;
  bool is_input(smt::TermRef t) const;

  const std::vector<smt::TermRef>& states() const { return states_; }
  const std::vector<smt::TermRef>& inputs() const { return inputs_; }
  const std::vector<smt::TermRef>& constraints() const { return constraints_; }
  const std::vector<smt::TermRef>& init_constraints() const { return init_constraints_; }
  const std::vector<smt::TermRef>& bads() const { return bads_; }
  const std::vector<std::string>& bad_labels() const { return bad_labels_; }

  /// Init value for a state, or kNullTerm when unconstrained.
  smt::TermRef init_of(smt::TermRef state) const;
  /// Next-state function; kNullTerm when not yet set.
  smt::TermRef next_of(smt::TermRef state) const;

  /// Sanity check: every state has a next function.
  bool complete() const;

 private:
  std::size_t index_of_state(smt::TermRef state) const;

  smt::TermManager* mgr_;
  std::vector<smt::TermRef> states_;
  std::vector<smt::TermRef> inputs_;
  std::vector<smt::TermRef> inits_;   // parallel to states_
  std::vector<smt::TermRef> nexts_;   // parallel to states_
  std::vector<smt::TermRef> constraints_;
  std::vector<smt::TermRef> init_constraints_;
  std::vector<smt::TermRef> bads_;
  std::vector<std::string> bad_labels_;
};

/// Serialize in a BTOR2-style text format (sorts, states, inputs, init,
/// next, constraint, bad): the form in which the paper's flow hands a
/// design to its model checker (docs/ARCHITECTURE.md "Substitutions").
std::string to_btor2(const TransitionSystem& ts);

}  // namespace sepe::ts
