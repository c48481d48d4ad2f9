// flat_eval.hpp — exhaustive concrete sweep of a width-1 miter.
//
// CEGIS proves a small-width candidate equivalent by evaluating its miter
// (program != spec) at every input point instead of asking SAT for an
// UNSAT answer: at xlen 8 a register-register spec has 2^16 points and an
// I-type spec 2^20, which a compiled evaluator covers in milliseconds.
//
// The sweep lowers the miter's cone once into a flat op array, in TermRef
// order (hash-consing creates operands before their parents, so that order
// is topological), and runs the array over batches of input points, one
// uint64_t word per point and op. Words are not bit-sliced, so Mul, the
// divisions and the shifts each stay one host operation per point.
// Semantics match smt::Evaluator, which the tests use as the reference:
// SMT-LIB shifts, RISC-V division by zero and overflow, and variables that
// are not among the swept inputs read zero.
#pragma once

#include <vector>

#include "smt/term.hpp"

namespace sepe::smt {

/// Largest input space the sweep evaluates, in bits: 2^20 points covers an
/// I-type spec at xlen 8 (8 register bits + a 12-bit immediate).
constexpr unsigned kSweepMaxInputBits = 20;

/// Does the width-1 `miter` evaluate to 0 at every assignment of `inputs`?
/// True means the sweep evaluated every point and none sets the miter.
/// False means "not proved": some point sets it, or the inputs total more
/// than kSweepMaxInputBits bits and the sweep refused without evaluating.
bool sweep_proves_false(const TermManager& mgr, TermRef miter,
                        const std::vector<TermRef>& inputs);

}  // namespace sepe::smt
