// bitblast.hpp — polarity-aware Tseitin bit-blasting of bit-vector terms
// to CNF.
//
// Lowers the term DAG onto the CDCL SAT core (src/sat). Each term maps to
// one SAT literal per bit; the mapping is cached per node, so shared
// subterms are encoded once. Word-level operators use standard circuits:
// ripple-carry adders, shift-add multipliers, restoring dividers, barrel
// shifters with SMT-LIB saturation, borrow-chain comparators.
//
// Gate clauses can be emitted per *polarity* (Plaisted–Greenbaum): a gate
// whose output is only ever used positively gets only the clauses forcing
// "output true => function true", halving (or better) the CNF of the
// Boolean skeleton — the OR-of-bads cones and the per-register equality
// comparators that dominate QED models. Polarity requirements accumulate:
// when a cached term is later needed at the other polarity, the missing
// clause direction is added incrementally (the output literals never
// change, so the upgrade is sound and cheap). Word-level circuit
// internals are always encoded at both polarities — only the 1-bit
// Boolean structure and the comparator output chains are polarity-split.
//
// PG is OFF by default: on the QED campaign workloads the smaller CNF
// costs more CDCL conflicts than it saves (the dropped clause directions
// weaken unit propagation through the deep UNSAT arithmetic cones —
// measured ~7% more total conflicts than full Tseitin under the tuned
// solver config; see README "Performance"). It stays available for
// propagation-light workloads and is pinned against full Tseitin by the
// equivalence tests.
//
// Caveat for callers: under single-polarity encoding a gate literal's
// model value only *implies* the gate function in the encoded direction.
// Model read-back must therefore evaluate terms over the model values of
// the input variables (see SmtSolver::value) instead of trusting interior
// gate literals.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "sat/solver.hpp"
#include "smt/cone_cache.hpp"
#include "smt/term.hpp"

namespace sepe::smt {

/// Encodes terms into a sat::Backend. Owned by SmtSolver; exposed for the
/// micro benchmarks, which measure circuit sizes directly.
class BitBlaster {
 public:
  /// Polarity requirement masks.
  static constexpr std::uint8_t kPos = 1;   // literal is asserted/assumed true
  static constexpr std::uint8_t kNeg = 2;   // literal is asserted/assumed false
  static constexpr std::uint8_t kBoth = 3;  // both directions needed

  /// `plaisted_greenbaum` = true opts into polarity-split gate clauses;
  /// the default is full Tseitin (both polarities for every gate), which
  /// measures faster on the campaign workloads. `cone_cache`, when
  /// non-null, shares bit-blasted cones with every other blaster of the
  /// campaign (see cone_cache.hpp); replay is exact, so the cache never
  /// changes the clause stream the solver sees.
  BitBlaster(const TermManager& mgr, sat::Backend& solver,
             bool plaisted_greenbaum = false,
             std::shared_ptr<ConeCache> cone_cache = nullptr);

  /// Bits of `t`, least-significant first. Encodes on first use; repeated
  /// calls may add clauses when `polarity` widens an earlier requirement,
  /// but always return the same literals.
  const std::vector<sat::Lit>& blast(TermRef t, std::uint8_t polarity = kBoth);

  /// Single literal for a 1-bit term.
  sat::Lit blast_bit(TermRef t, std::uint8_t polarity = kBoth);

  /// Literal fixed to true (for constants).
  sat::Lit true_lit() const { return true_lit_; }

  /// Var terms encoded so far, in encoding order — the model support for
  /// evaluation-based read-back.
  const std::vector<TermRef>& blasted_vars() const { return blasted_vars_; }

  /// Per-blaster cone-cache traffic (zero when no cache is attached).
  struct ConeStats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t clauses_replayed = 0;
  };
  const ConeStats& cone_stats() const { return cone_stats_; }

 private:
  using Bits = std::vector<sat::Lit>;

  static std::uint8_t flip(std::uint8_t pol) {
    return static_cast<std::uint8_t>(((pol & kPos) ? kNeg : 0) |
                                     ((pol & kNeg) ? kPos : 0));
  }

  sat::Lit fresh() {
    const sat::Lit l(solver_.new_var(), false);
    if (recording_) {
      recording_->stream.push_back(-1);
      ++recording_->num_vars;
    }
    return l;
  }
  sat::Lit const_lit(bool b) const { return b ? true_lit_ : ~true_lit_; }

  // Clause emission wrappers: every gate clause goes through these so an
  // active tape recording captures the exact solver API call stream.
  void emit(sat::Lit a, sat::Lit b) {
    solver_.add_clause(a, b);
    if (recording_) {
      recording_->stream.push_back(2);
      recording_->stream.push_back(a.code());
      recording_->stream.push_back(b.code());
      ++recording_->num_clauses;
    }
  }
  void emit(sat::Lit a, sat::Lit b, sat::Lit c) {
    solver_.add_clause(a, b, c);
    if (recording_) {
      recording_->stream.push_back(3);
      recording_->stream.push_back(a.code());
      recording_->stream.push_back(b.code());
      recording_->stream.push_back(c.code());
      ++recording_->num_clauses;
    }
  }

  /// Fold the next top-level blast call into the running state digest and
  /// return the resulting value — the cone-cache key of this call.
  TermDigest advance_state(TermRef root, std::uint8_t polarity);
  /// Validate-then-apply `tape` for blast(t, polarity). Returns false
  /// (touching nothing) when digest validation refuses the tape.
  bool replay_tape(TermRef t, std::uint8_t polarity, const ConeTape& tape);

  struct GateKey;
  /// Gate-cache lookup shared by every gate encoder: returns the (cached
  /// or fresh) output literal and sets `missing` to the polarity
  /// directions whose clauses the caller still has to emit (recorded as
  /// emitted here, so re-requests are no-ops).
  sat::Lit gate_output(const GateKey& key, std::uint8_t pol, std::uint8_t& missing);

  // Gate encoders; return the output literal, adding the clauses of the
  // requested polarity directions that have not been emitted yet.
  sat::Lit gate_and(sat::Lit a, sat::Lit b, std::uint8_t pol = kBoth);
  sat::Lit gate_or(sat::Lit a, sat::Lit b, std::uint8_t pol = kBoth);
  sat::Lit gate_xor(sat::Lit a, sat::Lit b, std::uint8_t pol = kBoth);
  // sel ? t : e
  sat::Lit gate_mux(sat::Lit sel, sat::Lit t, sat::Lit e, std::uint8_t pol = kBoth);
  // Full adder: returns sum, sets carry_out.
  sat::Lit gate_full_add(sat::Lit a, sat::Lit b, sat::Lit cin, sat::Lit& cout);

  /// Polarity requirement of `t` (kBoth when PG is disabled or untracked).
  std::uint8_t node_polarity(TermRef t) const;
  /// Propagate a polarity requirement over the cone of `t`; cached terms
  /// whose requirement grew are appended to `replay`.
  void propagate_polarity(TermRef t, std::uint8_t pol, std::vector<TermRef>& replay);

  Bits encode(TermRef t);
  Bits encode_add(const Bits& a, const Bits& b, sat::Lit carry_in);
  Bits encode_mul(const Bits& a, const Bits& b);
  void encode_udivrem(const Bits& a, const Bits& b, Bits& quot, Bits& rem);
  Bits encode_shift(const Bits& a, const Bits& amount, Op op);
  sat::Lit encode_ult(const Bits& a, const Bits& b, std::uint8_t pol = kBoth);
  sat::Lit encode_slt(const Bits& a, const Bits& b, std::uint8_t pol = kBoth);
  sat::Lit encode_eq(const Bits& a, const Bits& b, std::uint8_t pol = kBoth);
  Bits encode_mux_word(sat::Lit sel, const Bits& t, const Bits& e);
  Bits negate(const Bits& a);  // two's complement

  const TermManager& mgr_;
  sat::Backend& solver_;
  const bool pg_;
  sat::Lit true_lit_;
  std::unordered_map<TermRef, Bits> cache_;
  std::vector<TermRef> blasted_vars_;
  /// Polarity directions requested per term so far (PG mode only).
  std::unordered_map<TermRef, std::uint8_t> term_pol_;

  // Structural gate cache: (op, a, b) -> output + emitted polarities.
  // Keeps shared subcircuits (mux trees over the register file) from
  // being re-encoded, and records which clause directions exist so a
  // later wider requirement emits only the missing ones.
  struct GateKey {
    int op;
    int a, b, c;
    bool operator==(const GateKey& o) const {
      return op == o.op && a == o.a && b == o.b && c == o.c;
    }
  };
  struct GateKeyHash {
    std::size_t operator()(const GateKey& k) const {
      std::size_t h = k.op;
      h = h * 0x9e3779b97f4a7c15ULL + k.a;
      h = h * 0x9e3779b97f4a7c15ULL + k.b;
      h = h * 0x9e3779b97f4a7c15ULL + k.c;
      return h;
    }
  };
  struct GateEntry {
    sat::Lit out;
    std::uint8_t emitted;
  };
  std::unordered_map<GateKey, GateEntry, GateKeyHash> gate_cache_;

  // Campaign-wide cone sharing (see cone_cache.hpp). `state_` digests the
  // top-level blast-call history; `recording_` is non-null while the
  // current call is being taped for the shared store.
  std::shared_ptr<ConeCache> cone_cache_;
  TermDigest state_;
  ConeTape* recording_ = nullptr;
  std::shared_ptr<ConeTape> rec_tape_;
  ConeStats cone_stats_;
};

}  // namespace sepe::smt
