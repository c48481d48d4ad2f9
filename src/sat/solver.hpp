// solver.hpp — incremental CDCL SAT solver (the native sat::Backend).
//
// This is the decision engine under the whole repository: the bit-blasted
// SMT facade (src/smt) lowers bit-vector formulas onto it, CEGIS (src/synth)
// uses it incrementally across refinement iterations, and BMC (src/bmc)
// solves unrolled transition systems on it — all through the abstract
// sat::Backend seam (backend.hpp).
//
// Features: two-watched-literal propagation with implicit binary watchers
// over a literal-indexed value array, first-UIP conflict analysis with
// allocation-free clause minimization (path DFS with removable/poison
// marks), VSIDS branching with exponential decay, phase saving, Luby
// restarts, LBD-based learnt-clause reduction (only learnts are bumped),
// solving under assumptions (the incremental interface CEGIS relies on),
// and bounded inprocessing between restarts (variable elimination,
// subsumption, vivification — see docs/SOLVER.md).
//
// Hot-path invariant: propagate() keeps a long reason's implied literal
// at c[0] but leaves the arena order of a binary clause alone, so no
// reader may take c[0] as a binary reason's implied literal (use
// antecedents()). A binary conflict is written out as [other, ~p], the
// order analyze() reads it in.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sat/backend.hpp"

namespace sepe::sat {

/// The CDCL knobs something sets: the inprocessing tests force each
/// pass on small formulas and isolate it, the campaign engine sets the
/// memory ceiling. The rest of the search is fixed (Solver's k*
/// constants): VSIDS decay 0.90, Luby restarts, phase saving from false,
/// learnt-DB reductions at 8000 + 4000·n learnts. Tuned on the deep-UNSAT
/// QED campaign queries: ~30% fewer total conflicts on the Table-1 sweep
/// than the historical constants.
///
/// Deterministic: two solvers with the same config and the same clause
/// stream make identical decisions.
struct SolverConfig {
  /// Luby restart unit: conflicts before the first restart.
  unsigned restart_base = 50;
  /// Inprocessing cadence: run the simplification pipeline at the first
  /// restart after this many conflicts since the previous run
  /// (0 = inprocessing off). See docs/SOLVER.md for the pipeline.
  std::uint64_t inprocess_interval = 4000;
  /// Bounded variable elimination: a variable is a candidate only while
  /// both polarities occur in at most this many problem clauses
  /// (0 = the elimination pass is off).
  unsigned bve_occurrence_limit = 10;
  /// Clause vivification pass toggle (bounded re-propagation of problem
  /// clauses to shrink or drop them).
  bool vivify = true;
  /// Per-solver clause-arena ceiling in MiB (0 = none). When the arena
  /// outgrows it, solve() degrades to Unknown and Stats::out_of_memory
  /// latches — a memory-starved job costs a diagnosed UNKNOWN row, never
  /// an abort. Deterministic: the arena size is a pure function of the
  /// clause stream.
  unsigned memory_limit_mb = 0;
};

/// Incremental CDCL SAT solver — the native Backend implementation.
///
/// Usage: new_var() to allocate variables, add_clause() to add constraints
/// (allowed between solve calls), then solve() or solve(assumptions).
/// After Sat, model_value() reads the satisfying assignment.
class Solver final : public Backend {
 public:
  explicit Solver(const SolverConfig& config = {});

  const SolverConfig& config() const { return config_; }

  int new_var() override;

  using Backend::add_clause;
  bool add_clause(std::vector<Lit> lits) override;

  using Backend::solve;
  SolveResult solve(const std::vector<Lit>& assumptions) override;

  using Backend::model_value;
  bool model_value(int var) const override {
    return var < static_cast<int>(model_.size()) && model_[var] == Value::True;
  }

  Stats stats() const override {
    Stats s = stats_;
    s.vars = level_.size();
    s.clauses = clauses_.size();
    return s;
  }

 private:
  // Clauses live in an arena; a ClauseRef is an offset into it.
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNullRef = std::numeric_limits<ClauseRef>::max();

  struct ClauseHeader {
    std::uint32_t size;
    std::uint32_t lbd;       // literal block distance (glue); 0 for problem clauses
    float activity;
    // literals follow inline in the arena
  };

  /// A watch-list entry. Clause offsets are 4-aligned, so bit 0 of
  /// `tagged` is free: it marks a size-2 clause, whose blocker is its
  /// other literal — propagate() settles a binary from the watcher alone
  /// and never reads the arena unless the clause conflicts.
  struct Watcher {
    ClauseRef tagged;  // clause offset | 1 for a binary clause
    Lit blocker;       // quick check to skip clause traversal
    ClauseRef ref() const { return tagged & ~ClauseRef(1); }
    bool binary() const { return tagged & 1; }
  };

  ClauseHeader* header(ClauseRef r) {
    return reinterpret_cast<ClauseHeader*>(&arena_[r]);
  }
  const ClauseHeader* header(ClauseRef r) const {
    return reinterpret_cast<const ClauseHeader*>(&arena_[r]);
  }
  Lit* lits(ClauseRef r) {
    return reinterpret_cast<Lit*>(&arena_[r + sizeof(ClauseHeader)]);
  }
  const Lit* lits(ClauseRef r) const {
    return reinterpret_cast<const Lit*>(&arena_[r + sizeof(ClauseHeader)]);
  }

  ClauseRef alloc_clause(const Lit* lits, std::uint32_t size, bool learnt);
  void attach(ClauseRef ref);
  void detach(ClauseRef ref);

  int num_vars() const { return static_cast<int>(level_.size()); }
  Value value(int var) const { return values_[2 * var]; }
  Value value(Lit l) const { return values_[l.code()]; }

  void enqueue(Lit l, ClauseRef reason) {
    assert(value(l) == Value::Unknown);
    values_[l.code()] = Value::True;
    values_[l.code() ^ 1] = Value::False;
    level_[l.var()] = decision_level();
    reason_[l.var()] = reason;
    trail_.push_back(l);
  }
  /// Unit propagation to fixpoint; returns the conflicting clause or
  /// kNullRef. kProblemOnly (vivification) skips learnt clauses.
  template <bool kProblemOnly = false>
  ClauseRef propagate();
  /// The literals of reason clause `r` other than its implied literal
  /// `p`: c[1..size) for a long clause, whose implied literal propagate()
  /// keeps at c[0]; for a binary, whichever literal is not `p` (the
  /// arena order of a binary is not maintained).
  std::pair<const Lit*, const Lit*> antecedents(ClauseRef r, Lit p) const {
    const Lit* c = lits(r);
    const std::uint32_t n = header(r)->size;
    if (n == 2) {
      const Lit* other = c + (c[0] == p ? 1 : 0);
      return {other, other + 1};
    }
    return {c + 1, c + n};
  }
  void analyze(ClauseRef confl, std::vector<Lit>& out_learnt, int& out_btlevel,
               std::uint32_t& out_lbd);
  bool literal_redundant(Lit l, std::uint32_t abstract_levels);
  void backtrack(int level);
  Lit pick_branch();
  void bump_var(int var);
  void decay_var_activity() { var_inc_ /= kVarDecay; }
  void bump_clause(ClauseRef ref);
  void reduce_learnts();
  void rescale_var_activity();
  static std::uint64_t luby(std::uint64_t i);

  // --- inprocessing (between restarts, at decision level 0) ---
  //
  // The pipeline copies the clause database out of the arena, simplifies
  // it as spans of one flat literal pool (root simplification,
  // subsumption and self-subsuming resolution, bounded variable
  // elimination), rebuilds the arena compactly, then vivifies in place
  // using the solver's own propagation. Eliminated variables carry their
  // removed clauses on elim_stack_ so models can be repaired and the
  // variables reactivated if a later add_clause() or assumption mentions
  // them (the incremental soundness story — see docs/SOLVER.md).
  void inprocess(const std::vector<Lit>& assumptions);
  void vivify_round();
  void reactivate(int var);
  void repair_model();
  bool eliminated(int var) const {
    return var < static_cast<int>(eliminated_.size()) && eliminated_[var] != 0;
  }

  /// The per-job memory ceiling (config_.memory_limit_mb, or the
  /// solver.alloc:oom fault point): checked at solve() entry (the arena
  /// is mostly grown by bit-blasting before the search starts) and once
  /// per conflict (learnt growth). Latches stats_.out_of_memory.
  bool memory_exceeded();

  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  std::uint32_t compute_lbd(const std::vector<Lit>& clause);

  // Heap-based VSIDS order.
  void heap_insert(int var);
  void heap_percolate_up(int i);
  void heap_percolate_down(int i);
  int heap_pop();
  bool heap_empty() const { return heap_.empty(); }
  bool heap_contains(int var) const {
    return var < static_cast<int>(heap_index_.size()) && heap_index_[var] >= 0;
  }

  static constexpr double kActivityLimit = 1e100;
  /// VSIDS activity decay per conflict (activities divide by this).
  static constexpr double kVarDecay = 0.90;
  /// Learnt-DB reductions start at this many learnts and re-trigger
  /// after this many more.
  static constexpr std::uint64_t kReduceBase = 8000;
  static constexpr std::uint64_t kReduceIncrement = 4000;

  SolverConfig config_;

  std::vector<std::uint8_t> arena_;
  std::vector<ClauseRef> clauses_;
  std::vector<ClauseRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal code

  std::vector<Value> values_;  // indexed by literal code
  std::vector<Value> model_;
  std::vector<Value> saved_phase_;
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<int> heap_;        // binary max-heap of variables
  std::vector<int> heap_index_;  // var -> heap position, -1 if absent

  double clause_inc_ = 1.0;

  bool root_unsat_ = false;

  // Inprocessing state. elim_stack_ records, per eliminated variable (in
  // elimination order), every problem clause that mentioned it; a
  // reactivated entry is tombstoned with var = -1 but keeps its slot so
  // repair_model() can walk the stack in reverse elimination order.
  std::vector<std::uint8_t> eliminated_;
  struct ElimRecord {
    int var;
    std::vector<std::vector<Lit>> clauses;
  };
  std::vector<ElimRecord> elim_stack_;
  std::uint64_t next_inprocess_ = 0;
  std::size_t vivify_cursor_ = 0;

  // scratch for analyze(): seen_ marks per variable, cleared from
  // analyze_toclear_ at the end of every analysis.
  enum : std::uint8_t { kUnseen = 0, kSource = 1, kRemovable = 2, kPoison = 3 };
  std::vector<std::uint8_t> seen_;
  struct MinimizeFrame {
    Lit lit;
    const Lit* next;
    const Lit* end;
  };
  std::vector<MinimizeFrame> minimize_stack_;
  std::vector<int> analyze_toclear_;

  /// Search counters; stats() fills in vars and clauses.
  Stats stats_;
};

}  // namespace sepe::sat
