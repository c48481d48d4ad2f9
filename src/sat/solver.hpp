// solver.hpp — incremental CDCL SAT solver (the native sat::Backend).
//
// This is the decision engine under the whole repository: the bit-blasted
// SMT facade (src/smt) lowers bit-vector formulas onto it, CEGIS (src/synth)
// uses it incrementally across refinement iterations, and BMC (src/bmc)
// solves unrolled transition systems on it — all through the abstract
// sat::Backend seam (backend.hpp).
//
// Features: two-watched-literal propagation, first-UIP conflict analysis
// with clause minimization, VSIDS branching with exponential decay, phase
// saving, Luby restarts, LBD-based learnt-clause reduction, solving under
// assumptions (the incremental interface CEGIS relies on), and bounded
// inprocessing between restarts (variable elimination, subsumption,
// vivification — see docs/SOLVER.md).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sat/backend.hpp"

namespace sepe::sat {

/// Tunable CDCL heuristics, extracted from what used to be hard-coded
/// constants. The defaults are tuned on the deep-UNSAT QED campaign
/// queries (short Luby bursts, faster decay, twice the learnt-clause
/// retention of the historical constants — ~30% fewer total conflicts on
/// the Table-1 sweep).
///
/// Every knob is deterministic: two solvers with the same config and the
/// same clause stream make identical decisions (random branching draws
/// from a fixed-seed splitmix64, never from entropy).
struct SolverConfig {
  enum class Restart : std::uint8_t { Luby, Geometric };

  /// VSIDS activity decay per conflict (activities divide by this).
  double var_decay = 0.90;
  Restart restart = Restart::Luby;
  /// Conflicts before the first restart (Luby: multiplier of the series).
  unsigned restart_base = 50;
  /// Geometric restarts: interval growth factor per restart.
  double restart_mult = 1.5;
  /// Initial saved phase of fresh variables (phase saving overwrites it).
  bool phase_init_true = false;
  /// Branch on a pseudo-random unassigned variable every N decisions
  /// (0 = pure VSIDS).
  unsigned random_branch_freq = 0;
  /// Seed of the random-branching generator.
  std::uint64_t seed = 1;
  /// Learnt-DB reductions start at this many learnts...
  std::uint64_t reduce_base = 8000;
  /// ...and re-trigger after this many more.
  std::uint64_t reduce_increment = 4000;
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
  /// outgrows it, solve() degrades to Unknown and out_of_memory() latches
  /// — a memory-starved job costs a diagnosed UNKNOWN row, never an
  /// abort. Deterministic: the arena size is a pure function of the
  /// clause stream.
  unsigned memory_limit_mb = 0;

  bool operator==(const SolverConfig&) const = default;

  /// Round-trippable "key=value;..." form (diagnostics, reports, tests).
  std::string to_string() const;
  /// Parse to_string() output. Nullopt on any malformed field.
  static std::optional<SolverConfig> from_string(const std::string& text);
};

/// Incremental CDCL SAT solver — the native Backend implementation.
///
/// Usage: new_var() to allocate variables, add_clause() to add constraints
/// (allowed between solve calls), then solve() or solve(assumptions).
/// After Sat, model_value() reads the satisfying assignment. After an
/// assumption-based Unsat, failed_assumptions() gives the subset used.
class Solver final : public Backend {
 public:
  explicit Solver(const SolverConfig& config = {});

  const SolverConfig& config() const { return config_; }

  BackendKind kind() const override { return BackendKind::Native; }
  std::string name() const override { return "native"; }

  int new_var() override;
  int num_vars() const override { return static_cast<int>(assigns_.size()); }

  using Backend::add_clause;
  bool add_clause(std::vector<Lit> lits) override;

  using Backend::solve;
  SolveResult solve(const std::vector<Lit>& assumptions) override;

  using Backend::model_value;
  bool model_value(int var) const override {
    return var < static_cast<int>(model_.size()) && model_[var] == Value::True;
  }

  const std::vector<Lit>& failed_assumptions() const override { return conflict_core_; }

  // --- statistics, for the micro benches and EXPERIMENTS.md ---
  std::uint64_t num_conflicts() const override { return stats_conflicts_; }
  std::uint64_t num_decisions() const override { return stats_decisions_; }
  std::uint64_t num_propagations() const override { return stats_propagations_; }
  std::uint64_t num_restarts() const override { return stats_restarts_; }
  std::size_t num_clauses() const override { return clauses_.size(); }
  std::size_t num_learnts() const override { return learnts_.size(); }
  std::uint64_t num_eliminated_vars() const override { return stats_eliminated_vars_; }
  std::uint64_t num_subsumed_clauses() const override { return stats_subsumed_clauses_; }
  std::uint64_t num_vivified_clauses() const override { return stats_vivified_clauses_; }
  bool out_of_memory() const override { return hit_memory_limit_; }

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

  struct Watcher {
    ClauseRef ref;
    Lit blocker;  // quick check to skip clause traversal
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

  ClauseRef alloc_clause(const std::vector<Lit>& lits, bool learnt);
  void attach(ClauseRef ref);
  void detach(ClauseRef ref);

  Value value(int var) const { return assigns_[var]; }
  Value value(Lit l) const { return assigns_[l.var()] ^ l.sign(); }

  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate(bool problem_only = false);
  void analyze(ClauseRef confl, std::vector<Lit>& out_learnt, int& out_btlevel,
               std::uint32_t& out_lbd);
  bool literal_redundant(Lit l, std::uint32_t abstract_levels);
  void analyze_final(Lit trail_false);
  void backtrack(int level);
  Lit pick_branch();
  void bump_var(int var);
  void decay_var_activity() { var_inc_ /= config_.var_decay; }
  void bump_clause(ClauseRef ref);
  void reduce_learnts();
  void rescale_var_activity();
  static std::uint64_t luby(std::uint64_t i);

  // --- inprocessing (between restarts, at decision level 0) ---
  //
  // The pipeline copies the clause database out of the arena, simplifies
  // it as plain literal vectors (root simplification, subsumption and
  // self-subsuming resolution, bounded variable elimination), rebuilds
  // the arena compactly, then vivifies in place using the solver's own
  // propagation. Eliminated variables carry their removed clauses on
  // elim_stack_ so models can be repaired and the variables reactivated
  // if a later add_clause() or assumption mentions them (the incremental
  // soundness story — see docs/SOLVER.md).
  void inprocess(const std::vector<Lit>& assumptions);
  void rebuild_clause_db(const std::vector<std::vector<Lit>>& problem,
                         const std::vector<std::pair<std::vector<Lit>, std::uint32_t>>&
                             learnts);
  void vivify_round();
  void reactivate(int var);
  void repair_model();
  bool eliminated(int var) const {
    return var < static_cast<int>(eliminated_.size()) && eliminated_[var] != 0;
  }

  /// The per-job memory ceiling (config_.memory_limit_mb, or the
  /// solver.alloc:oom fault point): checked at solve() entry (the arena
  /// is mostly grown by bit-blasting before the search starts) and once
  /// per conflict (learnt growth). Latches hit_memory_limit_.
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

  std::uint64_t restart_interval(std::uint64_t restart_count) const;
  std::uint64_t next_random();

  static constexpr double kActivityLimit = 1e100;

  SolverConfig config_;
  std::uint64_t rng_state_;

  std::vector<std::uint8_t> arena_;
  std::vector<ClauseRef> clauses_;
  std::vector<ClauseRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal code

  std::vector<Value> assigns_;
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
  bool hit_memory_limit_ = false;
  std::vector<Lit> conflict_core_;

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

  // scratch for analyze()
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<int> minimize_marked_;
  std::vector<int> analyze_toclear_;

  std::uint64_t stats_conflicts_ = 0;
  std::uint64_t stats_decisions_ = 0;
  std::uint64_t stats_propagations_ = 0;
  std::uint64_t stats_restarts_ = 0;
  std::uint64_t stats_eliminated_vars_ = 0;
  std::uint64_t stats_subsumed_clauses_ = 0;
  std::uint64_t stats_vivified_clauses_ = 0;
};

}  // namespace sepe::sat
