#include "bmc/kind.hpp"

#include <cassert>
#include <string>
#include <unordered_map>

#include "smt/subst.hpp"
#include "util/stopwatch.hpp"

namespace sepe::bmc {

using smt::Result;
using smt::SubstMap;
using smt::TermRef;

namespace {

/// The inductive-step unroller: a window of fully symbolic steps (no
/// init), constraints asserted at every step, with per-step "good"
/// literals. Incremental: growing the window reuses all prior clauses.
class InductiveWindow {
 public:
  InductiveWindow(const ts::TransitionSystem& ts, const sat::SolverConfig& config,
                  bool plaisted_greenbaum, std::shared_ptr<smt::ConeCache> cone_cache,
                  sat::BackendKind backend)
      : ts_(ts),
        mgr_(ts.mgr()),
        solver_(mgr_, config, plaisted_greenbaum, std::move(cone_cache), backend) {}

  /// Ensure steps 0..k exist. Returns the "any bad at step k" term.
  TermRef extend_to(unsigned k) {
    while (maps_.size() <= k) {
      const unsigned t = static_cast<unsigned>(maps_.size());
      SubstMap map;
      if (t == 0) {
        for (TermRef s : ts_.states()) map[s] = fresh_copy(s, 0);
      } else {
        SubstMap& prev = maps_[t - 1];
        SubstMap& prev_cache = caches_[t - 1];
        for (TermRef s : ts_.states())
          map[s] = smt::substitute(mgr_, ts_.next_of(s), prev, &prev_cache);
      }
      for (TermRef in : ts_.inputs()) map[in] = fresh_copy(in, t);
      maps_.push_back(std::move(map));
      caches_.emplace_back();
      for (TermRef c : ts_.constraints())
        solver_.assert_formula(smt::substitute(mgr_, c, maps_[t], &caches_[t]));
      bads_.push_back(bad_at(t));
    }
    return bads_[k];
  }

  /// Pairwise state-vector disequality between steps i and j. Memoized:
  /// the simple-path pass re-requests all O(k²) pairs every iteration,
  /// and rebuilding each disequality cone costs a hash-cons walk over
  /// every state even when the result node already exists.
  TermRef states_differ(unsigned i, unsigned j) {
    const std::uint64_t key = (static_cast<std::uint64_t>(i) << 32) | j;
    if (const auto it = differ_memo_.find(key); it != differ_memo_.end())
      return it->second;
    std::vector<TermRef> diffs;
    for (TermRef s : ts_.states())
      diffs.push_back(mgr_.mk_ne(maps_[i].at(s), maps_[j].at(s)));
    const TermRef differ = mgr_.mk_or_many(diffs);
    differ_memo_.emplace(key, differ);
    return differ;
  }

  smt::SmtSolver& solver() { return solver_; }
  smt::TermManager& mgr() { return mgr_; }

 private:
  TermRef fresh_copy(TermRef var, unsigned step) {
    return mgr_.mk_var("kind." + mgr_.node(var).name + "@" + std::to_string(step),
                       mgr_.width(var));
  }

  TermRef bad_at(unsigned t) {
    std::vector<TermRef> bad_terms;
    for (TermRef b : ts_.bads())
      bad_terms.push_back(smt::substitute(mgr_, b, maps_[t], &caches_[t]));
    return mgr_.mk_or_many(bad_terms);
  }

  const ts::TransitionSystem& ts_;
  smt::TermManager& mgr_;
  smt::SmtSolver solver_;
  std::vector<SubstMap> maps_;
  std::vector<SubstMap> caches_;
  std::vector<TermRef> bads_;
  std::unordered_map<std::uint64_t, TermRef> differ_memo_;
};

}  // namespace

KInductionResult prove_by_k_induction(const ts::TransitionSystem& ts,
                                      const KInductionOptions& options) {
  assert(ts.complete());
  Stopwatch clock;
  KInductionResult result;

  Bmc base(ts, options.solver_config, options.plaisted_greenbaum,
           options.cone_cache, options.backend);
  InductiveWindow window(ts, options.solver_config, options.plaisted_greenbaum,
                         options.cone_cache, options.backend);

  const auto remaining = [&]() {
    return options.max_seconds > 0 ? options.max_seconds - clock.seconds() : 0.0;
  };
  const auto out_of_time = [&]() {
    return options.max_seconds > 0 && clock.seconds() >= options.max_seconds;
  };

  const auto stopped = [&]() {
    return options.stop && options.stop->load(std::memory_order_relaxed);
  };
  const auto tally_conflicts = [&]() {
    const sat::Backend& wsat = window.solver().sat_solver();
    const BmcStats& bs = base.stats();
    result.solver_conflicts = bs.solver_conflicts + wsat.num_conflicts();
    result.solver_propagations = bs.solver_propagations + wsat.num_propagations();
    result.solver_decisions = bs.solver_decisions + wsat.num_decisions();
    result.cnf_vars = bs.cnf_vars + static_cast<std::uint64_t>(wsat.num_vars());
    result.cnf_clauses = bs.cnf_clauses + wsat.num_clauses();
    const smt::BitBlaster::ConeStats& wc = window.solver().cone_stats();
    result.cone_lookups = bs.cone_lookups + wc.lookups;
    result.cone_hits = bs.cone_hits + wc.hits;
    result.cone_clauses_replayed = bs.cone_clauses_replayed + wc.clauses_replayed;
    result.eliminated_vars = bs.eliminated_vars + wsat.num_eliminated_vars();
    result.subsumed_clauses = bs.subsumed_clauses + wsat.num_subsumed_clauses();
    result.vivified_clauses = bs.vivified_clauses + wsat.num_vivified_clauses();
    result.hit_memory_limit = bs.hit_memory_limit || wsat.out_of_memory();
    result.sat_retries = bs.sat_retries + wsat.num_retries();
  };

  for (unsigned k = 1; k <= options.max_k; ++k) {
    // --- base: any violation within k steps from init? ---
    BmcOptions bo;
    bo.max_bound = k;
    bo.conflict_budget_per_bound = options.conflict_budget;
    bo.max_seconds = remaining();
    bo.stop = options.stop;
    const auto w = base.check(bo);
    if (w) {
      result.status = KInductionStatus::Falsified;
      result.k = k;
      result.witness = w;
      result.seconds = clock.seconds();
      tally_conflicts();
      return result;
    }
    if (base.stats().cancelled || stopped()) break;
    if (base.stats().hit_resource_limit || out_of_time()) break;

    // --- inductive step: k good steps, bad at step k. Unsat => proved. ---
    const TermRef bad_k = window.extend_to(k);
    std::vector<TermRef> assumptions;
    for (unsigned t = 0; t < k; ++t)
      assumptions.push_back(window.mgr().mk_not(window.extend_to(t)));
    if (options.simple_path) {
      for (unsigned i = 0; i <= k; ++i)
        for (unsigned j = i + 1; j <= k; ++j)
          assumptions.push_back(window.states_differ(i, j));
    }
    assumptions.push_back(bad_k);

    window.solver().set_conflict_budget(options.conflict_budget);
    window.solver().set_time_budget(remaining());
    window.solver().set_stop_flag(options.stop);
    const Result r = window.solver().check(assumptions);
    if (r == Result::Unsat) {
      result.status = KInductionStatus::Proved;
      result.k = k;
      result.seconds = clock.seconds();
      tally_conflicts();
      return result;
    }
    if (r == Result::Unknown || out_of_time()) break;
    result.k = k;  // Sat: not yet inductive, deepen
  }

  result.cancelled = stopped();
  result.hit_resource_limit = !result.cancelled && out_of_time();
  result.seconds = clock.seconds();
  tally_conflicts();
  return result;
}

}  // namespace sepe::bmc
