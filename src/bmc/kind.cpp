#include "bmc/kind.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>
#include <unordered_map>

#include "smt/subst.hpp"
#include "util/fault.hpp"
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
  std::optional<InductiveWindow> window;  // built by the first step

  const auto out_of_time = [&]() {
    return options.max_seconds > 0 && clock.seconds() >= options.max_seconds;
  };
  // The wall cap left for the next solver call; a spent cap stays
  // positive, because 0 means none.
  const auto remaining = [&]() {
    if (options.max_seconds <= 0) return 0.0;
    return std::max(options.max_seconds - clock.seconds(), 1e-9);
  };
  const auto tally = [&]() {
    const BmcStats& bs = base.stats();
    result.bmc_bounds_checked = bs.bounds_checked;
    smt::Work& work = result;
    work = bs;
    if (window) work += window->solver().work();
    // BMC stats describe its last call, the one that ended the loop.
    result.hit_resource_limit = result.hit_resource_limit || bs.hit_resource_limit;
    result.cancelled = result.cancelled || bs.cancelled;
    result.seconds = clock.seconds();
  };

  // BMC up to `bound` (frontier-incremental: only new bounds are solved).
  const auto sweep_to = [&](unsigned bound) {
    BmcOptions bo;
    bo.max_bound = bound;
    bo.conflict_budget_per_bound = options.conflict_budget;
    bo.max_seconds = remaining();
    return base.check(bo);
  };
  const auto sweep_cut_short = [&]() {
    return base.stats().hit_resource_limit || base.stats().cancelled;
  };
  const auto falsified = [&](Witness w) {
    result.status = KInductionStatus::Falsified;
    result.k = w.length;
    result.witness = std::move(w);
    tally();
    return result;
  };

  // Inductive step at k: k good steps, bad at step k. Unsat => k-inductive.
  const auto step = [&](unsigned k) {
    if (out_of_time()) return Result::Unknown;
    if (!window)
      window.emplace(ts, options.solver_config, options.plaisted_greenbaum,
                     options.cone_cache, options.backend);
    const TermRef bad_k = window->extend_to(k);
    std::vector<TermRef> assumptions;
    for (unsigned t = 0; t < k; ++t)
      assumptions.push_back(window->mgr().mk_not(window->extend_to(t)));
    if (options.simple_path) {
      for (unsigned i = 0; i <= k; ++i)
        for (unsigned j = i + 1; j <= k; ++j)
          assumptions.push_back(window->states_differ(i, j));
    }
    assumptions.push_back(bad_k);
    window->solver().set_conflict_budget(options.conflict_budget);
    window->solver().set_time_budget(remaining());
    return window->solver().check(assumptions);
  };

  bool stepping = options.max_k > 0;  // cleared when the proof is forfeited
  for (unsigned k = 0; k <= options.max_bound || (stepping && k <= options.max_k); ++k) {
    if (k <= options.max_bound) {
      if (std::optional<Witness> w = sweep_to(k)) return falsified(std::move(*w));
      if (sweep_cut_short()) break;
    }
    if (!stepping || k == 0 || k > options.max_k) continue;
    const Result r = step(k);
    if (r == Result::Sat) continue;  // not yet inductive, deepen
    if (r == Result::Unknown) {
      if (fault::global_stop_requested()) {
        result.cancelled = true;
        break;
      }
      // A spent budget forfeits only the proof; BMC sweeps on.
      result.hit_resource_limit = true;
      stepping = false;
      continue;
    }
    // k-inductive. The base case needs bounds 0..k-1 clean, which past
    // the falsification horizon means extending the sweep. An extension
    // cut short forfeits the proof, and with it the loop (k > max_bound).
    if (base.frontier() < k) {
      if (std::optional<Witness> w = sweep_to(k - 1)) return falsified(std::move(*w));
      if (sweep_cut_short()) {
        stepping = false;
        continue;
      }
    }
    result.status = KInductionStatus::Proved;
    result.k = k;
    tally();
    return result;
  }

  tally();
  result.bound_clean = !result.cancelled && base.frontier() > options.max_bound;
  return result;
}

}  // namespace sepe::bmc
