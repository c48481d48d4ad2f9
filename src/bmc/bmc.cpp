#include "bmc/bmc.hpp"

#include <cassert>
#include <sstream>

#include "util/stopwatch.hpp"

namespace sepe::bmc {

using smt::Result;
using smt::SubstMap;
using smt::TermRef;

Bmc::Bmc(const ts::TransitionSystem& ts, const sat::SolverConfig& config,
         bool plaisted_greenbaum, std::shared_ptr<smt::ConeCache> cone_cache,
         sat::BackendKind backend)
    : ts_(ts),
      mgr_(ts.mgr()),
      solver_(mgr_, config, plaisted_greenbaum, std::move(cone_cache), backend) {
  assert(ts.complete() && "every state needs a next function");
}

TermRef Bmc::timed(TermRef var, unsigned step) const {
  assert(step < time_maps_.size());
  const auto it = time_maps_[step].find(var);
  assert(it != time_maps_[step].end());
  return it->second;
}

void Bmc::unroll_to(unsigned step) {
  while (time_maps_.size() <= step) {
    const unsigned t = static_cast<unsigned>(time_maps_.size());
    SubstMap map;
    if (t == 0) {
      // Step 0: states take their init values (fresh vars when
      // unconstrained), inputs are fresh.
      for (TermRef s : ts_.states()) {
        const TermRef init = ts_.init_of(s);
        if (init != smt::kNullTerm) {
          map[s] = init;  // init terms must be constant/input-free by construction
        } else {
          map[s] = mgr_.mk_var(mgr_.node(s).name + "@0", mgr_.width(s));
        }
      }
    } else {
      // Step t: states are the previous step's next-functions.
      SubstMap& prev = time_maps_[t - 1];
      SubstMap& prev_cache = subst_caches_[t - 1];
      for (TermRef s : ts_.states()) {
        map[s] = smt::substitute(mgr_, ts_.next_of(s), prev, &prev_cache);
      }
    }
    for (TermRef in : ts_.inputs())
      map[in] = mgr_.mk_var(mgr_.node(in).name + "@" + std::to_string(t), mgr_.width(in));

    time_maps_.push_back(std::move(map));
    subst_caches_.emplace_back();

    // Step constraints hold at every unrolled step.
    for (TermRef c : ts_.constraints()) {
      solver_.assert_formula(
          smt::substitute(mgr_, c, time_maps_[t], &subst_caches_[t]));
    }
    if (t == 0) {
      for (TermRef c : ts_.init_constraints()) {
        solver_.assert_formula(
            smt::substitute(mgr_, c, time_maps_[0], &subst_caches_[0]));
      }
    }
  }
}

std::optional<Witness> Bmc::check(const BmcOptions& options) {
  Stopwatch clock;
  stats_ = BmcStats{};
  // Lifetime-cumulative, so an early exit (stop flag, wall cap) before the
  // first solve of this call still reports the conflicts of earlier calls.
  static_cast<smt::Work&>(stats_) = solver_.work();

  // Reset resource budgets before anything else: a capped earlier call
  // must not leave its (smaller) budgets armed for an uncapped one.
  solver_.set_conflict_budget(0);
  solver_.set_time_budget(0.0);

  // Bounds below the frontier were proven violation-free by earlier
  // calls; assertions are monotone, so those verdicts stay valid and the
  // sweep resumes where it left off.
  stats_.bounds_checked =
      frontier_ > options.max_bound ? options.max_bound + 1 : frontier_;

  for (unsigned bound = frontier_; bound <= options.max_bound; ++bound) {
    if (solver_.stop_requested()) {
      stats_.cancelled = true;
      break;
    }
    if (options.max_seconds > 0 && clock.seconds() > options.max_seconds) {
      stats_.hit_resource_limit = true;
      break;
    }
    unroll_to(bound);
    stats_.bounds_checked = bound + 1;

    // One solve per bound: assume the disjunction of all bad conditions.
    std::vector<TermRef> bad_terms;
    for (TermRef b : ts_.bads())
      bad_terms.push_back(
          smt::substitute(mgr_, b, time_maps_[bound], &subst_caches_[bound]));
    const TermRef any_bad = mgr_.mk_or_many(bad_terms);

    solver_.set_conflict_budget(options.conflict_budget_per_bound);
    // Hand the solver the remaining wall budget so one hard bound cannot
    // overshoot the cap arbitrarily.
    if (options.max_seconds > 0)
      solver_.set_time_budget(options.max_seconds - clock.seconds());
    const Result r = solver_.check({any_bad});
    static_cast<smt::Work&>(stats_) = solver_.work();
    if (r == Result::Unknown) {
      if (solver_.stop_requested()) {
        stats_.cancelled = true;
      } else {
        stats_.hit_resource_limit = true;
      }
      break;
    }
    if (r == Result::Sat) {
      Witness w;
      w.length = bound;
      // Identify which bad condition fired.
      for (std::size_t i = 0; i < bad_terms.size(); ++i) {
        if (solver_.value(bad_terms[i]).is_true()) {
          w.bad_index = i;
          w.bad_label = ts_.bad_labels()[i];
          break;
        }
      }
      for (unsigned t = 0; t <= bound; ++t) {
        smt::Assignment in_vals, st_vals;
        for (TermRef in : ts_.inputs())
          in_vals.emplace(in, solver_.value(time_maps_[t].at(in)));
        for (TermRef s : ts_.states())
          st_vals.emplace(s, solver_.value(time_maps_[t].at(s)));
        w.inputs.push_back(std::move(in_vals));
        w.states.push_back(std::move(st_vals));
      }
      stats_.seconds = clock.seconds();
      return w;
    }
    // Unsat: this bound is clean for good. Assert the refuted bad cone
    // false outright — it is implied by the unrolling, so this is sound,
    // and deeper bounds (or a later frontier-resumed call) get the
    // refutation as a unit fact for free instead of ever revisiting it.
    solver_.assert_formula(mgr_.mk_not(any_bad));
    frontier_ = bound + 1;
  }
  stats_.seconds = clock.seconds();
  return std::nullopt;
}

std::string witness_to_string(const ts::TransitionSystem& ts, const Witness& w) {
  std::ostringstream os;
  os << "counterexample of length " << w.length;
  if (!w.bad_label.empty()) os << " violating [" << w.bad_label << "]";
  os << "\n";
  for (unsigned t = 0; t <= w.length; ++t) {
    os << "  step " << t << ":\n";
    for (TermRef in : ts.inputs()) {
      const auto it = w.inputs[t].find(in);
      if (it != w.inputs[t].end())
        os << "    in  " << ts.mgr().node(in).name << " = " << it->second.to_hex()
           << "\n";
    }
    for (TermRef s : ts.states()) {
      const auto it = w.states[t].find(s);
      if (it != w.states[t].end())
        os << "    st  " << ts.mgr().node(s).name << " = " << it->second.to_hex() << "\n";
    }
  }
  return os.str();
}

}  // namespace sepe::bmc
