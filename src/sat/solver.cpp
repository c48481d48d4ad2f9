#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace sepe::sat {

std::string SolverConfig::to_string() const {
  char buf[336];
  int n = std::snprintf(buf, sizeof buf,
                        "decay=%.17g;restart=%s;base=%u;mult=%.17g;phase=%d;rand=%u;"
                        "seed=%" PRIu64 ";reduce=%" PRIu64 "+%" PRIu64 ";inproc=%" PRIu64
                        ";bve=%u;vivify=%d",
                        var_decay, restart == Restart::Luby ? "luby" : "geometric",
                        restart_base, restart_mult, phase_init_true ? 1 : 0,
                        random_branch_freq, seed, reduce_base, reduce_increment,
                        inprocess_interval, bve_occurrence_limit, vivify ? 1 : 0);
  // The tail segment is appended only when non-default so existing
  // (pre-knob) strings stay byte-identical and keep parsing.
  if (memory_limit_mb != 0)
    std::snprintf(buf + n, sizeof buf - n, ";mem=%u", memory_limit_mb);
  return buf;
}

std::optional<SolverConfig> SolverConfig::from_string(const std::string& text) {
  SolverConfig c;
  char restart_name[16] = {0};
  int phase = 0;
  int vivify_flag = 0;
  int consumed = 0;
  const int got = std::sscanf(
      text.c_str(),
      "decay=%lg;restart=%15[a-z];base=%u;mult=%lg;phase=%d;rand=%u;"
      "seed=%" SCNu64 ";reduce=%" SCNu64 "+%" SCNu64 ";inproc=%" SCNu64
      ";bve=%u;vivify=%d%n",
      &c.var_decay, restart_name, &c.restart_base, &c.restart_mult, &phase,
      &c.random_branch_freq, &c.seed, &c.reduce_base, &c.reduce_increment,
      &c.inprocess_interval, &c.bve_occurrence_limit, &vivify_flag, &consumed);
  if (got != 12) return std::nullopt;
  // Optional tail segment. to_string writes it only when the knob is
  // non-default, so a tail carrying the default value is non-canonical
  // and rejected.
  const char* tail = text.c_str() + consumed;
  int seg = 0;
  if (std::sscanf(tail, ";mem=%u%n", &c.memory_limit_mb, &seg) == 1) {
    if (c.memory_limit_mb == 0) return std::nullopt;
    tail += seg;
  }
  if (*tail != '\0') return std::nullopt;
  if (!std::strcmp(restart_name, "luby")) {
    c.restart = Restart::Luby;
  } else if (!std::strcmp(restart_name, "geometric")) {
    c.restart = Restart::Geometric;
  } else {
    return std::nullopt;
  }
  if (phase != 0 && phase != 1) return std::nullopt;
  c.phase_init_true = phase == 1;
  if (vivify_flag != 0 && vivify_flag != 1) return std::nullopt;
  c.vivify = vivify_flag == 1;
  if (!(c.var_decay > 0.0 && c.var_decay <= 1.0)) return std::nullopt;
  if (!(c.restart_mult >= 1.0) || c.restart_base == 0) return std::nullopt;
  // A zero reduction cadence would purge the learnt DB on every conflict.
  if (c.reduce_base == 0 || c.reduce_increment == 0) return std::nullopt;
  return c;
}

Solver::Solver(const SolverConfig& config) : config_(config), rng_state_(config.seed) {}

std::uint64_t Solver::next_random() {
  // splitmix64 — deterministic from config_.seed.
  std::uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Solver::new_var() {
  const int v = static_cast<int>(assigns_.size());
  assigns_.push_back(Value::Unknown);
  model_.push_back(Value::False);
  saved_phase_.push_back(config_.phase_init_true ? Value::True : Value::False);
  level_.push_back(0);
  reason_.push_back(kNullRef);
  activity_.push_back(0.0);
  heap_index_.push_back(-1);
  seen_.push_back(0);
  eliminated_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

Solver::ClauseRef Solver::alloc_clause(const std::vector<Lit>& clause_lits, bool learnt) {
  const std::size_t bytes = sizeof(ClauseHeader) + clause_lits.size() * sizeof(Lit);
  // Keep 4-byte alignment of the arena.
  const std::size_t aligned = (bytes + 3) & ~std::size_t(3);
  const ClauseRef ref = static_cast<ClauseRef>(arena_.size());
  arena_.resize(arena_.size() + aligned);
  ClauseHeader* h = header(ref);
  h->size = static_cast<std::uint32_t>(clause_lits.size());
  h->lbd = learnt ? 2 : 0;
  h->activity = 0.0f;
  std::copy(clause_lits.begin(), clause_lits.end(), lits(ref));
  return ref;
}

void Solver::attach(ClauseRef ref) {
  const Lit* c = lits(ref);
  watches_[(~c[0]).code()].push_back({ref, c[1]});
  watches_[(~c[1]).code()].push_back({ref, c[0]});
}

void Solver::detach(ClauseRef ref) {
  const Lit* c = lits(ref);
  for (Lit w : {~c[0], ~c[1]}) {
    auto& ws = watches_[w.code()];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].ref == ref) {
        ws[i] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

bool Solver::add_clause(std::vector<Lit> clause_lits) {
  if (root_unsat_) return false;
  assert(decision_level() == 0);

  // A clause mentioning a variable eliminated by inprocessing brings that
  // variable back first (restoring its removed clauses), so elimination
  // stays invisible to incremental callers.
  for (Lit l : clause_lits)
    if (eliminated(l.var())) reactivate(l.var());
  if (root_unsat_) return false;

  // Normalize: sort, dedupe, drop false literals, detect tautology/sat.
  std::sort(clause_lits.begin(), clause_lits.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  std::vector<Lit> out;
  out.reserve(clause_lits.size());
  Lit prev = Lit::from_code(-2);
  for (Lit l : clause_lits) {
    if (l == prev) continue;
    if (l == ~prev) return true;  // tautology
    if (value(l) == Value::True) return true;
    if (value(l) == Value::False) { prev = l; continue; }
    out.push_back(l);
    prev = l;
  }

  if (out.empty()) {
    root_unsat_ = true;
    return false;
  }
  if (out.size() == 1) {
    enqueue(out[0], kNullRef);
    if (propagate() != kNullRef) {
      root_unsat_ = true;
      return false;
    }
    return true;
  }
  const ClauseRef ref = alloc_clause(out, /*learnt=*/false);
  clauses_.push_back(ref);
  attach(ref);
  return true;
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  assert(value(l) == Value::Unknown);
  const int v = l.var();
  assigns_[v] = l.sign() ? Value::False : Value::True;
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate(bool problem_only) {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_propagations_;
    auto& ws = watches_[p.code()];
    std::size_t i = 0, j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == Value::True) {
        ws[j++] = ws[i++];
        continue;
      }
      ClauseHeader* h = header(w.ref);
      if (problem_only && h->lbd != 0) {
        // Vivification proofs must not lean on learnt clauses: a learnt is
        // a consequence of the *original* formula, not of the current
        // (post-elimination) database, and reduce_learnts may drop it
        // later — a problem clause deleted on its strength would be gone
        // for good. Skipped watchers are left in place; the caller re-runs
        // a full propagation afterwards to restore their watch invariants.
        ws[j++] = ws[i++];
        continue;
      }
      Lit* c = lits(w.ref);
      // Ensure the false literal ~p is at position 1.
      const Lit not_p = ~p;
      if (c[0] == not_p) std::swap(c[0], c[1]);
      assert(c[1] == not_p);
      if (value(c[0]) == Value::True) {
        ws[j++] = {w.ref, c[0]};
        ++i;
        continue;
      }
      // Look for a new watch.
      bool found = false;
      for (std::uint32_t k = 2; k < h->size; ++k) {
        if (value(c[k]) != Value::False) {
          std::swap(c[1], c[k]);
          watches_[(~c[1]).code()].push_back({w.ref, c[0]});
          found = true;
          break;
        }
      }
      if (found) {
        ++i;  // watcher moved elsewhere; do not keep
        continue;
      }
      // Clause is unit or conflicting.
      if (value(c[0]) == Value::False) {
        // Conflict: keep remaining watchers, return.
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        return w.ref;
      }
      enqueue(c[0], w.ref);
      ws[j++] = {w.ref, c[0]};
      ++i;
    }
    ws.resize(j);
  }
  return kNullRef;
}

std::uint32_t Solver::compute_lbd(const std::vector<Lit>& clause) {
  // LBD = number of distinct decision levels in the clause.
  static thread_local std::vector<int> mark;
  static thread_local int stamp = 0;
  ++stamp;
  std::uint32_t lbd = 0;
  for (Lit l : clause) {
    const int lev = level_[l.var()];
    if (lev >= static_cast<int>(mark.size())) mark.resize(lev + 1, 0);
    if (mark[lev] != stamp) {
      mark[lev] = stamp;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::bump_var(int var) {
  activity_[var] += var_inc_;
  if (activity_[var] > kActivityLimit) rescale_var_activity();
  if (heap_contains(var)) heap_percolate_up(heap_index_[var]);
}

void Solver::rescale_var_activity() {
  for (double& a : activity_) a *= 1e-100;
  var_inc_ *= 1e-100;
}

void Solver::bump_clause(ClauseRef ref) {
  ClauseHeader* h = header(ref);
  h->activity += static_cast<float>(clause_inc_);
  if (h->activity > 1e20f) {
    for (ClauseRef r : learnts_) header(r)->activity *= 1e-20f;
    clause_inc_ *= 1e-20;
  }
}

void Solver::analyze(ClauseRef confl, std::vector<Lit>& out_learnt, int& out_btlevel,
                     std::uint32_t& out_lbd) {
  out_learnt.clear();
  out_learnt.push_back(Lit());  // placeholder for the asserting literal
  int counter = 0;
  Lit p;
  std::size_t index = trail_.size();
  bool first = true;

  do {
    assert(confl != kNullRef);
    bump_clause(confl);
    const ClauseHeader* h = header(confl);
    const Lit* c = lits(confl);
    for (std::uint32_t k = first ? 0 : 1; k < h->size; ++k) {
      const Lit q = c[k];
      const int v = q.var();
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = 1;
        bump_var(v);
        if (level_[v] >= decision_level()) {
          ++counter;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    // Find the next literal on the trail to resolve on.
    while (!seen_[trail_[--index].var()]) {}
    p = trail_[index];
    confl = reason_[p.var()];
    seen_[p.var()] = 0;
    --counter;
    first = false;
  } while (counter > 0);
  out_learnt[0] = ~p;

  // Clause minimization: drop literals implied by the rest of the clause.
  // Remember every var marked seen_ so far: literals dropped below still
  // need their marks cleared at the end (stale marks corrupt later calls).
  analyze_toclear_.clear();
  for (Lit l : out_learnt) analyze_toclear_.push_back(l.var());
  std::uint32_t abstract_levels = 0;
  for (std::size_t k = 1; k < out_learnt.size(); ++k)
    abstract_levels |= 1u << (level_[out_learnt[k].var()] & 31);
  std::size_t keep = 1;
  for (std::size_t k = 1; k < out_learnt.size(); ++k) {
    if (reason_[out_learnt[k].var()] == kNullRef ||
        !literal_redundant(out_learnt[k], abstract_levels)) {
      out_learnt[keep++] = out_learnt[k];
    }
  }
  out_learnt.resize(keep);

  // Find backtrack level: the second-highest level in the clause.
  out_btlevel = 0;
  if (out_learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t k = 2; k < out_learnt.size(); ++k)
      if (level_[out_learnt[k].var()] > level_[out_learnt[max_i].var()]) max_i = k;
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level_[out_learnt[1].var()];
  }
  out_lbd = compute_lbd(out_learnt);

  for (int v : analyze_toclear_) seen_[v] = 0;
  for (int v : minimize_marked_) seen_[v] = 0;
  minimize_marked_.clear();
}

bool Solver::literal_redundant(Lit l, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  std::vector<int> to_clear;
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const ClauseRef r = reason_[q.var()];
    if (r == kNullRef) {
      for (int v : to_clear) seen_[v] = 0;
      return false;
    }
    const ClauseHeader* h = header(r);
    const Lit* c = lits(r);
    for (std::uint32_t k = 1; k < h->size; ++k) {
      const Lit p = c[k];
      const int v = p.var();
      if (seen_[v] || level_[v] == 0) continue;
      if (reason_[v] == kNullRef || !((1u << (level_[v] & 31)) & abstract_levels)) {
        for (int u : to_clear) seen_[u] = 0;
        return false;
      }
      seen_[v] = 1;
      to_clear.push_back(v);
      analyze_stack_.push_back(p);
    }
  }
  // Redundant: keep the marks so sibling redundancy checks can reuse them;
  // they are recorded in minimize_marked_ and cleared at the end of
  // analyze() together with the clause's own marks.
  minimize_marked_.insert(minimize_marked_.end(), to_clear.begin(), to_clear.end());
  return true;
}

void Solver::analyze_final(Lit p) {
  // Compute the set of assumptions implying ~p (conflict core).
  conflict_core_.clear();
  conflict_core_.push_back(~p);
  if (decision_level() == 0) return;
  seen_[p.var()] = 1;
  for (std::size_t i = trail_.size(); i-- > static_cast<std::size_t>(trail_lim_[0]);) {
    const int v = trail_[i].var();
    if (!seen_[v]) continue;
    if (reason_[v] == kNullRef) {
      if (v != p.var()) conflict_core_.push_back(~trail_[i]);
    } else {
      const ClauseHeader* h = header(reason_[v]);
      const Lit* c = lits(reason_[v]);
      for (std::uint32_t k = 1; k < h->size; ++k)
        if (level_[c[k].var()] > 0) seen_[c[k].var()] = 1;
    }
    seen_[v] = 0;
  }
  seen_[p.var()] = 0;
}

void Solver::backtrack(int target) {
  if (decision_level() <= target) return;
  for (std::size_t i = trail_.size();
       i-- > static_cast<std::size_t>(trail_lim_[target]);) {
    const int v = trail_[i].var();
    saved_phase_[v] = assigns_[v];
    assigns_[v] = Value::Unknown;
    reason_[v] = kNullRef;
    if (!heap_contains(v)) heap_insert(v);
  }
  trail_.resize(trail_lim_[target]);
  trail_lim_.resize(target);
  propagate_head_ = trail_.size();
}

Lit Solver::pick_branch() {
  // Random branching: every Nth decision branches on a pseudo-random
  // unassigned variable instead of the VSIDS top. Deterministic (seeded);
  // falls through to VSIDS when the drawn variable is already assigned.
  if (config_.random_branch_freq != 0 && !assigns_.empty() &&
      (stats_decisions_ + 1) % config_.random_branch_freq == 0) {
    const int v = static_cast<int>(next_random() % assigns_.size());
    if (value(v) == Value::Unknown && !eliminated(v)) {
      ++stats_decisions_;
      return Lit(v, saved_phase_[v] == Value::False);
    }
  }
  while (!heap_empty()) {
    const int v = heap_pop();
    if (value(v) == Value::Unknown && !eliminated(v)) {
      ++stats_decisions_;
      return Lit(v, saved_phase_[v] == Value::False);
    }
  }
  return Lit();  // all assigned
}

std::uint64_t Solver::restart_interval(std::uint64_t restart_count) const {
  if (config_.restart == SolverConfig::Restart::Luby)
    return config_.restart_base * luby(restart_count + 1);
  const double interval =
      static_cast<double>(config_.restart_base) *
      std::pow(config_.restart_mult, static_cast<double>(restart_count));
  constexpr double kCap = 1e18;  // avoid overflow on long geometric runs
  return static_cast<std::uint64_t>(std::min(interval, kCap));
}

std::uint64_t Solver::luby(std::uint64_t i) {
  // Luby sequence, 1-based: luby(1..)= 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  assert(i >= 1);
  std::uint64_t k = 1;
  while ((1ULL << (k + 1)) - 1 <= i) ++k;
  while (i != (1ULL << k) - 1) {
    i -= (1ULL << k) - 1;
    k = 1;
    while ((1ULL << (k + 1)) - 1 <= i) ++k;
  }
  return 1ULL << (k - 1);
}

void Solver::reduce_learnts() {
  // Keep low-LBD ("glue") clauses; drop the worse half of the rest.
  std::vector<ClauseRef> sorted = learnts_;
  std::sort(sorted.begin(), sorted.end(), [this](ClauseRef a, ClauseRef b) {
    const ClauseHeader *ha = header(a), *hb = header(b);
    if (ha->lbd != hb->lbd) return ha->lbd < hb->lbd;
    return ha->activity > hb->activity;
  });
  const std::size_t keep_count = sorted.size() / 2;
  std::vector<ClauseRef> kept;
  kept.reserve(keep_count + 16);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const ClauseRef r = sorted[i];
    // Never drop clauses that are reasons for current assignments or glue.
    bool locked = false;
    const Lit first = lits(r)[0];
    if (value(first) == Value::True && reason_[first.var()] == r) locked = true;
    if (i < keep_count || header(r)->lbd <= 3 || locked) {
      kept.push_back(r);
    } else {
      detach(r);
    }
  }
  learnts_ = std::move(kept);
}

// --- inprocessing -----------------------------------------------------
//
// The pipeline runs between restarts at decision level 0, bounded so a
// round costs a small fraction of the search it interleaves with:
//
//   1. copy-out      arena -> plain literal vectors; root-satisfied
//                    clauses dropped, root-false literals stripped
//   2. subsumption   forward subsumption + self-subsuming resolution
//                    over the problem clauses
//   3. elimination   bounded variable elimination (occurrence- and
//                    growth-limited); removed clauses go to elim_stack_
//   4. unit fixpoint units produced by 2/3 are propagated at the vector
//                    level until stable
//   5. rebuild       the arena is re-allocated compactly (this is also
//                    what reclaims leaked learnt-clause bytes)
//   6. vivification  bounded re-propagation of problem clauses through
//                    the solver's own watches, shrinking or dropping them
//
// Assumption variables of the running solve are frozen (never
// eliminated); variables eliminated in an earlier solve are reactivated
// by add_clause()/solve() when mentioned again. docs/SOLVER.md states
// the contract in prose.

namespace {

/// True when every literal of `small` occurs in `big` (both sorted by
/// code), with at most one occurring *negated*. On success `*flipped` is
/// that negated literal's code in `big` (self-subsuming resolution), or
/// -1 when `small` subsumes `big` outright. The flipped code is reported
/// out-of-band because code 0 is a valid literal (variable 0, positive).
bool subsume_check(const std::vector<Lit>& small, const std::vector<Lit>& big,
                   int* flipped) {
  *flipped = -1;
  std::size_t i = 0, j = 0;
  while (i < small.size()) {
    if (j == big.size()) return false;
    const int a = small[i].code(), b = big[j].code();
    if (a == b) {
      ++i;
      ++j;
    } else if ((a ^ 1) == b) {
      if (*flipped != -1) return false;
      *flipped = b;
      ++i;
      ++j;
    } else if (a > b) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

void Solver::inprocess(const std::vector<Lit>& assumptions) {
  assert(decision_level() == 0);
  // Root assignments need no reasons from here on; clearing them lets the
  // arena be rebuilt without dangling clause references.
  for (Lit l : trail_) reason_[l.var()] = kNullRef;

  std::vector<std::uint8_t> frozen(assigns_.size(), 0);
  for (Lit a : assumptions) frozen[a.var()] = 1;

  // 1. Copy-out. Surviving clauses have >= 2 unassigned literals
  // (propagation is complete), sorted by code.
  std::vector<std::vector<Lit>> problem;
  problem.reserve(clauses_.size());
  for (const ClauseRef ref : clauses_) {
    const ClauseHeader* h = header(ref);
    const Lit* c = lits(ref);
    std::vector<Lit> out;
    out.reserve(h->size);
    bool satisfied = false;
    for (std::uint32_t k = 0; k < h->size && !satisfied; ++k) {
      if (value(c[k]) == Value::True) satisfied = true;
      else if (value(c[k]) == Value::Unknown) out.push_back(c[k]);
    }
    if (satisfied) continue;
    assert(out.size() >= 2);
    std::sort(out.begin(), out.end(), [](Lit a, Lit b) { return a.code() < b.code(); });
    problem.push_back(std::move(out));
  }
  std::vector<std::pair<std::vector<Lit>, std::uint32_t>> learnt_db;
  learnt_db.reserve(learnts_.size());
  for (const ClauseRef ref : learnts_) {
    const ClauseHeader* h = header(ref);
    const Lit* c = lits(ref);
    std::vector<Lit> out;
    out.reserve(h->size);
    bool satisfied = false;
    for (std::uint32_t k = 0; k < h->size && !satisfied; ++k) {
      if (value(c[k]) == Value::True) satisfied = true;
      else if (value(c[k]) == Value::Unknown) out.push_back(c[k]);
    }
    if (satisfied) continue;
    assert(out.size() >= 2);
    learnt_db.emplace_back(std::move(out), h->lbd);
  }

  // 2. Forward subsumption + self-subsuming resolution over the problem
  // clauses, driven by occurrence lists of the least-frequent literal.
  std::vector<std::uint8_t> alive(problem.size(), 1);
  {
    std::vector<std::vector<std::uint32_t>> occ(2 * assigns_.size());
    for (std::size_t i = 0; i < problem.size(); ++i)
      for (Lit l : problem[i]) occ[l.code()].push_back(static_cast<std::uint32_t>(i));
    constexpr std::size_t kOccSkip = 64;  // skip super-frequent pivot literals
    for (std::size_t i = 0; i < problem.size(); ++i) {
      if (!alive[i]) continue;
      const std::vector<Lit>& c = problem[i];
      // Pivot on the literal with the fewest occurrences; a flipped pivot
      // also finds the self-subsumption cases on the pivot literal.
      std::size_t best = occ[c[0].code()].size();
      Lit pivot = c[0];
      for (Lit l : c) {
        const std::size_t n = occ[l.code()].size();
        if (n < best) {
          best = n;
          pivot = l;
        }
      }
      if (best > kOccSkip) continue;
      for (int side = 0; side < 2; ++side) {
        const Lit probe = side == 0 ? pivot : ~pivot;
        for (const std::uint32_t j : occ[probe.code()]) {
          if (j == i || !alive[j]) continue;
          std::vector<Lit>& d = problem[j];
          if (d.size() < c.size()) continue;
          int flipped_code;
          if (!subsume_check(c, d, &flipped_code)) continue;
          if (flipped_code < 0) {
            // c subsumes d outright.
            alive[j] = 0;
            ++stats_subsumed_clauses_;
          } else {
            // Self-subsuming resolution: remove the flipped literal
            // from d. occ entries for d go stale; the alive/membership
            // checks above tolerate that.
            const Lit flipped = Lit::from_code(flipped_code);
            d.erase(std::remove(d.begin(), d.end(), flipped), d.end());
            ++stats_subsumed_clauses_;
            if (d.size() <= 1) alive[j] = 0;  // re-added as a unit below
          }
        }
      }
    }
    // Units produced by strengthening: queue them for the fixpoint pass.
    std::vector<std::vector<Lit>> compacted;
    compacted.reserve(problem.size());
    std::vector<std::vector<Lit>> units;
    for (std::size_t i = 0; i < problem.size(); ++i) {
      if (alive[i]) {
        compacted.push_back(std::move(problem[i]));
      } else if (problem[i].size() == 1) {
        units.push_back(std::move(problem[i]));
      }
    }
    problem = std::move(compacted);
    for (auto& u : units) problem.push_back(std::move(u));
  }

  // 3. Bounded variable elimination. A candidate variable must be
  // unassigned, unfrozen, and occur at most bve_occurrence_limit times in
  // each polarity; elimination must not grow the clause count.
  if (config_.bve_occurrence_limit != 0 && !root_unsat_) {
    constexpr std::size_t kMaxResolventLits = 24;
    std::vector<std::vector<std::uint32_t>> occ(2 * assigns_.size());
    for (std::size_t i = 0; i < problem.size(); ++i)
      for (Lit l : problem[i]) occ[l.code()].push_back(static_cast<std::uint32_t>(i));
    std::vector<std::uint8_t> live(problem.size(), 1);
    const auto gather = [&](Lit l, std::vector<std::uint32_t>* out) {
      out->clear();
      for (const std::uint32_t i : occ[l.code()]) {
        if (!live[i]) continue;
        if (std::find(problem[i].begin(), problem[i].end(), l) == problem[i].end())
          continue;  // stale entry (clause strengthened elsewhere)
        out->push_back(i);
      }
    };
    std::vector<std::uint32_t> pos, neg;
    for (int v = 0; v < static_cast<int>(assigns_.size()); ++v) {
      if (frozen[v] || eliminated(v) || value(v) != Value::Unknown) continue;
      const Lit pl(v, false), nl(v, true);
      gather(pl, &pos);
      gather(nl, &neg);
      if (pos.empty() && neg.empty()) continue;
      if (pos.size() > config_.bve_occurrence_limit ||
          neg.size() > config_.bve_occurrence_limit)
        continue;
      // Build the resolvents; give up on growth.
      std::vector<std::vector<Lit>> resolvents;
      bool aborted = false;
      for (const std::uint32_t pi : pos) {
        for (const std::uint32_t ni : neg) {
          std::vector<Lit> r;
          bool tautology = false;
          for (Lit l : problem[pi])
            if (l != pl) r.push_back(l);
          for (Lit l : problem[ni]) {
            if (l == nl) continue;
            if (std::find(r.begin(), r.end(), ~l) != r.end()) {
              tautology = true;
              break;
            }
            if (std::find(r.begin(), r.end(), l) == r.end()) r.push_back(l);
          }
          if (tautology) continue;
          if (r.size() > kMaxResolventLits) {
            aborted = true;
            break;
          }
          std::sort(r.begin(), r.end(),
                    [](Lit a, Lit b) { return a.code() < b.code(); });
          resolvents.push_back(std::move(r));
          if (resolvents.size() > pos.size() + neg.size()) {
            aborted = true;
            break;
          }
        }
        if (aborted) break;
      }
      if (aborted) continue;
      // Commit: record the removed clauses for model repair and
      // reactivation, splice in the resolvents.
      ElimRecord record;
      record.var = v;
      for (const std::uint32_t i : pos) {
        record.clauses.push_back(problem[i]);
        live[i] = 0;
      }
      for (const std::uint32_t i : neg) {
        record.clauses.push_back(problem[i]);
        live[i] = 0;
      }
      elim_stack_.push_back(std::move(record));
      eliminated_[v] = 1;
      ++stats_eliminated_vars_;
      for (auto& r : resolvents) {
        const std::uint32_t idx = static_cast<std::uint32_t>(problem.size());
        for (Lit l : r) occ[l.code()].push_back(idx);
        problem.push_back(std::move(r));
        live.push_back(1);
      }
    }
    std::vector<std::vector<Lit>> compacted;
    compacted.reserve(problem.size());
    for (std::size_t i = 0; i < problem.size(); ++i)
      if (live[i]) compacted.push_back(std::move(problem[i]));
    problem = std::move(compacted);
    // Learnt clauses over an eliminated variable are dropped (they are
    // implied; keeping them would resurrect the variable).
    std::erase_if(learnt_db, [this](const auto& entry) {
      for (Lit l : entry.first)
        if (eliminated(l.var())) return true;
      return false;
    });
  }

  // 4. Unit fixpoint: apply units produced above at the root level until
  // the vector database is stable. A contradiction makes the solver
  // root-unsat (the arena is left untouched in that case — it is never
  // consulted again).
  for (bool changed = true; changed && !root_unsat_;) {
    changed = false;
    const auto simplify_one = [&](std::vector<Lit>& c) -> int {
      // Returns -1 drop clause, 0 keep, 1 clause changed (re-check).
      std::size_t keep = 0;
      for (const Lit l : c) {
        if (value(l) == Value::True) return -1;
        if (value(l) == Value::Unknown) c[keep++] = l;
      }
      const bool shrunk = keep != c.size();
      c.resize(keep);
      if (c.empty()) {
        root_unsat_ = true;
        return -1;
      }
      if (c.size() == 1) {
        enqueue(c[0], kNullRef);
        return -1;  // absorbed into the trail
      }
      return shrunk ? 1 : 0;
    };
    std::vector<std::vector<Lit>> next;
    next.reserve(problem.size());
    for (auto& c : problem) {
      const int r = simplify_one(c);
      if (root_unsat_) break;
      if (r >= 0) next.push_back(std::move(c));
      if (r != 0) changed = true;
    }
    problem = std::move(next);
    if (root_unsat_) break;
    std::erase_if(learnt_db, [&](auto& entry) {
      if (root_unsat_) return false;
      const int r = simplify_one(entry.first);
      if (r != 0) changed = true;
      return r < 0;
    });
  }
  if (root_unsat_) return;

  // 5. Rebuild the arena compactly and re-anchor propagation.
  rebuild_clause_db(problem, learnt_db);
  propagate_head_ = 0;
  if (propagate() != kNullRef) {
    root_unsat_ = true;
    return;
  }

  // 6. Vivification over the rebuilt database. Its problem-only
  // propagation leaves learnt watchers unrepaired for any root units it
  // derives, so finish with one full re-propagation of the trail.
  if (config_.vivify && !root_unsat_) {
    vivify_round();
    if (!root_unsat_) {
      propagate_head_ = 0;
      if (propagate() != kNullRef) root_unsat_ = true;
    }
  }
}

void Solver::rebuild_clause_db(
    const std::vector<std::vector<Lit>>& problem,
    const std::vector<std::pair<std::vector<Lit>, std::uint32_t>>& learnts) {
  arena_.clear();
  clauses_.clear();
  learnts_.clear();
  for (auto& ws : watches_) ws.clear();
  for (const auto& c : problem) {
    const ClauseRef ref = alloc_clause(c, /*learnt=*/false);
    clauses_.push_back(ref);
    attach(ref);
  }
  for (const auto& [c, lbd] : learnts) {
    const ClauseRef ref = alloc_clause(c, /*learnt=*/true);
    header(ref)->lbd = lbd;
    learnts_.push_back(ref);
    attach(ref);
  }
}

void Solver::vivify_round() {
  // Re-propagate a bounded slice of the problem clauses: assert the
  // negation of each literal in turn; a conflict or an implied literal
  // proves the clause can be shortened or dropped. The cursor rotates so
  // successive rounds cover the whole database.
  constexpr std::size_t kClausesPerRound = 128;
  constexpr std::uint64_t kPropagationBudget = 1 << 20;
  const std::uint64_t props_start = stats_propagations_;
  std::size_t examined = 0;
  while (examined < kClausesPerRound && examined < clauses_.size() &&
         stats_propagations_ - props_start < kPropagationBudget && !root_unsat_) {
    if (stop_requested()) return;
    ++examined;
    if (vivify_cursor_ >= clauses_.size()) vivify_cursor_ = 0;
    const ClauseRef ref = clauses_[vivify_cursor_];
    if (header(ref)->size < 3) {
      ++vivify_cursor_;
      continue;
    }
    detach(ref);
    const Lit* c = lits(ref);
    std::vector<Lit> original(c, c + header(ref)->size);
    std::vector<Lit> keep;
    bool redundant = false;
    bool conflicted = false;
    for (const Lit l : original) {
      if (value(l) == Value::True) {
        redundant = true;  // implied by the negated prefix: clause is
        break;             // entailed by the rest of the formula
      }
      if (value(l) == Value::False) continue;  // literal is redundant in c
      keep.push_back(l);
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      enqueue(~l, kNullRef);
      if (propagate(/*problem_only=*/true) != kNullRef) {
        conflicted = true;  // the kept prefix alone is contradictory
        break;
      }
    }
    backtrack(0);
    const bool changed = redundant || conflicted || keep.size() < original.size();
    if (!changed) {
      attach(ref);
      ++vivify_cursor_;
      continue;
    }
    // Drop the clause from the database (swap-erase keeps the cursor
    // position pointing at an unexamined clause).
    clauses_[vivify_cursor_] = clauses_.back();
    clauses_.pop_back();
    ++stats_vivified_clauses_;
    if (redundant) continue;
    if (keep.empty()) {
      root_unsat_ = true;
      return;
    }
    if (keep.size() == 1) {
      if (value(keep[0]) == Value::False) {
        root_unsat_ = true;
        return;
      }
      if (value(keep[0]) == Value::Unknown) {
        enqueue(keep[0], kNullRef);
        if (propagate(/*problem_only=*/true) != kNullRef) {
          root_unsat_ = true;
          return;
        }
      }
      continue;
    }
    const ClauseRef shorter = alloc_clause(keep, /*learnt=*/false);
    clauses_.push_back(shorter);
    attach(shorter);
  }
}

void Solver::reactivate(int var) {
  assert(eliminated(var));
  eliminated_[var] = 0;
  if (value(var) == Value::Unknown && !heap_contains(var)) heap_insert(var);
  // Find the record (tombstoning keeps reverse elimination order intact
  // for repair_model), restore its clauses. The restored clauses can in
  // turn mention variables eliminated later; add_clause reactivates them
  // recursively.
  for (auto& record : elim_stack_) {
    if (record.var != var) continue;
    std::vector<std::vector<Lit>> clauses = std::move(record.clauses);
    record.var = -1;
    record.clauses.clear();
    for (auto& c : clauses) {
      if (root_unsat_) return;
      add_clause(std::move(c));
    }
    return;
  }
}

void Solver::repair_model() {
  // Extend the model over eliminated variables, newest elimination
  // first: a variable's saved clauses only ever mention variables
  // eliminated *later* (already repaired) or live ones, so each step
  // sees final values for every other literal.
  for (std::size_t i = elim_stack_.size(); i-- > 0;) {
    const ElimRecord& record = elim_stack_[i];
    if (record.var < 0) continue;
    const Lit positive(record.var, false);
    bool needs_true = false;
    for (const auto& clause : record.clauses) {
      bool contains_positive = false;
      bool others_satisfied = false;
      for (const Lit l : clause) {
        if (l == positive) {
          contains_positive = true;
        } else if (model_value(l)) {
          others_satisfied = true;
          break;
        }
      }
      if (contains_positive && !others_satisfied) {
        needs_true = true;
        break;
      }
    }
    model_[record.var] = needs_true ? Value::True : Value::False;
  }
}

bool Solver::memory_exceeded() {
  if (config_.memory_limit_mb != 0 &&
      arena_.size() >
          static_cast<std::size_t>(config_.memory_limit_mb) * 1024 * 1024) {
    hit_memory_limit_ = true;
    return true;
  }
  if (fault::armed()) {
    const auto a = fault::hit("solver.alloc");
    if (a && *a == fault::Action::Oom) {
      hit_memory_limit_ = true;
      return true;
    }
  }
  return false;
}

SolveResult Solver::solve(const std::vector<Lit>& assumptions) {
  if (root_unsat_) {
    conflict_core_.clear();
    return SolveResult::Unsat;
  }
  if (stop_requested()) return SolveResult::Unknown;
  // The arena is mostly grown by add_clause before the search starts
  // (bit-blasting), so the ceiling is checked on entry as well as per
  // conflict. Degrade, don't abort: Unknown is an honest verdict.
  if (memory_exceeded()) return SolveResult::Unknown;
  backtrack(0);
  // Assumptions over variables eliminated in an earlier solve bring them
  // back (with their clauses) before the search starts.
  for (const Lit a : assumptions)
    if (eliminated(a.var())) reactivate(a.var());
  if (root_unsat_) {
    conflict_core_.clear();
    return SolveResult::Unsat;
  }
  if (propagate() != kNullRef) {
    root_unsat_ = true;
    return SolveResult::Unsat;
  }

  const auto solve_start = std::chrono::steady_clock::now();
  std::uint64_t conflicts_at_start = stats_conflicts_;
  std::uint64_t restart_count = 0;
  std::uint64_t restart_limit = restart_interval(restart_count);
  std::uint64_t conflicts_this_restart = 0;
  std::uint64_t next_reduce = config_.reduce_base;
  if (config_.inprocess_interval != 0 && next_inprocess_ == 0)
    next_inprocess_ = config_.inprocess_interval;

  std::vector<Lit> learnt;
  for (;;) {
    // Crash-only stop: one relaxed atomic load per propagate/decide
    // cycle, so a SIGTERM aborts the solve within a few microseconds.
    if (stop_requested()) {
      backtrack(0);
      return SolveResult::Unknown;
    }
    const ClauseRef confl = propagate();
    if (confl != kNullRef) {
      ++stats_conflicts_;
      ++conflicts_this_restart;
      if (decision_level() == 0) {
        root_unsat_ = true;
        conflict_core_.clear();
        return SolveResult::Unsat;
      }
      // A conflict inside the assumption prefix needs no special case:
      // after backtracking, the decision loop below meets the falsified
      // assumption and analyze_final derives the core.
      int btlevel;
      std::uint32_t lbd;
      analyze(confl, learnt, btlevel, lbd);
      backtrack(btlevel);
      if (learnt.size() == 1) {
        if (value(learnt[0]) == Value::Unknown) {
          enqueue(learnt[0], kNullRef);
        } else if (value(learnt[0]) == Value::False) {
          root_unsat_ = true;
          conflict_core_.clear();
          return SolveResult::Unsat;
        }
      } else {
        const ClauseRef ref = alloc_clause(learnt, /*learnt=*/true);
        header(ref)->lbd = lbd;
        learnts_.push_back(ref);
        attach(ref);
        enqueue(learnt[0], ref);
      }
      decay_var_activity();
      clause_inc_ *= 1.001;
      if (conflict_budget_ != 0 &&
          stats_conflicts_ - conflicts_at_start >= conflict_budget_) {
        backtrack(0);
        return SolveResult::Unknown;
      }
      if (memory_exceeded()) {
        backtrack(0);
        return SolveResult::Unknown;
      }
      if (time_budget_seconds_ > 0 &&
          (stats_conflicts_ - conflicts_at_start) % 1024 == 0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - solve_start)
                .count();
        if (elapsed >= time_budget_seconds_) {
          backtrack(0);
          return SolveResult::Unknown;
        }
      }
      continue;
    }

    if (conflicts_this_restart >= restart_limit &&
        decision_level() > static_cast<int>(assumptions.size())) {
      ++stats_restarts_;
      ++restart_count;
      restart_limit = restart_interval(restart_count);
      conflicts_this_restart = 0;
      backtrack(static_cast<int>(assumptions.size()));
      // Inprocess between restarts, whenever enough conflicts accrued
      // since the previous round (the cadence knob).
      if (config_.inprocess_interval != 0 && stats_conflicts_ >= next_inprocess_) {
        next_inprocess_ = stats_conflicts_ + config_.inprocess_interval;
        backtrack(0);
        inprocess(assumptions);
        if (root_unsat_) {
          conflict_core_.clear();
          return SolveResult::Unsat;
        }
      }
      continue;
    }
    if (learnts_.size() >= next_reduce) {
      next_reduce += config_.reduce_increment;
      reduce_learnts();
    }

    // Extend with assumptions first, then branch.
    Lit next = Lit();
    bool have_next = false;
    while (decision_level() < static_cast<int>(assumptions.size())) {
      const Lit a = assumptions[decision_level()];
      if (value(a) == Value::True) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));  // dummy level
      } else if (value(a) == Value::False) {
        analyze_final(~a);
        backtrack(0);
        return SolveResult::Unsat;
      } else {
        next = a;
        have_next = true;
        break;
      }
    }
    if (!have_next) {
      next = pick_branch();
      if (next == Lit()) {
        // Full assignment: record the model, then extend it over
        // eliminated variables from their saved clauses.
        model_ = assigns_;
        backtrack(0);
        repair_model();
        return SolveResult::Sat;
      }
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(next, kNullRef);
  }
}

// --- binary max-heap keyed on activity ---

void Solver::heap_insert(int var) {
  heap_index_[var] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  heap_percolate_up(heap_index_[var]);
}

void Solver::heap_percolate_up(int i) {
  const int v = heap_[i];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_index_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_index_[v] = i;
}

void Solver::heap_percolate_down(int i) {
  const int v = heap_[i];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && activity_[heap_[child + 1]] > activity_[heap_[child]]) ++child;
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_index_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heap_index_[v] = i;
}

int Solver::heap_pop() {
  const int v = heap_[0];
  heap_index_[v] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_index_[heap_[0]] = 0;
    heap_percolate_down(0);
  }
  return v;
}

}  // namespace sepe::sat
