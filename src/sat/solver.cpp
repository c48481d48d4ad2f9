#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <tuple>
#include <utility>

namespace sepe::sat {

Solver::Solver(const SolverConfig& config) : config_(config) {}

int Solver::new_var() {
  const int v = num_vars();
  values_.push_back(Value::Unknown);
  values_.push_back(Value::Unknown);
  model_.push_back(Value::False);
  saved_phase_.push_back(Value::False);
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

Solver::ClauseRef Solver::alloc_clause(const Lit* clause_lits, std::uint32_t size,
                                       bool learnt) {
  const std::size_t bytes = sizeof(ClauseHeader) + size * sizeof(Lit);
  // Keep 4-byte alignment of the arena.
  const std::size_t aligned = (bytes + 3) & ~std::size_t(3);
  const ClauseRef ref = static_cast<ClauseRef>(arena_.size());
  arena_.resize(arena_.size() + aligned);
  ClauseHeader* h = header(ref);
  h->size = size;
  h->lbd = learnt ? 2 : 0;
  h->activity = 0.0f;
  std::copy(clause_lits, clause_lits + size, lits(ref));
  return ref;
}

void Solver::attach(ClauseRef ref) {
  const Lit* c = lits(ref);
  const ClauseRef tagged = ref | (header(ref)->size == 2 ? 1 : 0);
  watches_[(~c[0]).code()].push_back({tagged, c[1]});
  watches_[(~c[1]).code()].push_back({tagged, c[0]});
}

void Solver::detach(ClauseRef ref) {
  const Lit* c = lits(ref);
  for (Lit w : {~c[0], ~c[1]}) {
    auto& ws = watches_[w.code()];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].ref() == ref) {
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
  const ClauseRef ref =
      alloc_clause(out.data(), static_cast<std::uint32_t>(out.size()), /*learnt=*/false);
  clauses_.push_back(ref);
  attach(ref);
  return true;
}

template <bool kProblemOnly>
Solver::ClauseRef Solver::propagate() {
  ClauseRef confl = kNullRef;
  while (confl == kNullRef && propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    const Lit not_p = ~p;
    ++stats_.propagations;
    std::vector<Watcher>& ws = watches_[p.code()];
    Watcher* i = ws.data();
    Watcher* j = i;
    Watcher* const end = i + ws.size();
    while (i != end) {
      const Watcher w = *i++;
      const Value blocker_value = value(w.blocker);
      if (blocker_value == Value::True) {
        *j++ = w;
        continue;
      }
      if constexpr (kProblemOnly) {
        if (header(w.ref())->lbd != 0) {
          // Vivification proofs must not lean on learnt clauses: a learnt
          // is a consequence of the *original* formula, not of the
          // current (post-elimination) database, and reduce_learnts may
          // drop it later — a problem clause deleted on its strength
          // would be gone for good. Skipped watchers are left in place;
          // the caller re-runs a full propagation afterwards to restore
          // their watch invariants.
          *j++ = w;
          continue;
        }
      }
      if (w.binary()) {
        *j++ = w;
        if (blocker_value == Value::False) {
          // Lay the clause out as [other, ~p]: conflict analysis reads a
          // conflicting clause in arena order.
          Lit* c = lits(w.ref());
          c[0] = w.blocker;
          c[1] = not_p;
          confl = w.ref();
          break;
        }
        enqueue(w.blocker, w.ref());
        continue;
      }
      const ClauseRef ref = w.tagged;
      Lit* c = lits(ref);
      // Ensure the false literal ~p is at position 1.
      if (c[0] == not_p) std::swap(c[0], c[1]);
      assert(c[1] == not_p);
      const Lit first = c[0];
      if (first != w.blocker && value(first) == Value::True) {
        *j++ = {ref, first};
        continue;
      }
      // Look for a new watch.
      const std::uint32_t size = header(ref)->size;
      bool found = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(c[k]) != Value::False) {
          c[1] = c[k];
          c[k] = not_p;
          watches_[(~c[1]).code()].push_back({ref, first});
          found = true;
          break;
        }
      }
      if (found) continue;  // watcher moved elsewhere; do not keep
      // Clause is unit or conflicting.
      if (value(first) == Value::False) {
        *j++ = w;  // a conflict keeps the watcher as it was
        confl = ref;
        break;
      }
      enqueue(first, ref);
      *j++ = {ref, first};
    }
    while (i != end) *j++ = *i++;
    ws.resize(static_cast<std::size_t>(j - ws.data()));
  }
  return confl;
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
  // Only learnt activities are ever read (reduce_learnts) or rescaled: a
  // problem clause bumped past the limit would rescale every learnt on
  // each later bump and drive clause_inc_ to 0.
  if (h->lbd == 0) return;
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
    // The conflicting clause contributes every literal, in arena order;
    // a reason clause every literal but the one it implied.
    const auto [begin, end] = first ? std::pair<const Lit*, const Lit*>{
                                          lits(confl), lits(confl) + header(confl)->size}
                                    : antecedents(confl, p);
    for (const Lit* it = begin; it != end; ++it) {
      const Lit q = *it;
      const int v = q.var();
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = kSource;
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
    seen_[p.var()] = kUnseen;
    --counter;
    first = false;
  } while (counter > 0);
  out_learnt[0] = ~p;

  // Clause minimization: drop literals implied by the rest of the clause.
  // Remember every var marked seen_ so far: literals dropped below still
  // need their marks cleared at the end (stale marks corrupt later calls);
  // literal_redundant appends the variables it marks.
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

  for (int v : analyze_toclear_) seen_[v] = kUnseen;
}

bool Solver::literal_redundant(Lit l, std::uint32_t abstract_levels) {
  // `l` is redundant when no implication path from it reaches a decision
  // or a level outside the clause's levels without first meeting a clause
  // literal (kSource), a root literal or a literal already proven
  // redundant (kRemovable). A depth-first walk of the implication graph
  // keeps the current path on minimize_stack_: a literal whose antecedents
  // are all exhausted is kRemovable; when the walk fails, every literal on
  // the path depends on the failure and becomes kPoison, so later calls
  // in the same analysis stop there at once. Both marks only record what
  // a fresh walk would find again, so the answer is the same as an
  // unmemoized search.
  assert(seen_[l.var()] == kSource && reason_[l.var()] != kNullRef);
  minimize_stack_.clear();
  Lit p = l;
  // Clause literals are false; a reason clause implied the negation.
  auto [next, end] = antecedents(reason_[l.var()], ~l);
  for (;;) {
    if (next != end) {
      const Lit q = *next++;
      const int v = q.var();
      const std::uint8_t mark = seen_[v];
      if (mark == kSource || mark == kRemovable || level_[v] == 0) continue;
      if (mark == kPoison || reason_[v] == kNullRef ||
          !((1u << (level_[v] & 31)) & abstract_levels)) {
        minimize_stack_.push_back({p, next, end});
        for (const MinimizeFrame& f : minimize_stack_) {
          if (seen_[f.lit.var()] == kUnseen) {
            seen_[f.lit.var()] = kPoison;
            analyze_toclear_.push_back(f.lit.var());
          }
        }
        return false;
      }
      minimize_stack_.push_back({p, next, end});
      p = q;
      std::tie(next, end) = antecedents(reason_[v], ~q);
    } else {
      if (seen_[p.var()] == kUnseen) {
        seen_[p.var()] = kRemovable;
        analyze_toclear_.push_back(p.var());
      }
      if (minimize_stack_.empty()) return true;
      const MinimizeFrame& f = minimize_stack_.back();
      p = f.lit;
      next = f.next;
      end = f.end;
      minimize_stack_.pop_back();
    }
  }
}

void Solver::backtrack(int target) {
  if (decision_level() <= target) return;
  for (std::size_t i = trail_.size();
       i-- > static_cast<std::size_t>(trail_lim_[target]);) {
    const int v = trail_[i].var();
    saved_phase_[v] = values_[2 * v];
    values_[2 * v] = values_[2 * v + 1] = Value::Unknown;
    reason_[v] = kNullRef;
    if (!heap_contains(v)) heap_insert(v);
  }
  trail_.resize(trail_lim_[target]);
  trail_lim_.resize(target);
  propagate_head_ = trail_.size();
}

Lit Solver::pick_branch() {
  while (!heap_empty()) {
    const int v = heap_pop();
    if (value(v) == Value::Unknown && !eliminated(v)) {
      ++stats_.decisions;
      return Lit(v, saved_phase_[v] == Value::False);
    }
  }
  return Lit();  // all assigned
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
  // Keep low-LBD ("glue") clauses; drop the worse half of the rest. The
  // sort runs over flat keys copied out of the headers; its comparator
  // ignores `ref`, so ties keep exactly the order a sort of the refs
  // themselves would give.
  struct Key {
    std::uint32_t lbd;
    float activity;
    ClauseRef ref;
  };
  std::vector<Key> keys;
  keys.reserve(learnts_.size());
  for (const ClauseRef r : learnts_) {
    const ClauseHeader* h = header(r);
    keys.push_back({h->lbd, h->activity, r});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.lbd != b.lbd) return a.lbd < b.lbd;
    return a.activity > b.activity;
  });
  // A reason's implied literal is c[0] for a long clause and either
  // literal for a binary (propagate() does not order binaries).
  const auto locked = [this](ClauseRef r) {
    const Lit* c = lits(r);
    if (value(c[0]) == Value::True && reason_[c[0].var()] == r) return true;
    return header(r)->size == 2 && value(c[1]) == Value::True && reason_[c[1].var()] == r;
  };
  const std::size_t keep_count = keys.size() / 2;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Key& key = keys[i];
    // Never drop clauses that are reasons for current assignments or glue.
    if (i < keep_count || key.lbd <= 3 || locked(key.ref)) {
      learnts_[kept++] = key.ref;
    } else {
      detach(key.ref);
    }
  }
  learnts_.resize(kept);
}

// --- inprocessing -----------------------------------------------------
//
// The pipeline runs between restarts at decision level 0, bounded so a
// round costs a small fraction of the search it interleaves with:
//
//   1. copy-out      arena -> spans of one flat literal pool;
//                    root-satisfied clauses dropped, root-false
//                    literals stripped
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
bool subsume_check(const Lit* small, std::uint32_t small_size, const Lit* big,
                   std::uint32_t big_size, int* flipped) {
  *flipped = -1;
  std::uint32_t i = 0, j = 0;
  while (i < small_size) {
    if (j == big_size) return false;
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

/// A clause copied out of the arena for inprocessing: a span of the
/// round's flat literal pool.
struct PoolClause {
  std::uint32_t begin;
  std::uint32_t size;
  std::uint32_t lbd;  // learnts only
};

/// Occurrence lists over an inprocessing clause database: per literal, the
/// indices of the clauses containing it, in increasing order. The lists
/// of the clauses present at construction sit in one flat array; a clause
/// appended later (a BVE resolvent) goes on per-literal chains behind it,
/// so every list stays in index order.
class OccLists {
 public:
  OccLists(int num_vars, const std::vector<Lit>& pool, const std::vector<PoolClause>& db)
      : begin_(2 * static_cast<std::size_t>(num_vars) + 1, 0),
        head_(2 * static_cast<std::size_t>(num_vars), kNone),
        tail_(head_) {
    for (const PoolClause& c : db)
      for (std::uint32_t k = 0; k < c.size; ++k) ++begin_[pool[c.begin + k].code() + 1];
    for (std::size_t i = 1; i < begin_.size(); ++i) begin_[i] += begin_[i - 1];
    flat_.resize(begin_.back());
    std::vector<std::uint32_t> next(begin_.begin(), begin_.end() - 1);
    for (std::size_t i = 0; i < db.size(); ++i)
      for (std::uint32_t k = 0; k < db[i].size; ++k)
        flat_[next[pool[db[i].begin + k].code()]++] = static_cast<std::uint32_t>(i);
  }

  /// The flat part of `l`'s list: every entry while nothing is appended.
  std::pair<const std::uint32_t*, const std::uint32_t*> flat(Lit l) const {
    return {flat_.data() + begin_[l.code()], flat_.data() + begin_[l.code() + 1]};
  }

  void append(Lit l, std::uint32_t clause) {
    const auto node = static_cast<std::uint32_t>(chain_.size());
    chain_.push_back({clause, kNone});
    std::uint32_t& tail = tail_[l.code()];
    (tail == kNone ? head_[l.code()] : chain_[tail].next) = node;
    tail = node;
  }

  template <class F>
  void for_each(Lit l, F&& f) const {
    const auto [first, last] = flat(l);
    for (const std::uint32_t* it = first; it != last; ++it) f(*it);
    for (std::uint32_t n = head_[l.code()]; n != kNone; n = chain_[n].next)
      f(chain_[n].clause);
  }

 private:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  struct Node {
    std::uint32_t clause;
    std::uint32_t next;
  };
  std::vector<std::uint32_t> begin_;  // per literal code, offset into flat_
  std::vector<std::uint32_t> flat_;
  std::vector<std::uint32_t> head_, tail_;  // per literal code, chain_ nodes
  std::vector<Node> chain_;
};

}  // namespace

void Solver::inprocess(const std::vector<Lit>& assumptions) {
  assert(decision_level() == 0);
  // Root assignments need no reasons from here on; clearing them lets the
  // arena be rebuilt without dangling clause references.
  for (Lit l : trail_) reason_[l.var()] = kNullRef;

  std::vector<std::uint8_t> frozen(num_vars(), 0);
  for (Lit a : assumptions) frozen[a.var()] = 1;

  // Steps 1-5 work on spans into one flat literal pool and on flat
  // occurrence lists: a round makes a few allocations, not one per
  // clause.
  std::vector<Lit> pool;
  std::vector<PoolClause> problem, learnt_db;
  problem.reserve(clauses_.size());
  learnt_db.reserve(learnts_.size());
  const auto lits_of = [&pool](const PoolClause& c) { return pool.data() + c.begin; };

  // 1. Copy-out. Surviving clauses have >= 2 unassigned literals
  // (propagation is complete); problem clauses are sorted by code.
  const auto copy_out = [&](ClauseRef ref, std::vector<PoolClause>& db) -> PoolClause* {
    const ClauseHeader* h = header(ref);
    const Lit* c = lits(ref);
    const auto begin = static_cast<std::uint32_t>(pool.size());
    for (std::uint32_t k = 0; k < h->size; ++k) {
      const Value v = value(c[k]);
      if (v == Value::True) {
        pool.resize(begin);
        return nullptr;
      }
      if (v == Value::Unknown) pool.push_back(c[k]);
    }
    const auto size = static_cast<std::uint32_t>(pool.size() - begin);
    assert(size >= 2);
    db.push_back({begin, size, h->lbd});
    return &db.back();
  };
  for (const ClauseRef ref : clauses_) {
    if (const PoolClause* c = copy_out(ref, problem)) {
      Lit* first = pool.data() + c->begin;
      std::sort(first, first + c->size, [](Lit a, Lit b) { return a.code() < b.code(); });
    }
  }
  for (const ClauseRef ref : learnts_) copy_out(ref, learnt_db);

  // 2. Forward subsumption + self-subsuming resolution over the problem
  // clauses, driven by occurrence lists of the least-frequent literal.
  {
    std::vector<std::uint8_t> alive(problem.size(), 1);
    const OccLists occ(num_vars(), pool, problem);
    const auto occurrences = [&occ](Lit l) {
      const auto [first, last] = occ.flat(l);
      return static_cast<std::size_t>(last - first);
    };
    constexpr std::size_t kOccSkip = 64;  // skip super-frequent pivot literals
    for (std::size_t i = 0; i < problem.size(); ++i) {
      if (!alive[i]) continue;
      const PoolClause& c = problem[i];
      const Lit* cl = lits_of(c);
      // Pivot on the literal with the fewest occurrences; a flipped pivot
      // also finds the self-subsumption cases on the pivot literal.
      std::size_t best = occurrences(cl[0]);
      Lit pivot = cl[0];
      for (std::uint32_t k = 0; k < c.size; ++k) {
        const std::size_t n = occurrences(cl[k]);
        if (n < best) {
          best = n;
          pivot = cl[k];
        }
      }
      if (best > kOccSkip) continue;
      for (int side = 0; side < 2; ++side) {
        const Lit probe = side == 0 ? pivot : ~pivot;
        const auto [first, last] = occ.flat(probe);
        for (const std::uint32_t* it = first; it != last; ++it) {
          const std::uint32_t j = *it;
          if (j == i || !alive[j]) continue;
          PoolClause& d = problem[j];
          if (d.size < c.size) continue;
          Lit* dl = pool.data() + d.begin;
          int flipped_code;
          if (!subsume_check(cl, c.size, dl, d.size, &flipped_code)) continue;
          if (flipped_code < 0) {
            // c subsumes d outright.
            alive[j] = 0;
            ++stats_.subsumed_clauses;
          } else {
            // Self-subsuming resolution: remove the flipped literal
            // from d. occ entries for d go stale; the alive/membership
            // checks above tolerate that.
            const Lit flipped = Lit::from_code(flipped_code);
            d.size =
                static_cast<std::uint32_t>(std::remove(dl, dl + d.size, flipped) - dl);
            ++stats_.subsumed_clauses;
            if (d.size <= 1) alive[j] = 0;  // re-added as a unit below
          }
        }
      }
    }
    // Survivors in order, then the units produced by strengthening, which
    // the fixpoint pass absorbs.
    std::vector<PoolClause> units;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < problem.size(); ++i) {
      if (alive[i]) {
        problem[kept++] = problem[i];
      } else if (problem[i].size == 1) {
        units.push_back(problem[i]);
      }
    }
    problem.resize(kept);
    problem.insert(problem.end(), units.begin(), units.end());
  }

  // 3. Bounded variable elimination. A candidate variable must be
  // unassigned, unfrozen, and occur at most bve_occurrence_limit times in
  // each polarity; elimination must not grow the clause count.
  if (config_.bve_occurrence_limit != 0 && !root_unsat_) {
    constexpr std::size_t kMaxResolventLits = 24;
    OccLists occ(num_vars(), pool, problem);
    std::vector<std::uint8_t> live(problem.size(), 1);
    const auto contains = [&](const PoolClause& c, Lit l) {
      const Lit* cl = lits_of(c);
      return std::find(cl, cl + c.size, l) != cl + c.size;
    };
    const auto gather = [&](Lit l, std::vector<std::uint32_t>* out) {
      out->clear();
      occ.for_each(l, [&](std::uint32_t i) {
        // Skip dead clauses and stale entries (clause strengthened elsewhere).
        if (live[i] && contains(problem[i], l)) out->push_back(i);
      });
    };
    std::vector<std::uint32_t> pos, neg;
    std::vector<Lit> resolvent_lits;  // the current candidate's resolvents
    std::vector<PoolClause> resolvents;
    for (int v = 0; v < num_vars(); ++v) {
      if (frozen[v] || eliminated(v) || value(v) != Value::Unknown) continue;
      const Lit pl(v, false), nl(v, true);
      gather(pl, &pos);
      gather(nl, &neg);
      if (pos.empty() && neg.empty()) continue;
      if (pos.size() > config_.bve_occurrence_limit ||
          neg.size() > config_.bve_occurrence_limit)
        continue;
      // Build the resolvents; give up on growth.
      resolvent_lits.clear();
      resolvents.clear();
      bool aborted = false;
      for (const std::uint32_t pi : pos) {
        for (const std::uint32_t ni : neg) {
          const auto begin = static_cast<std::uint32_t>(resolvent_lits.size());
          bool tautology = false;
          const Lit* pc = lits_of(problem[pi]);
          for (std::uint32_t k = 0; k < problem[pi].size; ++k)
            if (pc[k] != pl) resolvent_lits.push_back(pc[k]);
          const Lit* nc = lits_of(problem[ni]);
          for (std::uint32_t k = 0; k < problem[ni].size; ++k) {
            const Lit l = nc[k];
            if (l == nl) continue;
            const auto r_begin = resolvent_lits.begin() + begin;
            if (std::find(r_begin, resolvent_lits.end(), ~l) != resolvent_lits.end()) {
              tautology = true;
              break;
            }
            if (std::find(r_begin, resolvent_lits.end(), l) == resolvent_lits.end())
              resolvent_lits.push_back(l);
          }
          const auto size = static_cast<std::uint32_t>(resolvent_lits.size() - begin);
          if (tautology) {
            resolvent_lits.resize(begin);
            continue;
          }
          if (size > kMaxResolventLits) {
            aborted = true;
            break;
          }
          std::sort(resolvent_lits.begin() + begin, resolvent_lits.end(),
                    [](Lit a, Lit b) { return a.code() < b.code(); });
          resolvents.push_back({begin, size, 0});
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
      for (const auto* side : {&pos, &neg}) {
        for (const std::uint32_t i : *side) {
          const Lit* c = lits_of(problem[i]);
          record.clauses.emplace_back(c, c + problem[i].size);
          live[i] = 0;
        }
      }
      elim_stack_.push_back(std::move(record));
      eliminated_[v] = 1;
      ++stats_.eliminated_vars;
      for (const PoolClause& r : resolvents) {
        const auto idx = static_cast<std::uint32_t>(problem.size());
        const auto begin = static_cast<std::uint32_t>(pool.size());
        const Lit* rl = resolvent_lits.data() + r.begin;
        pool.insert(pool.end(), rl, rl + r.size);
        for (std::uint32_t k = 0; k < r.size; ++k) occ.append(rl[k], idx);
        problem.push_back({begin, r.size, 0});
        live.push_back(1);
      }
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < problem.size(); ++i)
      if (live[i]) problem[kept++] = problem[i];
    problem.resize(kept);
    // Learnt clauses over an eliminated variable are dropped (they are
    // implied; keeping them would resurrect the variable).
    std::erase_if(learnt_db, [&](const PoolClause& c) {
      const Lit* cl = lits_of(c);
      for (std::uint32_t k = 0; k < c.size; ++k)
        if (eliminated(cl[k].var())) return true;
      return false;
    });
  }

  // 4. Unit fixpoint: apply units produced above at the root level until
  // the pooled database is stable. A contradiction makes the solver
  // root-unsat (the arena is left untouched in that case — it is never
  // consulted again).
  for (bool changed = true; changed && !root_unsat_;) {
    changed = false;
    const auto simplify_one = [&](PoolClause& c) -> int {
      // Returns -1 drop clause, 0 keep, 1 clause changed (re-check).
      Lit* cl = pool.data() + c.begin;
      std::uint32_t keep = 0;
      for (std::uint32_t k = 0; k < c.size; ++k) {
        const Value v = value(cl[k]);
        if (v == Value::True) return -1;
        if (v == Value::Unknown) cl[keep++] = cl[k];
      }
      const bool shrunk = keep != c.size;
      c.size = keep;
      if (keep == 0) {
        root_unsat_ = true;
        return -1;
      }
      if (keep == 1) {
        enqueue(cl[0], kNullRef);
        return -1;  // absorbed into the trail
      }
      return shrunk ? 1 : 0;
    };
    std::size_t kept = 0;
    for (std::size_t i = 0; i < problem.size(); ++i) {
      const int r = simplify_one(problem[i]);
      if (root_unsat_) break;
      if (r >= 0) problem[kept++] = problem[i];
      if (r != 0) changed = true;
    }
    problem.resize(kept);
    if (root_unsat_) break;
    std::erase_if(learnt_db, [&](PoolClause& c) {
      if (root_unsat_) return false;
      const int r = simplify_one(c);
      if (r != 0) changed = true;
      return r < 0;
    });
  }
  if (root_unsat_) return;

  // 5. Rebuild the arena compactly and re-anchor propagation.
  arena_.clear();
  clauses_.clear();
  learnts_.clear();
  for (auto& ws : watches_) ws.clear();
  for (const PoolClause& c : problem) {
    const ClauseRef ref = alloc_clause(pool.data() + c.begin, c.size, /*learnt=*/false);
    clauses_.push_back(ref);
    attach(ref);
  }
  for (const PoolClause& c : learnt_db) {
    const ClauseRef ref = alloc_clause(pool.data() + c.begin, c.size, /*learnt=*/true);
    header(ref)->lbd = c.lbd;
    learnts_.push_back(ref);
    attach(ref);
  }
  propagate_head_ = 0;
  if (propagate() != kNullRef) {
    root_unsat_ = true;
    return;
  }

  // 6. Vivification over the rebuilt database. Its problem-only
  // propagation leaves learnt watchers unrepaired for any root units it
  // derives, so finish with one full re-propagation of the trail.
  if (config_.vivify) {
    vivify_round();
    if (!root_unsat_) {
      propagate_head_ = 0;
      if (propagate() != kNullRef) root_unsat_ = true;
    }
  }
}

void Solver::vivify_round() {
  // Re-propagate a bounded slice of the problem clauses: assert the
  // negation of each literal in turn; a conflict or an implied literal
  // proves the clause can be shortened or dropped. The cursor rotates so
  // successive rounds cover the whole database.
  constexpr std::size_t kClausesPerRound = 128;
  constexpr std::uint64_t kPropagationBudget = 1 << 20;
  const std::uint64_t props_start = stats_.propagations;
  std::size_t examined = 0;
  while (examined < kClausesPerRound && examined < clauses_.size() &&
         stats_.propagations - props_start < kPropagationBudget && !root_unsat_) {
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
      if (propagate</*kProblemOnly=*/true>() != kNullRef) {
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
    ++stats_.vivified_clauses;
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
        if (propagate</*kProblemOnly=*/true>() != kNullRef) {
          root_unsat_ = true;
          return;
        }
      }
      continue;
    }
    const ClauseRef shorter = alloc_clause(
        keep.data(), static_cast<std::uint32_t>(keep.size()), /*learnt=*/false);
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
    stats_.out_of_memory = true;
    return true;
  }
  if (fault::armed()) {
    const auto a = fault::hit("solver.alloc");
    if (a && *a == fault::Action::Oom) {
      stats_.out_of_memory = true;
      return true;
    }
  }
  return false;
}

SolveResult Solver::solve(const std::vector<Lit>& assumptions) {
  if (root_unsat_) {
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
    return SolveResult::Unsat;
  }
  if (propagate() != kNullRef) {
    root_unsat_ = true;
    return SolveResult::Unsat;
  }

  const auto solve_start = std::chrono::steady_clock::now();
  std::uint64_t conflicts_at_start = stats_.conflicts;
  std::uint64_t restart_count = 0;
  std::uint64_t restart_limit = config_.restart_base * luby(restart_count + 1);
  std::uint64_t conflicts_this_restart = 0;
  std::uint64_t next_reduce = kReduceBase;
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
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (decision_level() == 0) {
        root_unsat_ = true;
        return SolveResult::Unsat;
      }
      // A conflict inside the assumption prefix needs no special case:
      // after backtracking, the decision loop below meets the falsified
      // assumption and returns Unsat.
      int btlevel;
      std::uint32_t lbd;
      analyze(confl, learnt, btlevel, lbd);
      backtrack(btlevel);
      if (learnt.size() == 1) {
        if (value(learnt[0]) == Value::Unknown) {
          enqueue(learnt[0], kNullRef);
        } else if (value(learnt[0]) == Value::False) {
          root_unsat_ = true;
          return SolveResult::Unsat;
        }
      } else {
        const ClauseRef ref = alloc_clause(
            learnt.data(), static_cast<std::uint32_t>(learnt.size()), /*learnt=*/true);
        header(ref)->lbd = lbd;
        learnts_.push_back(ref);
        attach(ref);
        enqueue(learnt[0], ref);
      }
      decay_var_activity();
      clause_inc_ *= 1.001;
      if (conflict_budget_ != 0 &&
          stats_.conflicts - conflicts_at_start >= conflict_budget_) {
        backtrack(0);
        return SolveResult::Unknown;
      }
      if (memory_exceeded()) {
        backtrack(0);
        return SolveResult::Unknown;
      }
      if (time_budget_seconds_ > 0 &&
          (stats_.conflicts - conflicts_at_start) % 1024 == 0) {
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
      ++restart_count;
      restart_limit = config_.restart_base * luby(restart_count + 1);
      conflicts_this_restart = 0;
      backtrack(static_cast<int>(assumptions.size()));
      // Inprocess between restarts, whenever enough conflicts accrued
      // since the previous round (the cadence knob).
      if (config_.inprocess_interval != 0 && stats_.conflicts >= next_inprocess_) {
        next_inprocess_ = stats_.conflicts + config_.inprocess_interval;
        backtrack(0);
        inprocess(assumptions);
        if (root_unsat_) {
          return SolveResult::Unsat;
        }
      }
      continue;
    }
    if (learnts_.size() >= next_reduce) {
      next_reduce += kReduceIncrement;
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
        for (int v = 0; v < num_vars(); ++v) model_[v] = value(v);
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
  int* const heap = heap_.data();
  int* const index = heap_index_.data();
  const double* const activity = activity_.data();
  const int v = heap[i];
  const double act = activity[v];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    const int u = heap[parent];
    if (activity[u] >= act) break;
    heap[i] = u;
    index[u] = i;
    i = parent;
  }
  heap[i] = v;
  index[v] = i;
}

void Solver::heap_percolate_down(int i) {
  int* const heap = heap_.data();
  int* const index = heap_index_.data();
  const double* const activity = activity_.data();
  const int v = heap[i];
  const double act = activity[v];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    double child_act = activity[heap[child]];
    if (child + 1 < n) {
      const double right_act = activity[heap[child + 1]];
      if (right_act > child_act) {
        ++child;
        child_act = right_act;
      }
    }
    if (child_act <= act) break;
    const int u = heap[child];
    heap[i] = u;
    index[u] = i;
    i = child;
  }
  heap[i] = v;
  index[v] = i;
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
