#include "smt/bitblast.hpp"

#include <cassert>
#include <unordered_set>

namespace sepe::smt {

using sat::Lit;

namespace {

// splitmix64 finalizer, the same diffusion the term digests use.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

BitBlaster::BitBlaster(const TermManager& mgr, sat::Backend& solver,
                       bool plaisted_greenbaum,
                       std::shared_ptr<ConeCache> cone_cache)
    : mgr_(mgr),
      solver_(solver),
      pg_(plaisted_greenbaum),
      cone_cache_(std::move(cone_cache)) {
  true_lit_ = fresh();
  solver_.add_clause(true_lit_);
  // Seed the state digest with the encoding: a Tseitin tape must never
  // be offered to a Plaisted-Greenbaum blaster or vice versa.
  state_.lo = mix64(0x636f6e652d763120ULL ^ (pg_ ? 2 : 1));
  state_.hi = mix64(state_.lo);
}

TermDigest BitBlaster::advance_state(TermRef root, std::uint8_t polarity) {
  const TermDigest& d = mgr_.digest(root);
  TermDigest next;
  next.lo = mix64(state_.lo ^ d.lo ^ (std::uint64_t(polarity) << 56));
  next.hi = mix64(state_.hi ^ d.hi ^ std::uint64_t(polarity));
  state_ = next;
  return next;
}

Lit BitBlaster::gate_output(const GateKey& key, std::uint8_t pol,
                            std::uint8_t& missing) {
  if (auto it = gate_cache_.find(key); it != gate_cache_.end()) {
    missing = pol & static_cast<std::uint8_t>(~it->second.emitted);
    it->second.emitted |= missing;
    if (recording_ && missing != 0)
      recording_->gate_ops.push_back(ConeTape::GateOp{
          key.op, key.a, key.b, key.c, it->second.out.code(), missing, false});
    return it->second.out;
  }
  const Lit o = fresh();
  missing = pol;
  gate_cache_.emplace(key, GateEntry{o, pol});
  if (recording_)
    recording_->gate_ops.push_back(
        ConeTape::GateOp{key.op, key.a, key.b, key.c, o.code(), pol, true});
  return o;
}

Lit BitBlaster::gate_and(Lit a, Lit b, std::uint8_t pol) {
  if (!pg_) pol = kBoth;
  if (a == const_lit(false) || b == const_lit(false)) return const_lit(false);
  if (a == const_lit(true)) return b;
  if (b == const_lit(true)) return a;
  if (a == b) return a;
  if (a == ~b) return const_lit(false);
  if (a.code() > b.code()) std::swap(a, b);
  std::uint8_t missing;
  const Lit o = gate_output(GateKey{0, a.code(), b.code(), -1}, pol, missing);
  if (missing & kPos) {  // o -> a, o -> b
    emit(a, ~o);
    emit(b, ~o);
  }
  if (missing & kNeg) {  // a & b -> o
    emit(~a, ~b, o);
  }
  return o;
}

Lit BitBlaster::gate_or(Lit a, Lit b, std::uint8_t pol) {
  return ~gate_and(~a, ~b, flip(pol));
}

Lit BitBlaster::gate_xor(Lit a, Lit b, std::uint8_t pol) {
  if (!pg_) pol = kBoth;
  if (a == const_lit(false)) return b;
  if (b == const_lit(false)) return a;
  if (a == const_lit(true)) return ~b;
  if (b == const_lit(true)) return ~a;
  if (a == b) return const_lit(false);
  if (a == ~b) return const_lit(true);
  if (a.code() > b.code()) std::swap(a, b);
  std::uint8_t missing;
  const Lit o = gate_output(GateKey{1, a.code(), b.code(), -1}, pol, missing);
  if (missing & kPos) {  // o -> (a xor b)
    emit(~a, ~b, ~o);
    emit(a, b, ~o);
  }
  if (missing & kNeg) {  // (a xor b) -> o
    emit(~a, b, o);
    emit(a, ~b, o);
  }
  return o;
}

Lit BitBlaster::gate_mux(Lit sel, Lit t, Lit e, std::uint8_t pol) {
  if (!pg_) pol = kBoth;
  if (sel == const_lit(true)) return t;
  if (sel == const_lit(false)) return e;
  if (t == e) return t;
  if (t == const_lit(true) && e == const_lit(false)) return sel;
  if (t == const_lit(false) && e == const_lit(true)) return ~sel;
  std::uint8_t missing;
  const Lit o = gate_output(GateKey{2, sel.code(), t.code(), e.code()}, pol, missing);
  if (missing & kPos) {  // o -> (sel ? t : e)
    emit(~sel, t, ~o);
    emit(sel, e, ~o);
  }
  if (missing & kNeg) {  // (sel ? t : e) -> o
    emit(~sel, ~t, o);
    emit(sel, ~e, o);
  }
  return o;
}

Lit BitBlaster::gate_full_add(Lit a, Lit b, Lit cin, Lit& cout) {
  const Lit axb = gate_xor(a, b);
  const Lit sum = gate_xor(axb, cin);
  // cout = (a & b) | (cin & (a ^ b))
  cout = gate_or(gate_and(a, b), gate_and(cin, axb));
  return sum;
}

BitBlaster::Bits BitBlaster::encode_add(const Bits& a, const Bits& b, Lit carry_in) {
  Bits out(a.size());
  Lit carry = carry_in;
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = gate_full_add(a[i], b[i], carry, carry);
  return out;
}

BitBlaster::Bits BitBlaster::negate(const Bits& a) {
  Bits inv(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) inv[i] = ~a[i];
  Bits one(a.size(), const_lit(false));
  return encode_add(inv, one, const_lit(true));
}

BitBlaster::Bits BitBlaster::encode_mul(const Bits& a, const Bits& b) {
  const std::size_t w = a.size();
  Bits acc(w, const_lit(false));
  for (std::size_t i = 0; i < w; ++i) {
    // acc[i..] += b[0..w-i) & a[i]
    Bits addend(w, const_lit(false));
    for (std::size_t j = 0; i + j < w; ++j) addend[i + j] = gate_and(a[i], b[j]);
    acc = encode_add(acc, addend, const_lit(false));
  }
  return acc;
}

void BitBlaster::encode_udivrem(const Bits& a, const Bits& b, Bits& quot, Bits& rem) {
  // Restoring division over a (w+1)-bit working remainder.
  const std::size_t w = a.size();
  Bits br(w + 1);  // b zero-extended
  for (std::size_t i = 0; i < w; ++i) br[i] = b[i];
  br[w] = const_lit(false);

  Bits r(w + 1, const_lit(false));
  quot.assign(w, const_lit(false));
  for (std::size_t step = w; step-- > 0;) {
    // r = (r << 1) | a[step]
    Bits shifted(w + 1);
    shifted[0] = a[step];
    for (std::size_t i = 1; i <= w; ++i) shifted[i] = r[i - 1];
    // trial = shifted - b ; non-negative iff carry out of the addition of -b
    Lit carry = const_lit(true);
    Bits trial(w + 1);
    for (std::size_t i = 0; i <= w; ++i) {
      const Lit nb = ~br[i];
      trial[i] = gate_full_add(shifted[i], nb, carry, carry);
    }
    const Lit geq = carry;  // shifted >= b
    quot[step] = geq;
    for (std::size_t i = 0; i <= w; ++i) r[i] = gate_mux(geq, trial[i], shifted[i]);
  }
  rem.assign(w, const_lit(false));
  for (std::size_t i = 0; i < w; ++i) rem[i] = r[i];
}

BitBlaster::Bits BitBlaster::encode_mux_word(Lit sel, const Bits& t, const Bits& e) {
  Bits out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) out[i] = gate_mux(sel, t[i], e[i]);
  return out;
}

BitBlaster::Bits BitBlaster::encode_shift(const Bits& a, const Bits& amount, Op op) {
  const std::size_t w = a.size();
  const Lit fill = op == Op::Ashr ? a[w - 1] : const_lit(false);

  unsigned stages = 0;
  while ((1ULL << stages) < w) ++stages;

  Bits cur = a;
  for (unsigned s = 0; s < stages && s < amount.size(); ++s) {
    const std::size_t dist = 1ULL << s;
    Bits shifted(w);
    for (std::size_t i = 0; i < w; ++i) {
      if (op == Op::Shl) {
        shifted[i] = i >= dist ? cur[i - dist] : const_lit(false);
      } else {
        shifted[i] = i + dist < w ? cur[i + dist] : fill;
      }
    }
    cur = encode_mux_word(amount[s], shifted, cur);
  }

  // Saturate when amount >= w (SMT-LIB semantics). Covers both high bits
  // of the amount beyond the barrel stages and non-power-of-two widths.
  Lit oversize = const_lit(false);
  for (std::size_t i = stages; i < amount.size(); ++i)
    oversize = gate_or(oversize, amount[i]);
  if ((w & (w - 1)) != 0) {
    // amount[0..stages) >= w ?
    Bits lowa(amount.begin(), amount.begin() + stages);
    Bits wconst(stages);
    for (unsigned i = 0; i < stages; ++i)
      wconst[i] = const_lit((w >> i) & 1);
    const Lit lt = encode_ult(lowa, wconst);
    oversize = gate_or(oversize, ~lt);
  }
  Bits saturated(w, fill);
  return encode_mux_word(oversize, saturated, cur);
}

Lit BitBlaster::encode_ult(const Bits& a, const Bits& b, std::uint8_t pol) {
  // Borrow chain of a - b: borrow out means a < b. The chain muxes carry
  // the output polarity; the xor selectors are interior and need both.
  Lit borrow = const_lit(false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // borrow' = (~a & b) | ((~a | b) & borrow) = mux(a==b bitwise, borrow, b)
    const Lit axb = gate_xor(a[i], b[i]);
    borrow = gate_mux(axb, b[i], borrow, pol);
  }
  return borrow;
}

Lit BitBlaster::encode_slt(const Bits& a, const Bits& b, std::uint8_t pol) {
  const std::size_t w = a.size();
  if (w == 1) return gate_and(a[0], ~b[0], pol);  // signed 1-bit: -1 < 0
  const Lit sign_diff = gate_xor(a[w - 1], b[w - 1]);
  const Lit u = encode_ult(a, b, pol);
  return gate_mux(sign_diff, a[w - 1], u, pol);
}

Lit BitBlaster::encode_eq(const Bits& a, const Bits& b, std::uint8_t pol) {
  // The per-bit xors feed the AND chain negated, so they carry the
  // flipped polarity.
  Lit acc = const_lit(true);
  for (std::size_t i = 0; i < a.size(); ++i)
    acc = gate_and(acc, ~gate_xor(a[i], b[i], flip(pol)), pol);
  return acc;
}

std::uint8_t BitBlaster::node_polarity(TermRef t) const {
  if (!pg_) return kBoth;
  const auto it = term_pol_.find(t);
  return it == term_pol_.end() ? kBoth : it->second;
}

void BitBlaster::propagate_polarity(TermRef t, std::uint8_t pol,
                                    std::vector<TermRef>& replay) {
  std::vector<std::pair<TermRef, std::uint8_t>> work{{t, pol}};
  while (!work.empty()) {
    auto [cur, p] = work.back();
    work.pop_back();
    const TermNode& n = mgr_.node(cur);
    // Only the 1-bit Boolean skeleton is polarity-split; word-level
    // circuit internals are always both-direction.
    if (n.width != 1) p = kBoth;
    std::uint8_t& have = term_pol_[cur];
    const std::uint8_t missing = p & static_cast<std::uint8_t>(~have);
    if (missing == 0) continue;
    have |= missing;
    // A cached node whose requirement widened needs its missing clause
    // directions re-emitted (Var/Const carry no clauses at all).
    if (n.op != Op::Var && n.op != Op::Const && cache_.count(cur) != 0)
      replay.push_back(cur);
    switch (n.op) {
      case Op::And:
      case Op::Or:
        if (n.width == 1) {  // monotone: operands inherit the polarity
          for (TermRef o : n.operands) work.push_back({o, missing});
          continue;
        }
        break;
      case Op::Not:  // bits alias negated operand bits: polarity flips
        work.push_back({n.operands[0], flip(missing)});
        continue;
      case Op::Ite:
        if (n.width == 1) {  // branches monotone, the selector is not
          work.push_back({n.operands[0], kBoth});
          work.push_back({n.operands[1], missing});
          work.push_back({n.operands[2], missing});
          continue;
        }
        break;
      default: break;
    }
    for (TermRef o : n.operands) work.push_back({o, kBoth});
  }
}

bool BitBlaster::replay_tape(TermRef t, std::uint8_t polarity,
                             const ConeTape& tape) {
  // Phase 1, read-only: walk the pruned DFS exactly as the structural
  // encoder below would, pairing each to-be-encoded node with the tape's
  // node records by canonical digest. A mismatch means the state-digest
  // key collided across genuinely different histories — refuse the tape
  // before anything has been mutated.
  std::vector<TermRef> order;
  {
    std::unordered_set<TermRef> planned;
    std::vector<TermRef> stack{t};
    while (!stack.empty()) {
      const TermRef cur = stack.back();
      if (cache_.count(cur) != 0 || planned.count(cur) != 0) {
        stack.pop_back();
        continue;
      }
      bool ready = true;
      for (TermRef o : mgr_.node(cur).operands) {
        if (cache_.count(o) == 0 && planned.count(o) == 0) {
          stack.push_back(o);
          ready = false;
        }
      }
      if (!ready) continue;
      stack.pop_back();
      planned.insert(cur);
      order.push_back(cur);
    }
  }
  if (order.size() != tape.nodes.size()) return false;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ConeTape::Node& rec = tape.nodes[i];
    if (rec.digest != mgr_.digest(order[i])) return false;
    if (rec.width != mgr_.node(order[i]).width) return false;
  }

  // Phase 2: apply. The polarity walk only touches term_pol_ — the
  // clause re-emissions its replay list stood for on the recording side
  // are part of the tape's stream, so the list itself is discarded.
  if (pg_) {
    std::vector<TermRef> discard;
    propagate_polarity(t, polarity, discard);
  }

  // Solver API call stream, verbatim and in order.
  for (std::size_t i = 0; i < tape.stream.size();) {
    const int v = tape.stream[i++];
    if (v < 0) {
      solver_.new_var();
      continue;
    }
    assert(i + static_cast<std::size_t>(v) <= tape.stream.size());
    if (v == 2) {
      solver_.add_clause(Lit::from_code(tape.stream[i]),
                         Lit::from_code(tape.stream[i + 1]));
    } else if (v == 3) {
      solver_.add_clause(Lit::from_code(tape.stream[i]),
                         Lit::from_code(tape.stream[i + 1]),
                         Lit::from_code(tape.stream[i + 2]));
    } else {
      std::vector<Lit> clause;
      clause.reserve(v);
      for (int j = 0; j < v; ++j)
        clause.push_back(Lit::from_code(tape.stream[i + j]));
      solver_.add_clause(clause);
    }
    i += v;
    ++cone_stats_.clauses_replayed;
  }

  // Gate-cache mutations, so later structural encodes see the exact
  // state the recording blaster had.
  for (const ConeTape::GateOp& g : tape.gate_ops) {
    const GateKey key{g.op, g.a, g.b, g.c};
    if (g.insert) {
      gate_cache_.emplace(key, GateEntry{Lit::from_code(g.out), g.mask});
    } else {
      const auto it = gate_cache_.find(key);
      assert(it != gate_cache_.end() && "tape update of an unknown gate");
      if (it != gate_cache_.end()) it->second.emitted |= g.mask;
    }
  }

  // Term bits and the model support, in DFS order.
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ConeTape::Node& rec = tape.nodes[i];
    Bits bits;
    bits.reserve(rec.bits.size());
    for (int code : rec.bits) bits.push_back(Lit::from_code(code));
    if (rec.is_var) blasted_vars_.push_back(order[i]);
    cache_.emplace(order[i], std::move(bits));
  }
  return true;
}

const std::vector<Lit>& BitBlaster::blast(TermRef t, std::uint8_t polarity) {
  if (!pg_) polarity = kBoth;
  // Every top-level call — including no-ops — advances the state digest,
  // keeping the key an exact function of the call history.
  const TermDigest key = advance_state(t, polarity);
  if (auto it = cache_.find(t); it != cache_.end()) {
    if (!pg_) return it->second;
    const auto pit = term_pol_.find(t);
    if (pit != term_pol_.end() &&
        (polarity & static_cast<std::uint8_t>(~pit->second)) == 0)
      return it->second;
  }

  if (cone_cache_) {
    ++cone_stats_.lookups;
    if (const auto tape = cone_cache_->lookup(key)) {
      if (replay_tape(t, polarity, *tape)) {
        ++cone_stats_.hits;
        return cache_.at(t);
      }
      cone_cache_->note_validation_failure();
    } else {
      rec_tape_ = std::make_shared<ConeTape>();
      recording_ = rec_tape_.get();
    }
  }

  std::vector<TermRef> replay;
  if (pg_) propagate_polarity(t, polarity, replay);

  // Widen already-encoded nodes first: re-running encode() is a
  // deterministic replay — every gate call hits the gate cache, so the
  // bits are unchanged and only the missing clause directions are added.
  for (TermRef r : replay) {
    [[maybe_unused]] const Bits bits = encode(r);
    assert(bits == cache_.at(r) && "polarity replay must not change bits");
  }

  // Iterative post-order to avoid stack overflow on deep BMC unrollings.
  std::vector<TermRef> stack{t};
  while (!stack.empty()) {
    const TermRef cur = stack.back();
    if (cache_.count(cur)) {
      stack.pop_back();
      continue;
    }
    const TermNode& n = mgr_.node(cur);
    bool ready = true;
    for (TermRef o : n.operands) {
      if (!cache_.count(o)) {
        stack.push_back(o);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    Bits bits = encode(cur);
    if (recording_) {
      ConeTape::Node rec{mgr_.digest(cur), n.width, n.op == Op::Var, {}};
      rec.bits.reserve(bits.size());
      for (Lit l : bits) rec.bits.push_back(l.code());
      recording_->nodes.push_back(std::move(rec));
    }
    cache_.emplace(cur, std::move(bits));
  }

  if (recording_) {
    recording_ = nullptr;
    cone_cache_->insert(key, std::move(rec_tape_));
  }
  return cache_.at(t);
}

Lit BitBlaster::blast_bit(TermRef t, std::uint8_t polarity) {
  assert(mgr_.width(t) == 1);
  return blast(t, polarity)[0];
}

BitBlaster::Bits BitBlaster::encode(TermRef t) {
  const TermNode& n = mgr_.node(t);
  auto bits = [&](std::size_t i) -> const Bits& { return cache_.at(n.operands[i]); };
  const unsigned w = n.width;
  // Output polarity of this node's top gates; interior word-level gates
  // stay both-direction. Always kBoth for width > 1 by construction.
  const std::uint8_t pol = node_polarity(t);

  switch (n.op) {
    case Op::Const: {
      Bits out(w);
      for (unsigned i = 0; i < w; ++i) out[i] = const_lit(n.value.bit(i));
      return out;
    }
    case Op::Var: {
      Bits out(w);
      for (unsigned i = 0; i < w; ++i) out[i] = fresh();
      blasted_vars_.push_back(t);
      return out;
    }
    case Op::Not: {
      Bits out(w);
      for (unsigned i = 0; i < w; ++i) out[i] = ~bits(0)[i];
      return out;
    }
    case Op::And:
    case Op::Or:
    case Op::Xor: {
      Bits out(w);
      // 1-bit xor is part of the Boolean skeleton too: both its clause
      // directions halve under a single-polarity requirement (operands
      // were propagated kBoth).
      for (unsigned i = 0; i < w; ++i) {
        const Lit a = bits(0)[i], b = bits(1)[i];
        out[i] = n.op == Op::And ? gate_and(a, b, pol)
                 : n.op == Op::Or ? gate_or(a, b, pol)
                                  : gate_xor(a, b, pol);
      }
      return out;
    }
    case Op::Neg: return negate(bits(0));
    case Op::Add: return encode_add(bits(0), bits(1), const_lit(false));
    case Op::Sub: {
      Bits nb(w);
      for (unsigned i = 0; i < w; ++i) nb[i] = ~bits(1)[i];
      return encode_add(bits(0), nb, const_lit(true));
    }
    case Op::Mul: return encode_mul(bits(0), bits(1));
    case Op::Udiv:
    case Op::Urem: {
      Bits quot, rem;
      encode_udivrem(bits(0), bits(1), quot, rem);
      // SMT-LIB/RISC-V: x udiv 0 = all-ones, x urem 0 = x.
      Bits zero(w, const_lit(false));
      const Lit bz = encode_eq(bits(1), zero);
      if (n.op == Op::Udiv) {
        Bits ones(w, const_lit(true));
        return encode_mux_word(bz, ones, quot);
      }
      return encode_mux_word(bz, bits(0), rem);
    }
    case Op::Sdiv:
    case Op::Srem: {
      // Signed via magnitudes; RISC-V corner cases (div-by-zero, INT_MIN/-1)
      // fall out of the construction plus an explicit zero-divisor mux,
      // matching BitVec::sdiv/srem exactly.
      const Bits &a = bits(0), &b = bits(1);
      const Lit sa = a[w - 1], sb = b[w - 1];
      const Bits abs_a = encode_mux_word(sa, negate(a), a);
      const Bits abs_b = encode_mux_word(sb, negate(b), b);
      Bits quot, rem;
      encode_udivrem(abs_a, abs_b, quot, rem);
      Bits zero(w, const_lit(false));
      const Lit bz = encode_eq(b, zero);
      if (n.op == Op::Sdiv) {
        const Lit neg_out = gate_xor(sa, sb);
        Bits signed_q = encode_mux_word(neg_out, negate(quot), quot);
        Bits ones(w, const_lit(true));
        return encode_mux_word(bz, ones, signed_q);
      }
      Bits signed_r = encode_mux_word(sa, negate(rem), rem);
      return encode_mux_word(bz, a, signed_r);
    }
    case Op::Shl:
    case Op::Lshr:
    case Op::Ashr: return encode_shift(bits(0), bits(1), n.op);
    case Op::Ult: return {encode_ult(bits(0), bits(1), pol)};
    case Op::Ule: return {~encode_ult(bits(1), bits(0), flip(pol))};
    case Op::Slt: return {encode_slt(bits(0), bits(1), pol)};
    case Op::Sle: return {~encode_slt(bits(1), bits(0), flip(pol))};
    case Op::Eq: return {encode_eq(bits(0), bits(1), pol)};
    case Op::Ne: return {~encode_eq(bits(0), bits(1), flip(pol))};
    case Op::Ite:
      if (w == 1) return {gate_mux(bits(0)[0], bits(1)[0], bits(2)[0], pol)};
      return encode_mux_word(bits(0)[0], bits(1), bits(2));
    case Op::Concat: {
      Bits out;
      out.reserve(w);
      const Bits &high = bits(0), &low = bits(1);
      out.insert(out.end(), low.begin(), low.end());
      out.insert(out.end(), high.begin(), high.end());
      return out;
    }
    case Op::Extract: {
      Bits out(w);
      for (unsigned i = 0; i < w; ++i) out[i] = bits(0)[n.aux1 + i];
      return out;
    }
    case Op::ZExt: {
      Bits out = bits(0);
      out.resize(w, const_lit(false));
      return out;
    }
    case Op::SExt: {
      Bits out = bits(0);
      out.resize(w, out.back());
      return out;
    }
  }
  assert(false && "unreachable");
  return {};
}

}  // namespace sepe::smt
