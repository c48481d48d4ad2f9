#include "smt/flat_eval.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "util/bitvec.hpp"

namespace sepe::smt {

namespace {

/// Points per pass over the op array: enough to amortize the per-op
/// dispatch, few enough that a few hundred value rows stay in cache.
constexpr std::size_t kLanes = 64;

/// One lowered node: its result width, the rows of the value table it
/// reads and writes, and `aux`, which is Extract's low bit, the low
/// operand's width for Concat, and the operand width for SExt, Slt, Sle.
struct FlatOp {
  Op op;
  unsigned width;
  unsigned aux;
  std::uint32_t dst, a, b, c;
};

/// Two's-complement reading of a canonical `w`-bit value.
inline std::int64_t sext(std::uint64_t v, unsigned w) {
  const unsigned s = 64 - w;
  return static_cast<std::int64_t>(v << s) >> s;
}

/// Evaluate every op over all kLanes lanes of the value table.
void run(const std::vector<FlatOp>& ops, std::vector<std::uint64_t>& vals) {
  for (const FlatOp& f : ops) {
    std::uint64_t* d = &vals[f.dst * kLanes];
    const std::uint64_t* a = &vals[f.a * kLanes];
    const std::uint64_t* b = &vals[f.b * kLanes];
    const std::uint64_t* c = &vals[f.c * kLanes];
    const unsigned w = f.width;
    const std::uint64_t m = BitVec::mask(w);
    switch (f.op) {
      case Op::Const:
      case Op::Var: assert(false && "leaves are not lowered"); break;
      case Op::Not:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = ~a[l] & m;
        break;
      case Op::And:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = a[l] & b[l];
        break;
      case Op::Or:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = a[l] | b[l];
        break;
      case Op::Xor:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = a[l] ^ b[l];
        break;
      case Op::Neg:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = (0 - a[l]) & m;
        break;
      case Op::Add:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = (a[l] + b[l]) & m;
        break;
      case Op::Sub:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = (a[l] - b[l]) & m;
        break;
      case Op::Mul:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = (a[l] * b[l]) & m;
        break;
      case Op::Udiv:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = b[l] != 0 ? a[l] / b[l] : m;
        break;
      case Op::Urem:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = b[l] != 0 ? a[l] % b[l] : a[l];
        break;
      case Op::Sdiv:
        // x / -1 is -x, which wraps INT_MIN onto itself without the host's
        // INT64_MIN / -1 trap.
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::int64_t x = sext(a[l], w), y = sext(b[l], w);
          if (y == 0)
            d[l] = m;
          else if (y == -1)
            d[l] = (0 - a[l]) & m;
          else
            d[l] = static_cast<std::uint64_t>(x / y) & m;
        }
        break;
      case Op::Srem:
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::int64_t x = sext(a[l], w), y = sext(b[l], w);
          d[l] = y == 0 ? a[l] : y == -1 ? 0 : static_cast<std::uint64_t>(x % y) & m;
        }
        break;
      case Op::Shl:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = b[l] < w ? (a[l] << b[l]) & m : 0;
        break;
      case Op::Lshr:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = b[l] < w ? a[l] >> b[l] : 0;
        break;
      case Op::Ashr:
        for (std::size_t l = 0; l < kLanes; ++l) {
          const unsigned s = b[l] < w ? static_cast<unsigned>(b[l]) : w - 1;
          d[l] = static_cast<std::uint64_t>(sext(a[l], w) >> s) & m;
        }
        break;
      case Op::Ult:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = a[l] < b[l];
        break;
      case Op::Ule:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = a[l] <= b[l];
        break;
      case Op::Slt:
        for (std::size_t l = 0; l < kLanes; ++l)
          d[l] = sext(a[l], f.aux) < sext(b[l], f.aux);
        break;
      case Op::Sle:
        for (std::size_t l = 0; l < kLanes; ++l)
          d[l] = sext(a[l], f.aux) <= sext(b[l], f.aux);
        break;
      case Op::Eq:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = a[l] == b[l];
        break;
      case Op::Ne:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = a[l] != b[l];
        break;
      case Op::Ite:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = a[l] != 0 ? b[l] : c[l];
        break;
      case Op::Concat:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = (a[l] << f.aux) | b[l];
        break;
      case Op::Extract:
        for (std::size_t l = 0; l < kLanes; ++l) d[l] = (a[l] >> f.aux) & m;
        break;
      case Op::ZExt: std::copy(a, a + kLanes, d); break;
      case Op::SExt:
        for (std::size_t l = 0; l < kLanes; ++l)
          d[l] = static_cast<std::uint64_t>(sext(a[l], f.aux)) & m;
        break;
    }
  }
}

}  // namespace

bool sweep_proves_false(const TermManager& mgr, TermRef miter,
                        const std::vector<TermRef>& inputs) {
  assert(mgr.width(miter) == 1);
  unsigned bits = 0;
  for (TermRef v : inputs) bits += mgr.width(v);
  if (bits > kSweepMaxInputBits) return false;

  // Mark the cone top-down; operands always precede their parents, so one
  // descending pass over the TermRefs reaches every node in it. Then give
  // each cone node its value-table row, in TermRef order.
  constexpr std::uint32_t kOutside = ~std::uint32_t{0};
  std::vector<std::uint32_t> row(miter + 1, kOutside);
  row[miter] = 0;
  for (TermRef t = miter + 1; t-- > 0;) {
    if (row[t] == kOutside) continue;
    for (TermRef o : mgr.node(t).operands) {
      assert(o < t);
      row[o] = 0;
    }
  }
  std::uint32_t rows = 0;
  for (TermRef t = 0; t <= miter; ++t)
    if (row[t] != kOutside) row[t] = rows++;

  // Lower, in TermRef order. Leaves are rows of the value table, filled
  // once (constants; variables outside `inputs` stay 0) or per batch.
  std::vector<std::uint64_t> vals(static_cast<std::size_t>(rows) * kLanes, 0);
  std::vector<FlatOp> ops;
  for (TermRef t = 0; t <= miter; ++t) {
    if (row[t] == kOutside) continue;
    const TermNode& n = mgr.node(t);
    if (n.op == Op::Const) {
      std::fill_n(&vals[row[t] * kLanes], kLanes, n.value.uval());
      continue;
    }
    if (n.op == Op::Var) continue;
    FlatOp f{n.op, n.width, 0, row[t], 0, 0, 0};
    std::uint32_t* operand[] = {&f.a, &f.b, &f.c};
    for (std::size_t i = 0; i < n.operands.size(); ++i) *operand[i] = row[n.operands[i]];
    switch (n.op) {
      case Op::Extract: f.aux = n.aux1; break;
      case Op::Concat: f.aux = mgr.width(n.operands[1]); break;
      case Op::SExt:
      case Op::Slt:
      case Op::Sle: f.aux = mgr.width(n.operands[0]); break;
      default: break;
    }
    ops.push_back(f);
  }

  // Input i takes its bits from the point index at offset `shift`. Every
  // lane holds a valid point, so a short last batch needs no lane count.
  struct Field {
    std::uint64_t* lanes;
    unsigned shift;
    std::uint64_t mask;
  };
  std::vector<Field> fields;
  unsigned shift = 0;
  for (TermRef v : inputs) {
    assert(mgr.node(v).op == Op::Var);
    const unsigned w = mgr.width(v);
    if (v <= miter && row[v] != kOutside)
      fields.push_back({&vals[row[v] * kLanes], shift, BitVec::mask(w)});
    shift += w;
  }

  const std::uint64_t* out = &vals[row[miter] * kLanes];
  const std::uint64_t points = std::uint64_t{1} << bits;
  for (std::uint64_t p0 = 0; p0 < points; p0 += kLanes) {
    for (const Field& fd : fields)
      for (std::size_t l = 0; l < kLanes; ++l)
        fd.lanes[l] = ((p0 + l) >> fd.shift) & fd.mask;
    run(ops, vals);
    std::uint64_t any = 0;
    for (std::size_t l = 0; l < kLanes; ++l) any |= out[l];
    if (any != 0) return false;
  }
  return true;
}

}  // namespace sepe::smt
