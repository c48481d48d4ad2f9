// bitvec.hpp — fixed-width two's-complement bit-vector values.
//
// BitVec is the concrete value domain shared by the whole repository: the
// term evaluator (src/smt), the instruction-set simulator (src/sim), CEGIS
// counterexample replay (src/synth) and BMC witness printing (src/bmc) all
// compute with it. Widths from 1 to 64 bits are supported; values are kept
// canonical (bits above `width` are always zero).
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

namespace sepe {

/// A fixed-width bit-vector value with two's-complement arithmetic.
///
/// All operators require both operands to have the same width (checked by
/// assertion) and produce a result of that width unless documented
/// otherwise. Shift amounts follow RISC-V semantics: only the low
/// log2(width) bits of the shift operand are used when `masked` variants
/// are called; the plain variants saturate (shift >= width yields 0 /
/// sign-fill) matching SMT-LIB bvshl/bvlshr/bvashr.
class BitVec {
 public:
  BitVec() : width_(1), bits_(0) {}

  BitVec(unsigned width, std::uint64_t value)
      : width_(width), bits_(value & mask(width)) {
    assert(width >= 1 && width <= 64);
  }

  /// All-zeros value of the given width.
  static BitVec zeros(unsigned width) { return BitVec(width, 0); }
  /// All-ones value of the given width.
  static BitVec ones(unsigned width) { return BitVec(width, ~0ULL); }
  /// 1-bit boolean.
  static BitVec boolean(bool b) { return BitVec(1, b ? 1 : 0); }

  unsigned width() const { return width_; }
  std::uint64_t uval() const { return bits_; }

  /// Signed interpretation (sign-extended to 64 bits).
  std::int64_t sval() const {
    if (width_ == 64) return static_cast<std::int64_t>(bits_);
    const std::uint64_t sign = 1ULL << (width_ - 1);
    return static_cast<std::int64_t>((bits_ ^ sign)) - static_cast<std::int64_t>(sign);
  }

  bool bit(unsigned i) const {
    assert(i < width_);
    return (bits_ >> i) & 1;
  }

  bool is_zero() const { return bits_ == 0; }
  bool is_true() const { return width_ == 1 && bits_ == 1; }
  bool msb() const { return bit(width_ - 1); }

  friend bool operator==(const BitVec& a, const BitVec& b) {
    return a.width_ == b.width_ && a.bits_ == b.bits_;
  }
  friend bool operator!=(const BitVec& a, const BitVec& b) { return !(a == b); }

  // --- bitwise ---
  BitVec operator~() const { return BitVec(width_, ~bits_); }
  BitVec operator&(const BitVec& o) const { return binop(o, bits_ & o.bits_); }
  BitVec operator|(const BitVec& o) const { return binop(o, bits_ | o.bits_); }
  BitVec operator^(const BitVec& o) const { return binop(o, bits_ ^ o.bits_); }

  // --- arithmetic ---
  BitVec operator+(const BitVec& o) const { return binop(o, bits_ + o.bits_); }
  BitVec operator-(const BitVec& o) const { return binop(o, bits_ - o.bits_); }
  BitVec operator-() const { return BitVec(width_, ~bits_ + 1); }
  BitVec operator*(const BitVec& o) const { return binop(o, bits_ * o.bits_); }

  /// High half of the (2*width)-bit signed product (RISC-V MULH).
  BitVec mulh_ss(const BitVec& o) const {
    assert(width_ == o.width_);
    const __int128 p = static_cast<__int128>(sval()) * static_cast<__int128>(o.sval());
    return BitVec(width_, static_cast<std::uint64_t>(p >> width_));
  }
  /// High half of the unsigned product (RISC-V MULHU).
  BitVec mulh_uu(const BitVec& o) const {
    assert(width_ == o.width_);
    const unsigned __int128 p =
        static_cast<unsigned __int128>(bits_) * static_cast<unsigned __int128>(o.bits_);
    return BitVec(width_, static_cast<std::uint64_t>(p >> width_));
  }
  /// High half of the signed*unsigned product (RISC-V MULHSU).
  BitVec mulh_su(const BitVec& o) const {
    assert(width_ == o.width_);
    const __int128 p = static_cast<__int128>(sval()) * static_cast<__int128>(o.bits_);
    return BitVec(width_, static_cast<std::uint64_t>(p >> width_));
  }

  /// Unsigned division; division by zero yields all-ones (RISC-V / SMT-LIB).
  BitVec udiv(const BitVec& o) const {
    assert(width_ == o.width_);
    if (o.bits_ == 0) return ones(width_);
    return BitVec(width_, bits_ / o.bits_);
  }
  /// Unsigned remainder; remainder by zero yields the dividend (RISC-V).
  BitVec urem(const BitVec& o) const {
    assert(width_ == o.width_);
    if (o.bits_ == 0) return *this;
    return BitVec(width_, bits_ % o.bits_);
  }
  /// Signed division per RISC-V: div-by-zero -> -1, overflow -> INT_MIN.
  BitVec sdiv(const BitVec& o) const {
    assert(width_ == o.width_);
    if (o.bits_ == 0) return ones(width_);
    const std::int64_t a = sval(), b = o.sval();
    if (a == min_signed() && b == -1)
      return BitVec(width_, static_cast<std::uint64_t>(a));
    return BitVec(width_, static_cast<std::uint64_t>(a / b));
  }
  /// Signed remainder per RISC-V: rem-by-zero -> dividend, overflow -> 0.
  BitVec srem(const BitVec& o) const {
    assert(width_ == o.width_);
    if (o.bits_ == 0) return *this;
    const std::int64_t a = sval(), b = o.sval();
    if (a == min_signed() && b == -1) return zeros(width_);
    return BitVec(width_, static_cast<std::uint64_t>(a % b));
  }

  // --- shifts (SMT-LIB semantics: oversized shifts saturate) ---
  BitVec shl(const BitVec& o) const {
    assert(width_ == o.width_);
    if (o.bits_ >= width_) return zeros(width_);
    return BitVec(width_, bits_ << o.bits_);
  }
  BitVec lshr(const BitVec& o) const {
    assert(width_ == o.width_);
    if (o.bits_ >= width_) return zeros(width_);
    return BitVec(width_, bits_ >> o.bits_);
  }
  BitVec ashr(const BitVec& o) const {
    assert(width_ == o.width_);
    const std::uint64_t amount = o.bits_ >= width_ ? width_ - 1 : o.bits_;
    return BitVec(width_, static_cast<std::uint64_t>(sval() >> amount));
  }
  /// Shift amount masked to log2(width) bits (RISC-V register shifts).
  BitVec shl_masked(const BitVec& o) const { return shl(masked_amount(o)); }
  BitVec lshr_masked(const BitVec& o) const { return lshr(masked_amount(o)); }
  BitVec ashr_masked(const BitVec& o) const { return ashr(masked_amount(o)); }

  // --- comparisons (produce 1-bit values) ---
  BitVec ult(const BitVec& o) const { return cmp(o, bits_ < o.bits_); }
  BitVec ule(const BitVec& o) const { return cmp(o, bits_ <= o.bits_); }
  BitVec slt(const BitVec& o) const { return cmp(o, sval() < o.sval()); }
  BitVec sle(const BitVec& o) const { return cmp(o, sval() <= o.sval()); }
  BitVec eq(const BitVec& o) const { return cmp(o, bits_ == o.bits_); }
  BitVec ne(const BitVec& o) const { return cmp(o, bits_ != o.bits_); }

  // --- structural ---
  /// Zero-extend to `new_width` (>= width).
  BitVec zext(unsigned new_width) const {
    assert(new_width >= width_ && new_width <= 64);
    return BitVec(new_width, bits_);
  }
  /// Sign-extend to `new_width` (>= width).
  BitVec sext(unsigned new_width) const {
    assert(new_width >= width_ && new_width <= 64);
    return BitVec(new_width, static_cast<std::uint64_t>(sval()));
  }
  /// Extract bits [hi:lo] inclusive.
  BitVec extract(unsigned hi, unsigned lo) const {
    assert(hi < width_ && lo <= hi);
    return BitVec(hi - lo + 1, bits_ >> lo);
  }
  /// Concatenation: `this` forms the high bits.
  BitVec concat(const BitVec& low) const {
    assert(width_ + low.width_ <= 64);
    return BitVec(width_ + low.width_, (bits_ << low.width_) | low.bits_);
  }

  /// Hex string, zero-padded to the width, e.g. "0x00ff" for 16 bits.
  std::string to_hex() const;
  /// Binary string, e.g. "0b0101".
  std::string to_bin() const;

  static std::uint64_t mask(unsigned width) {
    return width >= 64 ? ~0ULL : (1ULL << width) - 1;
  }

 private:
  BitVec binop([[maybe_unused]] const BitVec& o, std::uint64_t raw) const {
    assert(width_ == o.width_);
    return BitVec(width_, raw);
  }
  BitVec cmp([[maybe_unused]] const BitVec& o, bool r) const {
    assert(width_ == o.width_);
    return boolean(r);
  }
  BitVec masked_amount(const BitVec& o) const {
    unsigned log2 = 0;
    while ((1u << log2) < width_) ++log2;
    return BitVec(width_, o.bits_ & ((1ULL << log2) - 1));
  }
  /// All ones from the sign bit up, so width 64 needs no -(1 << 63).
  std::int64_t min_signed() const {
    return static_cast<std::int64_t>(~std::uint64_t{0} << (width_ - 1));
  }

  unsigned width_;
  std::uint64_t bits_;
};

}  // namespace sepe
