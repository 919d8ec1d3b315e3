/// \file divisor.hpp
/// \brief Exact quotient and remainder by a divisor fixed at run time.
///
/// A 64-bit `div` costs several multiplies.  Generating the OCB base divides
/// once per reference slot by numbers that never change inside the loop
/// (NC, the OLOCREF window), and the class of an OID is a remainder by
/// NC.  Granlund & Montgomery ("Division by Invariant Integers using
/// Multiplication", PLDI '94, Figure 4.1) replace such a division by one
/// multiply-high, a subtraction, an addition and two shifts, exact for
/// every 64-bit numerator and every divisor >= 1.
#pragma once

#include <cstdint>

#include "util/check.hpp"

namespace voodb::util {

/// Division by an invariant `d` >= 1 through a precomputed multiplier.
class Divisor {
 public:
  /// Division by 1.
  Divisor() = default;

  explicit Divisor(uint64_t d) : d_(d) {
    VOODB_CHECK_MSG(d != 0, "division by zero");
    // l = ceil(log2 d); m = floor(2^64 (2^l - d) / d) + 1 fits 64 bits.
    const int l = d == 1 ? 0 : 64 - __builtin_clzll(d - 1);
    // 2^l - d < d, so the quotient fits 64 bits: one hardware 128/64
    // divide where there is one, not a call to the generic 128-bit one.
    const auto excess = static_cast<uint64_t>((static_cast<U128>(1) << l) - d);
    magic_ = DivideHigh(excess, d) + 1;
    shift1_ = l < 1 ? l : 1;
    shift2_ = l < 1 ? 0 : l - 1;
  }

  /// floor(n / d).
  uint64_t Div(uint64_t n) const {
    const auto t = static_cast<uint64_t>((static_cast<U128>(magic_) * n) >> 64);
    return (t + ((n - t) >> shift1_)) >> shift2_;
  }

  /// n mod d.
  uint64_t Mod(uint64_t n) const { return n - Div(n) * d_; }

 private:
  __extension__ typedef unsigned __int128 U128;

  /// floor(hi * 2^64 / d) for hi < d.
  static uint64_t DivideHigh(uint64_t hi, uint64_t d) {
#if defined(__x86_64__)
    uint64_t quotient;
    uint64_t remainder;
    __asm__("divq %[d]"
            : "=a"(quotient), "=d"(remainder)
            : "a"(uint64_t{0}), "d"(hi), [d] "rm"(d));
    return quotient;
#else
    return static_cast<uint64_t>((static_cast<U128>(hi) << 64) / d);
#endif
  }

  uint64_t d_ = 1;
  uint64_t magic_ = 1;
  int shift1_ = 0;
  int shift2_ = 0;
};

}  // namespace voodb::util
