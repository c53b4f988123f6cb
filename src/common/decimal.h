// Fixed-point decimal arithmetic for monetary values (TPC-H DECIMAL(15,2)).
//
// A Decimal is an int64 mantissa plus a decimal scale in [0, kMaxScale].
// Arithmetic uses __int128 intermediates and renormalizes results to at most
// kMaxScale fractional digits (round half away from zero), so that
// conversion-function round trips with reciprocal-exact exchange rates are
// bit-exact (see DESIGN.md section 5).
#ifndef MTBASE_COMMON_DECIMAL_H_
#define MTBASE_COMMON_DECIMAL_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace mtbase {

class Decimal {
 public:
  static constexpr int32_t kMaxScale = 6;

  Decimal() : units_(0), scale_(0) {}
  Decimal(int64_t units, int32_t scale) : units_(units), scale_(scale) {}

  /// Parse "123", "-1.5", "0.0001". Fails on malformed input or more than
  /// kMaxScale fractional digits after trimming trailing zeros.
  static Result<Decimal> Parse(const std::string& text);

  /// Exact conversion from an integer.
  static Decimal FromInt(int64_t v) { return Decimal(v, 0); }
  /// Closest decimal with the given scale.
  static Decimal FromDouble(double v, int32_t scale);

  int64_t units() const { return units_; }
  int32_t scale() const { return scale_; }

  double ToDouble() const;
  /// "-12.34"; always prints exactly scale() fractional digits.
  std::string ToString() const;

  /// Exact sum and difference at the larger of the two scales. These, Mul,
  /// Div and Neg fail with InvalidArgument("decimal out of range") when the
  /// result's units do not fit in int64_t.
  Result<Decimal> Add(const Decimal& other) const {
    int64_t units = 0;
    if (scale_ == other.scale_ &&
        !__builtin_add_overflow(units_, other.units_, &units)) {
      return Decimal(units, scale_);
    }
    return AddScaled(other, /*negate_other=*/false);
  }
  Result<Decimal> Sub(const Decimal& other) const {
    return AddScaled(other, /*negate_other=*/true);
  }
  /// Product renormalized to at most kMaxScale fractional digits.
  Result<Decimal> Mul(const Decimal& other) const;
  /// Quotient computed at kMaxScale fractional digits. Division by zero is the
  /// caller's responsibility to exclude.
  Result<Decimal> Div(const Decimal& other) const;
  Result<Decimal> Neg() const { return Decimal(0, scale_).Sub(*this); }

  /// Three-way comparison: -1, 0, +1.
  int Compare(const Decimal& other) const;

  bool operator==(const Decimal& other) const { return Compare(other) == 0; }

  /// Returns an equal decimal with trailing fractional zeros removed.
  Decimal Normalized() const;
  /// Returns the closest decimal with exactly `scale` fractional digits.
  Decimal Rescale(int32_t scale) const;

  /// Hash consistent with Compare()-equality.
  size_t Hash() const;

 private:
  /// this + other (or this - other) at the larger scale, range-checked.
  Result<Decimal> AddScaled(const Decimal& other, bool negate_other) const;

  int64_t units_;
  int32_t scale_;
};

}  // namespace mtbase

#endif  // MTBASE_COMMON_DECIMAL_H_
