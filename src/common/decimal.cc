#include "common/decimal.h"

#include <cmath>
#include <cstdlib>

namespace mtbase {

namespace {

constexpr int64_t kPow10[] = {1,
                              10,
                              100,
                              1000,
                              10000,
                              100000,
                              1000000,
                              10000000,
                              100000000,
                              1000000000,
                              10000000000LL,
                              100000000000LL,
                              1000000000000LL};

using int128 = __int128;

// Round half away from zero when dividing by a power of ten.
int128 RoundedShiftRight(int128 v, int32_t digits) {
  if (digits <= 0) return v;
  int128 div = 1;
  for (int32_t i = 0; i < digits; ++i) div *= 10;
  int128 q = v / div;
  int128 r = v % div;
  if (r < 0) r = -r;
  if (2 * r >= div) {
    q += (v < 0) ? -1 : 1;
  }
  return q;
}

/// `units` at `scale`, or an error when the units leave int64_t.
Result<Decimal> Checked(int128 units, int32_t scale) {
  if (units < static_cast<int128>(INT64_MIN) ||
      units > static_cast<int128>(INT64_MAX)) {
    return Status::InvalidArgument("decimal out of range");
  }
  return Decimal(static_cast<int64_t>(units), scale);
}

}  // namespace

Result<Decimal> Decimal::Parse(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty decimal literal");
  size_t i = 0;
  bool neg = false;
  if (text[i] == '+' || text[i] == '-') {
    neg = text[i] == '-';
    ++i;
  }
  int128 units = 0;
  int32_t scale = 0;
  bool seen_dot = false;
  bool seen_digit = false;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c == '.') {
      if (seen_dot) return Status::InvalidArgument("malformed decimal: " + text);
      seen_dot = true;
      continue;
    }
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("malformed decimal: " + text);
    }
    seen_digit = true;
    units = units * 10 + (c - '0');
    if (seen_dot) ++scale;
    if (units > static_cast<int128>(INT64_MAX)) {
      return Status::InvalidArgument("decimal overflow: " + text);
    }
  }
  if (!seen_digit) return Status::InvalidArgument("malformed decimal: " + text);
  Decimal d(static_cast<int64_t>(neg ? -units : units), scale);
  d = d.Normalized();
  if (d.scale() > kMaxScale) {
    return Status::InvalidArgument("decimal scale too large: " + text);
  }
  return d;
}

Decimal Decimal::FromDouble(double v, int32_t scale) {
  double scaled = v * static_cast<double>(kPow10[scale]);
  return Decimal(static_cast<int64_t>(std::llround(scaled)), scale);
}

double Decimal::ToDouble() const {
  return static_cast<double>(units_) / static_cast<double>(kPow10[scale_]);
}

std::string Decimal::ToString() const {
  int64_t u = units_;
  bool neg = u < 0;
  uint64_t abs = neg ? static_cast<uint64_t>(-(u + 1)) + 1 : static_cast<uint64_t>(u);
  uint64_t div = static_cast<uint64_t>(kPow10[scale_]);
  uint64_t ip = abs / div;
  uint64_t fp = abs % div;
  std::string s = neg ? "-" : "";
  s += std::to_string(ip);
  if (scale_ > 0) {
    std::string frac = std::to_string(fp);
    s += '.';
    s += std::string(static_cast<size_t>(scale_) - frac.size(), '0');
    s += frac;
  }
  return s;
}

Result<Decimal> Decimal::AddScaled(const Decimal& other,
                                   bool negate_other) const {
  int32_t s = std::max(scale_, other.scale_);
  int128 a = static_cast<int128>(units_) * kPow10[s - scale_];
  int128 b = static_cast<int128>(other.units_) * kPow10[s - other.scale_];
  return Checked(negate_other ? a - b : a + b, s);
}

Result<Decimal> Decimal::Mul(const Decimal& other) const {
  int128 prod = static_cast<int128>(units_) * other.units_;
  int32_t s = scale_ + other.scale_;
  if (s > kMaxScale) {
    return Checked(RoundedShiftRight(prod, s - kMaxScale), kMaxScale);
  }
  return Checked(prod, s);
}

Result<Decimal> Decimal::Div(const Decimal& other) const {
  // Compute (a / b) at kMaxScale digits: a * 10^(kMaxScale - sa + sb) / b_units
  // rounded half away from zero.
  int128 num = static_cast<int128>(units_);
  int32_t shift = kMaxScale - scale_ + other.scale_;
  while (shift > 0) {
    num *= 10;
    --shift;
  }
  while (shift < 0) {
    num /= 10;
    ++shift;
  }
  int128 den = other.units_;
  if (den == 0) return Decimal(0, 0);
  int128 q = num / den;
  int128 r = num % den;
  int128 aden = den < 0 ? -den : den;
  int128 ar = r < 0 ? -r : r;
  if (2 * ar >= aden) {
    bool neg = (num < 0) != (den < 0);
    q += neg ? -1 : 1;
  }
  return Checked(q, kMaxScale);
}

int Decimal::Compare(const Decimal& other) const {
  int32_t s = std::max(scale_, other.scale_);
  int128 a = static_cast<int128>(units_) * kPow10[s - scale_];
  int128 b = static_cast<int128>(other.units_) * kPow10[s - other.scale_];
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

Decimal Decimal::Normalized() const {
  int64_t u = units_;
  int32_t s = scale_;
  while (s > 0 && u % 10 == 0) {
    u /= 10;
    --s;
  }
  return Decimal(u, s);
}

Decimal Decimal::Rescale(int32_t scale) const {
  if (scale == scale_) return *this;
  if (scale > scale_) {
    return Decimal(units_ * kPow10[scale - scale_], scale);
  }
  return Decimal(static_cast<int64_t>(RoundedShiftRight(units_, scale_ - scale)),
                 scale);
}

size_t Decimal::Hash() const {
  Decimal n = Normalized();
  return std::hash<int64_t>()(n.units_) * 1000003u ^
         std::hash<int32_t>()(n.scale_);
}

}  // namespace mtbase
