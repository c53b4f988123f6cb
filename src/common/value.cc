#include "common/value.h"

#include <cmath>
#include <functional>
#include <variant>

namespace mtbase {

const char* TypeIdName(TypeId t) {
  switch (t) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return "BOOL";
    case TypeId::kInt:
      return "INT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kDecimal:
      return "DECIMAL";
    case TypeId::kString:
      return "STRING";
    case TypeId::kDate:
      return "DATE";
  }
  return "?";
}

double Value::AsDouble() const {
  switch (type_) {
    case TypeId::kInt:
      return static_cast<double>(int_value());
    case TypeId::kDouble:
      return double_value();
    case TypeId::kDecimal:
      return decimal_value().ToDouble();
    case TypeId::kBool:
      return bool_value() ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

void Value::ThrowBadAccess() { throw std::bad_variant_access(); }

namespace {
int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }
}  // namespace

Result<int> Value::Compare(const Value& other) const {
  // Same-type payloads compare directly; the general path below would widen
  // numeric sides to Decimal.
  int same = 0;
  if (CompareSameType(other, &same)) return same;
  if (is_null() || other.is_null()) {
    return Status::Internal("Compare called on NULL value");
  }
  if (is_numeric() && other.is_numeric()) {
    // Exact decimal/int comparison where possible; fall back to double when
    // either side is a double.
    if (type_ == TypeId::kDouble || other.type_ == TypeId::kDouble) {
      return Sign(AsDouble() - other.AsDouble());
    }
    Decimal a = type_ == TypeId::kDecimal ? decimal_value()
                                          : Decimal::FromInt(int_value());
    Decimal b = other.type_ == TypeId::kDecimal
                    ? other.decimal_value()
                    : Decimal::FromInt(other.int_value());
    return a.Compare(b);
  }
  if (type_ != other.type_) {
    return Status::Internal(std::string("cannot compare ") + TypeIdName(type_) +
                            " with " + TypeIdName(other.type_));
  }
  switch (type_) {
    case TypeId::kBool:
      return (bool_value() ? 1 : 0) - (other.bool_value() ? 1 : 0);
    default:
      return Status::Internal("unsupported comparison type");
  }
}

bool Value::StructuralEquals(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_numeric() && other.is_numeric()) {
    auto r = Compare(other);
    return r.ok() && r.value() == 0;
  }
  if (type_ != other.type_) return false;
  auto r = Compare(other);
  return r.ok() && r.value() == 0;
}

size_t Value::Hash() const {
  switch (type_) {
    case TypeId::kNull:
      return 0x9e3779b9;
    case TypeId::kBool:
      return bool_value() ? 3 : 7;
    case TypeId::kInt:
      // Hash ints via Decimal so that equal int/decimal values collide.
      return Decimal::FromInt(int_value()).Hash();
    case TypeId::kDouble:
      return std::hash<double>()(double_value());
    case TypeId::kDecimal:
      return decimal_value().Hash();
    case TypeId::kString:
      return std::hash<std::string>()(string_value());
    case TypeId::kDate:
      return std::hash<int32_t>()(date_value().days());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return bool_value() ? "true" : "false";
    case TypeId::kInt:
      return std::to_string(int_value());
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6f", double_value());
      return buf;
    }
    case TypeId::kDecimal:
      return decimal_value().ToString();
    case TypeId::kString:
      return string_value();
    case TypeId::kDate:
      return date_value().ToString();
  }
  return "?";
}

size_t HashRow(const Row& row) { return HashRow(row.data(), row.size()); }

namespace {

/// FNV-style fold of the component hashes value_at(0..n).
template <typename ValueAt>
size_t HashValues(ValueAt value_at, size_t n) {
  size_t h = 14695981039346656037ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= value_at(i).Hash();
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

size_t HashRow(const Value* values, size_t n) {
  return HashValues([values](size_t i) -> const Value& { return values[i]; },
                    n);
}

size_t HashRowRefs(const Value* const* values, size_t n) {
  return HashValues([values](size_t i) -> const Value& { return *values[i]; },
                    n);
}

}  // namespace mtbase
