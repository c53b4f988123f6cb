// Value: the runtime representation of a single SQL value (possibly NULL).
#ifndef MTBASE_COMMON_VALUE_H_
#define MTBASE_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/date.h"
#include "common/decimal.h"
#include "common/result.h"

namespace mtbase {

enum class TypeId : uint8_t {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kDecimal,
  kString,
  kDate,
};

const char* TypeIdName(TypeId t);

/// \brief A dynamically typed SQL value. NULL is represented by type kNull.
class Value {
 public:
  Value() : type_(TypeId::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(TypeId::kBool, v); }
  static Value Int(int64_t v) { return Value(TypeId::kInt, v); }
  static Value Double(double v) { return Value(TypeId::kDouble, v); }
  static Value Dec(Decimal v) { return Value(TypeId::kDecimal, v); }
  static Value Str(std::string v) { return Value(TypeId::kString, std::move(v)); }
  static Value Dat(Date v) { return Value(TypeId::kDate, v); }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }
  bool is_numeric() const {
    return type_ == TypeId::kInt || type_ == TypeId::kDouble ||
           type_ == TypeId::kDecimal;
  }

  bool bool_value() const { return std::get<bool>(v_); }
  int64_t int_value() const { return std::get<int64_t>(v_); }
  double double_value() const { return std::get<double>(v_); }
  const Decimal& decimal_value() const { return std::get<Decimal>(v_); }
  const std::string& string_value() const { return std::get<std::string>(v_); }
  const Date& date_value() const { return std::get<Date>(v_); }

  /// Numeric value as double (int/double/decimal); 0 otherwise.
  double AsDouble() const;

  /// Three-way compare with SQL semantics for same-kind values; numeric types
  /// compare across int/double/decimal. Comparing NULL or incompatible kinds
  /// is an error.
  Result<int> Compare(const Value& other) const;

  /// Structural equality (used for result validation and hashing); NULL equals
  /// NULL, numerics compare by value across numeric types.
  bool StructuralEquals(const Value& other) const;

  size_t Hash() const;

  /// SQL-literal-ish rendering ("NULL", "42", "foo", "1995-01-01").
  std::string ToString() const;

 private:
  template <typename T>
  Value(TypeId t, T v) : type_(t), v_(std::move(v)) {}

  TypeId type_;
  std::variant<std::monostate, bool, int64_t, double, Decimal, std::string, Date>
      v_;
};

using Row = std::vector<Value>;

/// Hash of a key tuple (engine::KeyIndex keys every hashed operator on it).
size_t HashRow(const Row& row);
/// HashRow over `n` contiguous values (a key tuple stored in a flat array).
size_t HashRow(const Value* values, size_t n);

}  // namespace mtbase

#endif  // MTBASE_COMMON_VALUE_H_
