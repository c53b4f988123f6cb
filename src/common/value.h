// Value: the runtime representation of a single SQL value (possibly NULL).
#ifndef MTBASE_COMMON_VALUE_H_
#define MTBASE_COMMON_VALUE_H_

#include <cstdint>
#include <new>
#include <string>
#include <utility>
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
///
/// A tagged union: the TypeId tag plus either a 16-byte scalar payload (BOOL,
/// INT, DOUBLE, DECIMAL, DATE) or a std::string. Copies, moves, assignments
/// and the destructor test the tag once; a scalar copies as its 16 bytes and
/// only a STRING runs std::string's members. A moved-from STRING keeps its
/// tag and holds a valid (empty) string. An accessor of the wrong type throws
/// std::bad_variant_access.
class Value {
 public:
  Value() noexcept : scalar_(), type_(TypeId::kNull) {}
  Value(const Value& other) : type_(other.type_) {
    if (type_ == TypeId::kString) {
      new (&str_) std::string(other.str_);
    } else {
      new (&scalar_) Scalar(other.scalar_);
    }
  }
  Value(Value&& other) noexcept : type_(other.type_) {
    if (type_ == TypeId::kString) {
      new (&str_) std::string(std::move(other.str_));
    } else {
      new (&scalar_) Scalar(other.scalar_);
    }
  }
  Value& operator=(const Value& other) {
    if (other.type_ == TypeId::kString) {
      if (type_ == TypeId::kString) {
        str_ = other.str_;
      } else {
        new (&str_) std::string(other.str_);
        type_ = TypeId::kString;
      }
    } else {
      AssignScalar(other);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (other.type_ == TypeId::kString) {
      if (type_ == TypeId::kString) {
        str_ = std::move(other.str_);
      } else {
        new (&str_) std::string(std::move(other.str_));
        type_ = TypeId::kString;
      }
    } else {
      AssignScalar(other);
    }
    return *this;
  }
  ~Value() {
    if (type_ == TypeId::kString) str_.~basic_string();
  }

  static Value Null() { return Value(); }
  static Value Bool(bool v) {
    Value r(TypeId::kBool);
    r.scalar_.b = v;
    return r;
  }
  static Value Int(int64_t v) {
    Value r(TypeId::kInt);
    r.scalar_.i = v;
    return r;
  }
  static Value Double(double v) {
    Value r(TypeId::kDouble);
    r.scalar_.d = v;
    return r;
  }
  static Value Dec(Decimal v) {
    Value r(TypeId::kDecimal);
    new (&r.scalar_.dec) Decimal(v);
    return r;
  }
  static Value Str(std::string v) { return Value(std::move(v)); }
  static Value Dat(Date v) {
    Value r(TypeId::kDate);
    new (&r.scalar_.date) Date(v);
    return r;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }
  bool is_numeric() const {
    return type_ == TypeId::kInt || type_ == TypeId::kDouble ||
           type_ == TypeId::kDecimal;
  }

  bool bool_value() const {
    Expect(TypeId::kBool);
    return scalar_.b;
  }
  int64_t int_value() const {
    Expect(TypeId::kInt);
    return scalar_.i;
  }
  double double_value() const {
    Expect(TypeId::kDouble);
    return scalar_.d;
  }
  const Decimal& decimal_value() const {
    Expect(TypeId::kDecimal);
    return scalar_.dec;
  }
  const std::string& string_value() const {
    Expect(TypeId::kString);
    return str_;
  }
  const Date& date_value() const {
    Expect(TypeId::kDate);
    return scalar_.date;
  }

  /// Numeric value as double (int/double/decimal); 0 otherwise.
  double AsDouble() const;

  /// Three-way compare with SQL semantics for same-kind values; numeric types
  /// compare across int/double/decimal. Comparing NULL or incompatible kinds
  /// is an error.
  Result<int> Compare(const Value& other) const;

  /// Compare() of the pairs it orders without widening either side:
  /// same-type INT, DATE, equal-scale DECIMAL and STRING. Sets *out and
  /// returns true for those; returns false for every other pair, NULL
  /// included.
  bool CompareSameType(const Value& other, int* out) const {
    if (type_ != other.type_) return false;
    switch (type_) {
      case TypeId::kInt:
        *out = ThreeWay(scalar_.i, other.scalar_.i);
        return true;
      case TypeId::kDate:
        *out = ThreeWay(scalar_.date.days(), other.scalar_.date.days());
        return true;
      case TypeId::kDecimal:
        if (scalar_.dec.scale() != other.scalar_.dec.scale()) return false;
        *out = ThreeWay(scalar_.dec.units(), other.scalar_.dec.units());
        return true;
      case TypeId::kString:
        *out = ThreeWay(str_.compare(other.str_), 0);
        return true;
      default:
        return false;
    }
  }

  /// Structural equality (used for result validation and hashing); NULL equals
  /// NULL, numerics compare by value across numeric types.
  bool StructuralEquals(const Value& other) const;

  size_t Hash() const;

  /// SQL-literal-ish rendering ("NULL", "42", "foo", "1995-01-01").
  std::string ToString() const;

 private:
  /// The non-string payloads. Every member is trivially copyable, so a copy
  /// of the union copies its 16 bytes whichever member is active. All 16
  /// start zeroed, so no copy reads an indeterminate byte.
  union Scalar {
    Scalar() : words{} {}
    uint64_t words[2];
    bool b;
    int64_t i;
    double d;
    Decimal dec;
    Date date;
  };

  template <typename T>
  static int ThreeWay(T a, T b) {
    return a < b ? -1 : (a > b ? 1 : 0);
  }

  explicit Value(TypeId t) noexcept : scalar_(), type_(t) {}
  explicit Value(std::string&& s) noexcept
      : str_(std::move(s)), type_(TypeId::kString) {}

  /// Become a copy of the non-string `other` (which may be *this).
  void AssignScalar(const Value& other) noexcept {
    const Scalar s = other.scalar_;
    if (type_ == TypeId::kString) str_.~basic_string();
    new (&scalar_) Scalar(s);
    type_ = other.type_;
  }

  void Expect(TypeId t) const {
    if (type_ != t) ThrowBadAccess();
  }
  [[noreturn]] static void ThrowBadAccess();

  union {
    Scalar scalar_;
    std::string str_;
  };
  TypeId type_;
};

using Row = std::vector<Value>;

/// Hash of a key tuple (engine::KeyIndex keys every hashed operator on it).
size_t HashRow(const Row& row);
/// HashRow over `n` contiguous values (a key tuple stored in a flat array).
size_t HashRow(const Value* values, size_t n);
/// HashRow over `n` values read through pointers (a key read where it lies).
size_t HashRowRefs(const Value* const* values, size_t n);

}  // namespace mtbase

#endif  // MTBASE_COMMON_VALUE_H_
