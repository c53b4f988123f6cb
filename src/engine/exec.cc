#include "engine/exec.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/str_util.h"
#include "engine/catalog.h"
#include "engine/filter.h"
#include "engine/key_index.h"
#include "engine/obs/profile.h"
#include "engine/parallel/parallel.h"
#include "engine/udf.h"

namespace mtbase {
namespace engine {

namespace {

Value NullV() { return Value::Null(); }

Result<Value> EvalUdfCall(const BoundExpr& e, RowView row, ExecContext* ctx);

}  // namespace

const TableVersion& TableSnapshots::Pin(const Table& t) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const TableVersion>& pinned = pinned_[&t];
  if (pinned == nullptr) pinned = t.Snapshot();
  return *pinned;
}

const TableVersion& PinnedVersion(ExecContext* ctx, const Table& t) {
  if (ctx->snapshots == nullptr) {
    ctx->snapshots = std::make_shared<TableSnapshots>();
  }
  return ctx->snapshots->Pin(t);
}

void RowBatch::AppendBatch(RowBatch&& other) {
  assert(other.width_ == width_);
  values_.insert(values_.end(), std::make_move_iterator(other.values_.begin()),
                 std::make_move_iterator(other.values_.end()));
  rows_ += other.rows_;
  other.values_.clear();
  other.rows_ = 0;
}

void RowBatch::Truncate(size_t rows) {
  if (rows >= rows_) return;
  values_.erase(values_.begin() + static_cast<std::ptrdiff_t>(rows * width_),
                values_.end());
  rows_ = rows;
}

void RowBatch::Slice(size_t offset, size_t limit) {
  const size_t off = std::min(offset, rows_);
  values_.erase(values_.begin(),
                values_.begin() + static_cast<std::ptrdiff_t>(off * width_));
  rows_ -= off;
  Truncate(limit);
}

std::vector<Row> RowBatch::TakeRows() {
  std::vector<Row> rows;
  rows.reserve(rows_);
  for (size_t i = 0; i < rows_; ++i) {
    Value* v = row_data(i);
    rows.emplace_back(std::make_move_iterator(v),
                      std::make_move_iterator(v + width_));
  }
  values_.clear();
  rows_ = 0;
  return rows;
}

int SortCompare(const Value& a, const Value& b) {
  if (a.is_null() && b.is_null()) return 0;
  if (a.is_null()) return 1;
  if (b.is_null()) return -1;
  auto r = a.Compare(b);
  return r.ok() ? r.value() : 0;
}

bool IsTrue(const Value& v) {
  return v.type() == TypeId::kBool && v.bool_value();
}

namespace {

/// n values on the stack, or on the heap past kInline: a call site's
/// arguments or an IN needle, evaluated without an allocation per row.
class InlineValues {
 public:
  explicit InlineValues(size_t n) {
    if (n > kInline) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  InlineValues(const InlineValues&) = delete;
  InlineValues& operator=(const InlineValues&) = delete;

  Value* data() { return data_; }

 private:
  static constexpr size_t kInline = 4;
  Value inline_[kInline];
  std::vector<Value> heap_;
  Value* data_ = inline_;
};

Status IntOutOfRange() {
  return Status::InvalidArgument("integer out of range");
}

/// An INT or DECIMAL operand as a Decimal (exact).
Decimal ToDecimal(const Value& v) {
  return v.type() == TypeId::kDecimal ? v.decimal_value()
                                      : Decimal::FromInt(v.int_value());
}

/// Arithmetic dispatch shared by + - *: DOUBLE if either side is one, else
/// DECIMAL if either side is one, else INT; INT and DECIMAL results are
/// range-checked.
template <typename DoubleOp, typename DecimalOp, typename IntOp>
Result<Value> Arith(const Value& a, const Value& b, const char* verb,
                    DoubleOp dop, DecimalOp decop, IntOp iop) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::InvalidArgument(std::string("cannot ") + verb +
                                   " non-numeric values");
  }
  if (a.type() == TypeId::kDouble || b.type() == TypeId::kDouble) {
    return Value::Double(dop(a.AsDouble(), b.AsDouble()));
  }
  if (a.type() == TypeId::kDecimal || b.type() == TypeId::kDecimal) {
    MTB_ASSIGN_OR_RETURN(Decimal d, decop(ToDecimal(a), ToDecimal(b)));
    return Value::Dec(d);
  }
  int64_t r = 0;
  if (iop(a.int_value(), b.int_value(), &r)) return IntOutOfRange();
  return Value::Int(r);
}

}  // namespace

Result<Value> NumericAdd(const Value& a, const Value& b) {
  return Arith(
      a, b, "add", [](double x, double y) { return x + y; },
      [](const Decimal& x, const Decimal& y) { return x.Add(y); },
      [](int64_t x, int64_t y, int64_t* r) {
        return __builtin_add_overflow(x, y, r);
      });
}

Result<Value> NumericSub(const Value& a, const Value& b) {
  return Arith(
      a, b, "subtract", [](double x, double y) { return x - y; },
      [](const Decimal& x, const Decimal& y) { return x.Sub(y); },
      [](int64_t x, int64_t y, int64_t* r) {
        return __builtin_sub_overflow(x, y, r);
      });
}

Result<Value> NumericMul(const Value& a, const Value& b) {
  return Arith(
      a, b, "multiply", [](double x, double y) { return x * y; },
      [](const Decimal& x, const Decimal& y) { return x.Mul(y); },
      [](int64_t x, int64_t y, int64_t* r) {
        return __builtin_mul_overflow(x, y, r);
      });
}

Result<Value> NumericDiv(const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::InvalidArgument("cannot divide non-numeric values");
  }
  if (a.type() == TypeId::kDouble || b.type() == TypeId::kDouble) {
    double d = b.AsDouble();
    if (d == 0.0) return Status::InvalidArgument("division by zero");
    return Value::Double(a.AsDouble() / d);
  }
  Decimal y = ToDecimal(b);
  if (y.units() == 0) return Status::InvalidArgument("division by zero");
  MTB_ASSIGN_OR_RETURN(Decimal q, ToDecimal(a).Div(y));
  return Value::Dec(q);
}

Result<const Value*> EvalOperand(const BoundExpr& e, RowView row,
                                 ExecContext* ctx, Value* tmp) {
  switch (e.kind) {
    case BoundExpr::Kind::kLiteral:
      return &e.literal;
    case BoundExpr::Kind::kSlot:
      return &row[static_cast<size_t>(e.slot)];
    case BoundExpr::Kind::kOuterSlot: {
      const size_t n = ctx->outer_stack.size();
      if (static_cast<size_t>(e.depth) > n) {
        return Status::Internal("outer reference beyond execution stack");
      }
      return &ctx->outer_stack[n - static_cast<size_t>(e.depth)]
                              [static_cast<size_t>(e.slot)];
    }
    case BoundExpr::Kind::kParam:
      if (ctx->params == nullptr ||
          static_cast<size_t>(e.param_index) > ctx->params->size()) {
        return Status::Internal("parameter $" + std::to_string(e.param_index) +
                                " not bound");
      }
      return &(*ctx->params)[static_cast<size_t>(e.param_index - 1)];
    default: {
      MTB_ASSIGN_OR_RETURN(*tmp, EvalExpr(e, row, ctx));
      return tmp;
    }
  }
}

Status EvalInto(const BoundExpr& e, RowView row, ExecContext* ctx,
                Value* out) {
  MTB_ASSIGN_OR_RETURN(const Value* v, EvalOperand(e, row, ctx, out));
  if (v != out) *out = *v;
  return Status::OK();
}

namespace {

Result<Value> EvalBinary(const BoundExpr& e, RowView row, ExecContext* ctx) {
  Value ta, tb;
  // AND / OR use Kleene logic with short circuit.
  if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
    MTB_ASSIGN_OR_RETURN(const Value* a,
                         EvalOperand(*e.args[0], row, ctx, &ta));
    bool is_and = e.bin_op == BinOp::kAnd;
    if (!a->is_null() && IsTrue(*a) != is_and) return Value::Bool(!is_and);
    MTB_ASSIGN_OR_RETURN(const Value* b,
                         EvalOperand(*e.args[1], row, ctx, &tb));
    if (!b->is_null() && IsTrue(*b) != is_and) return Value::Bool(!is_and);
    if (a->is_null() || b->is_null()) return NullV();
    return Value::Bool(is_and);
  }
  MTB_ASSIGN_OR_RETURN(const Value* pa, EvalOperand(*e.args[0], row, ctx, &ta));
  MTB_ASSIGN_OR_RETURN(const Value* pb, EvalOperand(*e.args[1], row, ctx, &tb));
  const Value& a = *pa;
  const Value& b = *pb;
  switch (e.bin_op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      if (a.is_null() || b.is_null()) return NullV();
      MTB_ASSIGN_OR_RETURN(int c, a.Compare(b));
      switch (e.bin_op) {
        case BinOp::kEq: return Value::Bool(c == 0);
        case BinOp::kNe: return Value::Bool(c != 0);
        case BinOp::kLt: return Value::Bool(c < 0);
        case BinOp::kLe: return Value::Bool(c <= 0);
        case BinOp::kGt: return Value::Bool(c > 0);
        default: return Value::Bool(c >= 0);
      }
    }
    case BinOp::kAdd:
      if (a.is_null() || b.is_null()) return NullV();
      if (a.type() == TypeId::kDate && b.type() == TypeId::kInt) {
        return Value::Dat(a.date_value().AddDays(static_cast<int>(b.int_value())));
      }
      return NumericAdd(a, b);
    case BinOp::kSub:
      if (a.is_null() || b.is_null()) return NullV();
      if (a.type() == TypeId::kDate && b.type() == TypeId::kInt) {
        return Value::Dat(a.date_value().AddDays(-static_cast<int>(b.int_value())));
      }
      if (a.type() == TypeId::kDate && b.type() == TypeId::kDate) {
        return Value::Int(a.date_value().days() - b.date_value().days());
      }
      return NumericSub(a, b);
    case BinOp::kMul:
      if (a.is_null() || b.is_null()) return NullV();
      return NumericMul(a, b);
    case BinOp::kDiv:
      if (a.is_null() || b.is_null()) return NullV();
      return NumericDiv(a, b);
    case BinOp::kConcat:
      if (a.is_null() || b.is_null()) return NullV();
      return Value::Str(a.ToString() + b.ToString());
    case BinOp::kLike:
    case BinOp::kNotLike: {
      if (a.is_null() || b.is_null()) return NullV();
      if (a.type() != TypeId::kString || b.type() != TypeId::kString) {
        return Status::InvalidArgument("LIKE requires string operands");
      }
      bool m = LikeMatch(a.string_value(), b.string_value());
      return Value::Bool(e.bin_op == BinOp::kLike ? m : !m);
    }
    default:
      return Status::Internal("unhandled binary op");
  }
}

constexpr size_t kMaxBuiltinArgs = 3;

/// [min, max] argument count of a fixed-arity builtin (max at most
/// kMaxBuiltinArgs).
std::pair<size_t, size_t> BuiltinArity(BuiltinFunc f) {
  switch (f) {
    case BuiltinFunc::kSubstring:
      return {2, 3};
    case BuiltinFunc::kDateAddDays:
    case BuiltinFunc::kDateAddMonths:
    case BuiltinFunc::kDateAddYears:
      return {2, 2};
    default:
      return {1, 1};
  }
}

Result<Value> EvalBuiltin(const BoundExpr& e, RowView row, ExecContext* ctx) {
  // The variadic builtins fold their arguments as they evaluate them (all of
  // them, in order, so the first evaluation error still wins).
  if (e.builtin == BuiltinFunc::kConcat) {
    std::string out;
    Value tmp;
    for (const auto& a : e.args) {
      MTB_ASSIGN_OR_RETURN(const Value* v, EvalOperand(*a, row, ctx, &tmp));
      if (!v->is_null()) out += v->ToString();
    }
    return Value::Str(std::move(out));
  }
  if (e.builtin == BuiltinFunc::kCoalesce) {
    Value first;
    Value tmp;
    for (const auto& a : e.args) {
      MTB_ASSIGN_OR_RETURN(const Value* v, EvalOperand(*a, row, ctx, &tmp));
      if (first.is_null()) first = *v;
    }
    return first;
  }
  // The rest take at most kMaxBuiltinArgs arguments, read in place or
  // evaluated into a stack array.
  const auto [min_args, max_args] = BuiltinArity(e.builtin);
  const size_t n = e.args.size();
  if (n < min_args || n > max_args) {
    return Status::InvalidArgument("wrong argument count for a builtin "
                                   "function");
  }
  Value tmps[kMaxBuiltinArgs];
  const Value* args[kMaxBuiltinArgs] = {};
  for (size_t i = 0; i < n; ++i) {
    MTB_ASSIGN_OR_RETURN(args[i], EvalOperand(*e.args[i], row, ctx, &tmps[i]));
  }
  switch (e.builtin) {
    case BuiltinFunc::kSubstring: {
      if (args[0]->is_null() || args[1]->is_null()) return NullV();
      if (args[0]->type() != TypeId::kString ||
          args[1]->type() != TypeId::kInt ||
          (n > 2 && !args[2]->is_null() && args[2]->type() != TypeId::kInt)) {
        return Status::InvalidArgument(
            "SUBSTRING requires a string and integer positions");
      }
      const std::string& s = args[0]->string_value();
      int64_t from = args[1]->int_value();
      int64_t len = n > 2 && !args[2]->is_null()
                        ? args[2]->int_value()
                        : static_cast<int64_t>(s.size());
      int64_t start = from > 1 ? from - 1 : 0;
      if (start >= static_cast<int64_t>(s.size()) || len <= 0) {
        return Value::Str("");
      }
      return Value::Str(s.substr(static_cast<size_t>(start),
                                 static_cast<size_t>(len)));
    }
    case BuiltinFunc::kCharLength:
    case BuiltinFunc::kUpper:
    case BuiltinFunc::kLower: {
      if (args[0]->is_null()) return NullV();
      if (args[0]->type() != TypeId::kString) {
        return Status::InvalidArgument(
            "CHAR_LENGTH, UPPER and LOWER require a string argument");
      }
      const std::string& s = args[0]->string_value();
      if (e.builtin == BuiltinFunc::kCharLength) {
        return Value::Int(static_cast<int64_t>(s.size()));
      }
      return Value::Str(e.builtin == BuiltinFunc::kUpper ? ToUpperCopy(s)
                                                         : ToLowerCopy(s));
    }
    case BuiltinFunc::kAbs: {
      if (args[0]->is_null()) return NullV();
      const Value& v = *args[0];
      if (v.type() == TypeId::kInt) {
        int64_t r = 0;
        if (v.int_value() >= 0) return v;
        if (__builtin_sub_overflow(int64_t{0}, v.int_value(), &r)) {
          return IntOutOfRange();
        }
        return Value::Int(r);
      }
      if (v.type() == TypeId::kDouble) {
        return Value::Double(std::abs(v.double_value()));
      }
      if (v.type() == TypeId::kDecimal) {
        const Decimal& d = v.decimal_value();
        if (d.units() >= 0) return v;
        MTB_ASSIGN_OR_RETURN(Decimal abs, d.Neg());
        return Value::Dec(abs);
      }
      return Status::InvalidArgument("ABS requires a numeric argument");
    }
    case BuiltinFunc::kDateAddDays:
    case BuiltinFunc::kDateAddMonths:
    case BuiltinFunc::kDateAddYears: {
      if (args[0]->is_null() || args[1]->is_null()) return NullV();
      if (args[0]->type() != TypeId::kDate || args[1]->type() != TypeId::kInt) {
        return Status::InvalidArgument("interval arithmetic requires a date");
      }
      int n_units = static_cast<int>(args[1]->int_value());
      Date d = args[0]->date_value();
      if (e.builtin == BuiltinFunc::kDateAddDays) {
        return Value::Dat(d.AddDays(n_units));
      }
      if (e.builtin == BuiltinFunc::kDateAddMonths) {
        return Value::Dat(d.AddMonths(n_units));
      }
      return Value::Dat(d.AddYears(n_units));
    }
    case BuiltinFunc::kExtractYear:
    case BuiltinFunc::kExtractMonth:
    case BuiltinFunc::kExtractDay: {
      if (args[0]->is_null()) return NullV();
      if (args[0]->type() != TypeId::kDate) {
        return Status::InvalidArgument("EXTRACT requires a date");
      }
      const Date& d = args[0]->date_value();
      if (e.builtin == BuiltinFunc::kExtractYear) return Value::Int(d.year());
      if (e.builtin == BuiltinFunc::kExtractMonth) return Value::Int(d.month());
      return Value::Int(d.day());
    }
    case BuiltinFunc::kConcat:
    case BuiltinFunc::kCoalesce:
      break;  // handled above
  }
  return Status::Internal("unhandled builtin");
}

Result<RowBatch> ExecuteSubqueryPerRow(const BoundExpr& e, RowView row,
                                       ExecContext* ctx) {
  ctx->stats->subquery_execs++;
  ctx->outer_stack.push_back(row);
  auto rows = ExecutePlan(*e.subplan, ctx);
  ctx->outer_stack.pop_back();
  return rows;
}

/// The single value of a scalar sub-query's result (NULL when empty).
Result<Value> ScalarResult(const RowBatch& rows) {
  if (rows.size() > 1) {
    return Status::InvalidArgument("scalar sub-query returned more than one row");
  }
  return rows.empty() ? Value::Null() : rows[0][0];
}

Result<Value> EvalScalarSub(const BoundExpr& e, RowView row,
                            ExecContext* ctx) {
  const Plan* key = e.subplan.get();
  if (!e.correlated) {
    auto it = ctx->scalar_cache.find(key);
    if (it != ctx->scalar_cache.end()) return it->second;
    ctx->stats->initplan_execs++;
    MTB_ASSIGN_OR_RETURN(auto rows, ExecutePlan(*e.subplan, ctx));
    MTB_ASSIGN_OR_RETURN(Value v, ScalarResult(rows));
    ctx->scalar_cache[key] = v;
    return v;
  }
  MTB_ASSIGN_OR_RETURN(auto rows, ExecuteSubqueryPerRow(e, row, ctx));
  return ScalarResult(rows);
}

/// An IN sub-query's result as a lookup set (rows with a NULL go to
/// null_tuples instead).
ExecContext::InSetCache BuildInSet(RowBatch rows) {
  ExecContext::InSetCache built;
  const size_t width = rows.width();
  built.set = KeyIndex(width, rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    Value* r = rows.row_data(i);
    if (std::any_of(r, r + width, [](const Value& v) { return v.is_null(); })) {
      built.null_tuples.insert(built.null_tuples.end(),
                               std::make_move_iterator(r),
                               std::make_move_iterator(r + width));
    } else {
      built.set.FindOrInsert(r, HashRow(r, width));
    }
  }
  return built;
}

/// Whether the row comparison needle = tuple (n components each) is TRUE or
/// NULL rather than FALSE: no pair of non-NULL components differs.
bool RowMayEqual(const Value* needle, const Value* tuple, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!needle[i].is_null() && !tuple[i].is_null() &&
        !needle[i].StructuralEquals(tuple[i])) {
      return false;
    }
  }
  return true;
}

/// Whether some tuple of the `n`-wide flat array `tuples` may equal `needle`.
bool AnyRowMayEqual(const Value* needle, const std::vector<Value>& tuples,
                    size_t n) {
  for (size_t i = 0; i < tuples.size(); i += n) {
    if (RowMayEqual(needle, tuples.data() + i, n)) return true;
  }
  return false;
}

Result<Value> EvalInSet(const BoundExpr& e, RowView row, ExecContext* ctx) {
  const size_t n = e.args.size();
  InlineValues needle_buf(n);
  Value* needle = needle_buf.data();
  MTB_ASSIGN_OR_RETURN(bool needle_null,
                       EvalKeys(e.args.data(), n, row, ctx, needle));
  const ExecContext::InSetCache* cache = nullptr;
  ExecContext::InSetCache local;
  if (!e.correlated) {
    auto it = ctx->inset_cache.find(e.subplan.get());
    if (it == ctx->inset_cache.end()) {
      ctx->stats->initplan_execs++;
      MTB_ASSIGN_OR_RETURN(auto rows, ExecutePlan(*e.subplan, ctx));
      it = ctx->inset_cache.emplace(e.subplan.get(), BuildInSet(std::move(rows)))
               .first;
    }
    cache = &it->second;
  } else {
    MTB_ASSIGN_OR_RETURN(auto rows, ExecuteSubqueryPerRow(e, row, ctx));
    local = BuildInSet(std::move(rows));
    cache = &local;
  }
  const KeyIndex& set = cache->set;
  if (set.width() != n) {
    return Status::Internal("IN sub-query width differs from its needle");
  }
  // SQL's row comparison: TRUE when some tuple equals the needle; else NULL
  // when some tuple may (no non-NULL pair differs); else FALSE. Only a needle
  // with a NULL, or a miss beside NULL-holding tuples, scans linearly.
  const bool found =
      !needle_null && set.Find(needle, HashRow(needle, n)) != KeyIndex::kNone;
  bool unknown = false;
  if (!found) {
    unknown = AnyRowMayEqual(needle, cache->null_tuples, n);
    for (size_t id = 0; needle_null && !unknown && id < set.size(); ++id) {
      unknown = RowMayEqual(needle, set.key(id), n);
    }
  }
  if (unknown) return NullV();
  return Value::Bool(found != e.negated);
}

}  // namespace

Result<Value> EvalExpr(const BoundExpr& e, RowView row, ExecContext* ctx) {
  switch (e.kind) {
    case BoundExpr::Kind::kLiteral:
    case BoundExpr::Kind::kSlot:
    case BoundExpr::Kind::kOuterSlot:
    case BoundExpr::Kind::kParam: {
      // A leaf is read in place and never evaluated into a temporary.
      MTB_ASSIGN_OR_RETURN(const Value* v, EvalOperand(e, row, ctx, nullptr));
      return *v;
    }
    case BoundExpr::Kind::kNot: {
      Value tmp;
      MTB_ASSIGN_OR_RETURN(const Value* v,
                           EvalOperand(*e.args[0], row, ctx, &tmp));
      if (v->is_null()) return NullV();
      return Value::Bool(!IsTrue(*v));
    }
    case BoundExpr::Kind::kNeg: {
      Value tmp;
      MTB_ASSIGN_OR_RETURN(const Value* pv,
                           EvalOperand(*e.args[0], row, ctx, &tmp));
      const Value& v = *pv;
      if (v.is_null()) return NullV();
      if (v.type() == TypeId::kInt) {
        int64_t r = 0;
        if (__builtin_sub_overflow(int64_t{0}, v.int_value(), &r)) {
          return IntOutOfRange();
        }
        return Value::Int(r);
      }
      if (v.type() == TypeId::kDouble) return Value::Double(-v.double_value());
      if (v.type() == TypeId::kDecimal) {
        MTB_ASSIGN_OR_RETURN(Decimal neg, v.decimal_value().Neg());
        return Value::Dec(neg);
      }
      return Status::InvalidArgument("cannot negate non-numeric value");
    }
    case BoundExpr::Kind::kBinary:
      return EvalBinary(e, row, ctx);
    case BoundExpr::Kind::kBuiltin:
      return EvalBuiltin(e, row, ctx);
    case BoundExpr::Kind::kUdfCall:
      return EvalUdfCall(e, row, ctx);
    case BoundExpr::Kind::kCase: {
      Value tmp;
      for (size_t i = 0; i + 1 < e.args.size(); i += 2) {
        MTB_ASSIGN_OR_RETURN(const Value* c,
                             EvalOperand(*e.args[i], row, ctx, &tmp));
        if (IsTrue(*c)) return EvalExpr(*e.args[i + 1], row, ctx);
      }
      if (e.else_expr) return EvalExpr(*e.else_expr, row, ctx);
      return NullV();
    }
    case BoundExpr::Kind::kInList: {
      Value tmp;
      MTB_ASSIGN_OR_RETURN(const Value* needle,
                           EvalOperand(*e.args[0], row, ctx, &tmp));
      if (needle->is_null()) return NullV();
      bool saw_null = false;
      bool found = false;
      Value item_tmp;
      for (size_t i = 1; i < e.args.size() && !found; ++i) {
        MTB_ASSIGN_OR_RETURN(const Value* v,
                             EvalOperand(*e.args[i], row, ctx, &item_tmp));
        if (v->is_null()) {
          saw_null = true;
          continue;
        }
        auto c = needle->Compare(*v);
        if (c.ok() && c.value() == 0) found = true;
      }
      Value result = found ? Value::Bool(true)
                           : (saw_null ? NullV() : Value::Bool(false));
      if (e.negated) {
        if (result.is_null()) return result;
        return Value::Bool(!result.bool_value());
      }
      return result;
    }
    case BoundExpr::Kind::kInSet:
      return EvalInSet(e, row, ctx);
    case BoundExpr::Kind::kExistsSub: {
      bool exists;
      if (!e.correlated) {
        auto it = ctx->scalar_cache.find(e.subplan.get());
        if (it != ctx->scalar_cache.end()) {
          exists = IsTrue(it->second);
        } else {
          ctx->stats->initplan_execs++;
          MTB_ASSIGN_OR_RETURN(auto rows, ExecutePlan(*e.subplan, ctx));
          exists = !rows.empty();
          ctx->scalar_cache[e.subplan.get()] = Value::Bool(exists);
        }
      } else {
        MTB_ASSIGN_OR_RETURN(auto rows, ExecuteSubqueryPerRow(e, row, ctx));
        exists = !rows.empty();
      }
      return Value::Bool(e.negated ? !exists : exists);
    }
    case BoundExpr::Kind::kScalarSub:
      return EvalScalarSub(e, row, ctx);
    case BoundExpr::Kind::kBetween: {
      Value tmp, lo_tmp, hi_tmp;
      MTB_ASSIGN_OR_RETURN(const Value* x,
                           EvalOperand(*e.args[0], row, ctx, &tmp));
      MTB_ASSIGN_OR_RETURN(const Value* lo,
                           EvalOperand(*e.args[1], row, ctx, &lo_tmp));
      MTB_ASSIGN_OR_RETURN(const Value* hi,
                           EvalOperand(*e.args[2], row, ctx, &hi_tmp));
      if (x->is_null() || lo->is_null() || hi->is_null()) return NullV();
      MTB_ASSIGN_OR_RETURN(int c1, x->Compare(*lo));
      MTB_ASSIGN_OR_RETURN(int c2, x->Compare(*hi));
      bool in = c1 >= 0 && c2 <= 0;
      return Value::Bool(e.negated ? !in : in);
    }
    case BoundExpr::Kind::kIsNull: {
      Value tmp;
      MTB_ASSIGN_OR_RETURN(const Value* v,
                           EvalOperand(*e.args[0], row, ctx, &tmp));
      bool isn = v->is_null();
      return Value::Bool(e.negated ? !isn : isn);
    }
  }
  return Status::Internal("unhandled bound expression kind");
}

Result<bool> EvalKeys(const BoundExprPtr* keys, size_t n, RowView row,
                      ExecContext* ctx, Value* out) {
  bool any_null = false;
  for (size_t k = 0; k < n; ++k) {
    MTB_RETURN_IF_ERROR(EvalInto(*keys[k], row, ctx, &out[k]));
    any_null = any_null || out[k].is_null();
  }
  return any_null;
}

namespace {

bool ConcatOutput(const Plan& p) {
  return p.join_kind == JoinKind::kInner || p.join_kind == JoinKind::kLeft;
}

/// Append concat(l, r) restricted to the join's emitted slots (Plan::emit);
/// a null `r` reads NULL for every right slot.
void AppendJoinOutput(const Plan& p, RowView l, const RowView* r,
                      RowBatch* out) {
  if (p.emit) {
    for (int slot : *p.emit) {
      const size_t s = static_cast<size_t>(slot);
      if (s < l.size()) {
        out->Push(l[s]);
      } else if (r != nullptr) {
        out->Push((*r)[s - l.size()]);
      } else {
        out->Push(Value());
      }
    }
  } else {
    for (const Value& v : l) out->Push(v);
    for (size_t s = l.size(); s < out->width(); ++s) {
      if (r != nullptr) {
        out->Push((*r)[s - l.size()]);
      } else {
        out->Push(Value());
      }
    }
  }
  out->EndRow();
}

}  // namespace

size_t JoinOutputWidth(const Plan& p, size_t left_width, size_t right_width) {
  if (p.emit) return p.emit->size();
  return left_width + (ConcatOutput(p) ? right_width : 0);
}

Result<bool> JoinPair(const Plan& p, RowView l, RowView r, ExecContext* ctx,
                      Row* scratch, RowBatch* out) {
  ctx->stats->rows_joined++;
  if (p.residual) {
    scratch->assign(l.begin(), l.end());
    scratch->insert(scratch->end(), r.begin(), r.end());
    MTB_ASSIGN_OR_RETURN(Value v, EvalExpr(*p.residual, *scratch, ctx));
    if (!IsTrue(v)) return false;
    if (ConcatOutput(p) && !p.emit) {
      out->AppendMoved(scratch->data());  // the output row is the concat row
      return true;
    }
  }
  if (ConcatOutput(p)) AppendJoinOutput(p, l, &r, out);
  return true;
}

void JoinFinishLeft(const Plan& p, RowView l, bool matched, RowBatch* out) {
  const bool keep = p.join_kind == JoinKind::kSemi
                        ? matched
                        : (p.join_kind == JoinKind::kLeft ||
                           p.join_kind == JoinKind::kAnti) &&
                              !matched;
  if (keep) AppendJoinOutput(p, l, nullptr, out);
}

namespace {

/// The statement's shared-cache epoch (see ExecContext::shared_udf_epoch),
/// pinning the UDF body tables on first use. Pins are per statement and
/// first-wins, so every worker context folds the same versions.
const UdfCacheEpoch& SharedUdfEpoch(ExecContext* ctx) {
  if (!ctx->shared_udf_epoch_pinned && ctx->udf_read_tables != nullptr) {
    uint64_t data = 0;
    for (const Table* t : *ctx->udf_read_tables) {
      data = UdfCacheEpoch::FoldData(data,
                                     PinnedVersion(ctx, *t).data_version());
    }
    ctx->shared_udf_epoch.data = data;
  }
  ctx->shared_udf_epoch_pinned = true;
  return ctx->shared_udf_epoch;
}

/// Runs `udf` on args[0..n), which it may move from.
Result<Value> EvalUdf(const Udf& udf, Value* args, size_t n, ExecContext* ctx) {
  // Per-statement (serial) / per-worker (parallel) result cache for
  // non-volatile UDFs; the shared cross-statement dictionary cache
  // additionally requires IMMUTABLE (STABLE only promises stability within
  // one statement). The System C profile cannot declare determinism, so it
  // never caches (paper Appendix C).
  const bool cacheable =
      ctx->profile == DbmsProfile::kPostgres && udf.statement_cacheable();
  const bool shared_cacheable = cacheable && udf.immutable() &&
                                ctx->shared_udf_cache != nullptr;
  // The key names the function by its Udf address. That is exact: functions
  // are never dropped or replaced in place, and every CREATE FUNCTION moves
  // the registry version, part of the shared cache's compilation epoch.
  std::string& key = ctx->udf_key;
  if (cacheable) {
    EncodeUdfCallKey(&udf, args, n, &key);
    auto it = ctx->udf_cache.find(key);
    if (it != ctx->udf_cache.end()) {
      ctx->stats->udf_cache_hits++;
      return it->second;
    }
    if (shared_cacheable) {
      Value v;
      if (ctx->shared_udf_cache->Lookup(SharedUdfEpoch(ctx), key, &v)) {
        ctx->stats->udf_cache_hits++;
        ctx->stats->udf_shared_cache_hits++;
        ctx->udf_cache.emplace(key, v);
        return v;
      }
    }
    ctx->stats->udf_cache_misses++;
  }
  if (udf.body_plan == nullptr) {
    return Status::InvalidArgument("function " + udf.name +
                                   " references dropped objects; recreate it");
  }
  ctx->stats->udf_calls++;
  if (ctx->in_parallel_worker) ctx->stats->udf_parallel_evals++;
  const std::vector<Value> params(std::make_move_iterator(args),
                                  std::make_move_iterator(args + n));
  const std::vector<Value>* saved = ctx->params;
  // UDF bodies execute un-profiled: their plans are not part of the rendered
  // EXPLAIN tree (the invoking operator's [actual: udf=...] accounts for
  // them), and skipping per-node instrumentation here bounds the ANALYZE
  // overhead on conversion-heavy plans.
  obs::PlanProfiler* saved_profiler = ctx->profiler;
  obs::OpProfile* saved_op = ctx->current_op;
  ctx->profiler = nullptr;
  ctx->current_op = nullptr;
  ctx->params = &params;
  auto rows = ExecutePlan(*udf.body_plan, ctx);
  ctx->params = saved;
  ctx->profiler = saved_profiler;
  ctx->current_op = saved_op;
  if (!rows.ok()) return rows.status();
  Value result =
      rows.value().empty() ? Value::Null() : rows.value()[0][0];
  if (cacheable) {
    // UDF calls inside the body reused ctx->udf_key: encode ours again.
    EncodeUdfCallKey(&udf, params.data(), n, &key);
    ctx->udf_cache.emplace(key, result);
    if (shared_cacheable) {
      ctx->shared_udf_cache->Insert(SharedUdfEpoch(ctx), key, result);
    }
  }
  return result;
}

/// A UDF call site: arguments are evaluated into InlineValues, so a cache
/// hit allocates nothing. Kept out of EvalExpr so the array does not widen
/// every recursive EvalExpr frame.
Result<Value> EvalUdfCall(const BoundExpr& e, RowView row, ExecContext* ctx) {
  const size_t n = e.args.size();
  InlineValues args(n);
  for (size_t i = 0; i < n; ++i) {
    MTB_RETURN_IF_ERROR(EvalInto(*e.args[i], row, ctx, &args.data()[i]));
  }
  return EvalUdf(*e.udf, args.data(), n, ctx);
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// The candidate row ids of table scan `p` over its pinned `version`, in
/// ascending (insertion) order so the output matches a full scan's: the
/// surviving partitions' rows of a pruned scan, or an ordered-index scan's
/// matches — a binary search of the index's row-id permutation per equality
/// key; the full scan filter is re-applied to them all, since the lookup is
/// a superset cut, not a filter replacement. Fills and returns `cand`, or
/// returns null for a scan of every row.
Result<const std::vector<uint32_t>*> ScanCandidates(
    const Plan& p, ExecContext* ctx, const TableVersion& version,
    std::vector<uint32_t>* cand) {
  if (p.kind == Plan::Kind::kIndexScan) {
    const TableIndex* ix = p.table->FindIndex(p.index_name);
    if (ix == nullptr) {
      return Status::Internal("index " + p.index_name +
                              " disappeared under a compiled plan");
    }
    const VersionRows& rows = version.rows();
    const std::vector<uint32_t>& order = version.IndexOrder(*ix);
    const size_t slot = static_cast<size_t>(ix->slots[0]);
    for (int64_t k : p.index_keys) {
      const Value key = Value::Int(k);
      auto lo = std::lower_bound(order.begin(), order.end(), key,
                                 [&](uint32_t id, const Value& v) {
                                   return IndexKeyCompare(rows[id][slot], v) <
                                          0;
                                 });
      auto hi = std::upper_bound(lo, order.end(), key,
                                 [&](const Value& v, uint32_t id) {
                                   return IndexKeyCompare(v, rows[id][slot]) <
                                          0;
                                 });
      cand->insert(cand->end(), lo, hi);
    }
    std::sort(cand->begin(), cand->end());
    ctx->stats->index_scans += 1;
    ctx->stats->index_rows_skipped += rows.size() - cand->size();
    return cand;
  }
  if (!p.pruned) return nullptr;
  version.AppendPartitionRows(p.partitions, cand);
  ctx->stats->partitions_pruned +=
      static_cast<size_t>(p.table->partition().Count()) - p.partitions.size();
  return cand;
}

/// Workers for scan `p` over `candidates` (null = every row of `version`).
/// Index scans stay serial (not parallel-safe).
int ScanWorkers(const Plan& p, const TableVersion& version,
                const std::vector<uint32_t>* candidates,
                const ExecContext& ctx) {
  return parallel::PlanWorkers(
      p, candidates != nullptr ? candidates->size() : version.rows().size(),
      ctx);
}

/// Scan or index scan into a batch of its emitted slots.
Result<RowBatch> ExecScan(const Plan& p, ExecContext* ctx) {
  if (p.table == nullptr) return parallel::ScanExec(p, ctx, 1);
  const TableVersion& version = PinnedVersion(ctx, *p.table);
  std::vector<uint32_t> cand;
  MTB_ASSIGN_OR_RETURN(const std::vector<uint32_t>* candidates,
                       ScanCandidates(p, ctx, version, &cand));
  return parallel::ScanExec(p, ctx, ScanWorkers(p, version, candidates, *ctx),
                            candidates);
}

/// Null-aware anti join (decorrelated NOT IN). Keys are split: the first
/// `naaj_in_keys` pairs form the IN tuple, the rest are correlation keys.
/// A left row survives iff its correlation group is empty, or the needle
/// IN the group's tuples is FALSE under SQL's row comparison (see
/// EvalInSet): no tuple equals it and none may.
Result<RowBatch> ExecNullAwareAntiJoin(const Plan& p, ExecContext* ctx,
                                       const RowBatch& left_rows,
                                       const RowBatch& right_rows) {
  const size_t n_in = p.naaj_in_keys;
  const size_t n_corr = p.right_keys.size() - n_in;
  // Correlation keys → group id; the (group id, IN-tuple) pairs without a
  // NULL component; and, per group, chains through its distinct such tuples
  // (by tuple id) and through its NULL-holding tuples (n_in values each in
  // null_tuples), which only a NULL needle or a miss has to scan.
  KeyIndex groups(n_corr);
  KeyIndex tuples(1 + n_in, right_rows.size());
  std::vector<size_t> first_tuple, first_null;  // per group
  std::vector<size_t> next_tuple;               // per tuple id
  std::vector<Value> null_tuples;
  std::vector<size_t> next_null;                // per NULL-holding tuple
  std::vector<Value> corr(n_corr);
  std::vector<Value> tup(1 + n_in);  // (group id, IN-tuple)
  for (size_t i = 0; i < right_rows.size(); ++i) {
    const RowView r = right_rows[i];
    MTB_ASSIGN_OR_RETURN(bool corr_null,
                         EvalKeys(p.right_keys.data() + n_in, n_corr, r, ctx,
                                  corr.data()));
    // A NULL correlation key never equals any outer value, so the row
    // belongs to no group.
    if (corr_null) continue;
    MTB_ASSIGN_OR_RETURN(bool tup_null,
                         EvalKeys(p.right_keys.data(), n_in, r, ctx,
                                  tup.data() + 1));
    const KeyIndex::Lookup g = groups.FindOrInsert(corr.data(), HashRow(corr));
    if (g.inserted) {
      first_tuple.push_back(KeyIndex::kNone);
      first_null.push_back(KeyIndex::kNone);
    }
    if (tup_null) {
      next_null.push_back(first_null[g.id]);
      first_null[g.id] = next_null.size() - 1;
      null_tuples.insert(null_tuples.end(), tup.begin() + 1, tup.end());
      continue;
    }
    tup[0] = Value::Int(static_cast<int64_t>(g.id));
    const KeyIndex::Lookup t = tuples.FindOrInsert(tup.data(), HashRow(tup));
    if (t.inserted) {
      next_tuple.push_back(first_tuple[g.id]);
      first_tuple[g.id] = t.id;
    }
  }
  RowBatch out(JoinOutputWidth(p, left_rows.width(), right_rows.width()));
  for (size_t i = 0; i < left_rows.size(); ++i) {
    const RowView l = left_rows[i];
    MTB_ASSIGN_OR_RETURN(bool corr_null,
                         EvalKeys(p.left_keys.data() + n_in, n_corr, l, ctx,
                                  corr.data()));
    const size_t g = corr_null ? KeyIndex::kNone
                               : groups.Find(corr.data(), HashRow(corr));
    if (g == KeyIndex::kNone) {
      // Empty set: NOT IN () is TRUE for any needle, even NULL.
      JoinFinishLeft(p, l, /*matched=*/false, &out);
      continue;
    }
    MTB_ASSIGN_OR_RETURN(bool needle_null,
                         EvalKeys(p.left_keys.data(), n_in, l, ctx,
                                  tup.data() + 1));
    ctx->stats->rows_joined++;
    const Value* needle = tup.data() + 1;
    tup[0] = Value::Int(static_cast<int64_t>(g));
    if (!needle_null &&
        tuples.Find(tup.data(), HashRow(tup)) != KeyIndex::kNone) {
      continue;  // IN is TRUE
    }
    bool unknown = false;
    for (size_t t = first_null[g]; !unknown && t != KeyIndex::kNone;
         t = next_null[t]) {
      unknown = RowMayEqual(needle, null_tuples.data() + t * n_in, n_in);
    }
    for (size_t t = first_tuple[g];
         needle_null && !unknown && t != KeyIndex::kNone; t = next_tuple[t]) {
      unknown = RowMayEqual(needle, tuples.key(t) + 1, n_in);
    }
    if (!unknown) JoinFinishLeft(p, l, /*matched=*/false, &out);
  }
  return out;
}

Result<RowBatch> ExecJoin(const Plan& p, ExecContext* ctx) {
  if (p.decorrelated_from != SubqueryOrigin::kNone) {
    ctx->stats->decorrelated_execs++;
  }
  MTB_ASSIGN_OR_RETURN(auto left_rows, ExecutePlan(*p.left, ctx));
  if (left_rows.empty() && p.join_kind != JoinKind::kInner) {
    // Left/semi/anti joins with an empty outer side produce nothing; inner
    // join also produces nothing but we keep the uniform path below.
    return RowBatch(JoinOutputWidth(p, left_rows.width(),
                                    p.right->columns.size()));
  }
  MTB_ASSIGN_OR_RETURN(auto right_rows, ExecutePlan(*p.right, ctx));
  if (p.null_aware && p.join_kind == JoinKind::kAnti) {
    return ExecNullAwareAntiJoin(p, ctx, left_rows, right_rows);
  }
  if (!p.left_keys.empty()) {
    // Hash join (single code path for serial and morsel-parallel execution).
    int workers = parallel::PlanWorkers(
        p, std::max(left_rows.size(), right_rows.size()), *ctx);
    return parallel::HashJoinExec(p, ctx, std::move(left_rows),
                                  std::move(right_rows), workers);
  }

  // Nested-loop join (cross product with optional residual).
  const bool existence_only =
      p.join_kind == JoinKind::kSemi || p.join_kind == JoinKind::kAnti;
  RowBatch out(JoinOutputWidth(p, left_rows.width(), right_rows.width()));
  Row scratch;
  for (size_t i = 0; i < left_rows.size(); ++i) {
    const RowView l = left_rows[i];
    bool matched = false;
    for (size_t j = 0; j < right_rows.size(); ++j) {
      MTB_ASSIGN_OR_RETURN(
          bool m, JoinPair(p, l, right_rows[j], ctx, &scratch, &out));
      matched = matched || m;
      if (m && existence_only) break;
    }
    JoinFinishLeft(p, l, matched, &out);
  }
  return out;
}

/// DISTINCT: the first occurrence of each row (NULL equals NULL), in input
/// order — the index's keys in id order.
RowBatch DistinctRows(RowBatch rows) {
  const size_t width = rows.width();
  KeyIndex seen(width, rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    Value* r = rows.row_data(i);
    seen.FindOrInsert(r, HashRow(r, width));
  }
  RowBatch out(width);
  out.Reserve(seen.size());
  for (size_t id = 0; id < seen.size(); ++id) out.AppendMoved(seen.key(id));
  return out;
}

/// EXPLAIN (ANALYZE) instrumentation of one execution of plan node `plan`:
/// while it is open, the node is `ctx->current_op`; Close records its
/// OpProfile. Inclusive semantics — wall/CPU and counter deltas cover
/// everything run in between, children included; the renderer subtracts
/// children where an exclusive figure reads better. CPU is the statement
/// thread's own thread-CPU delta (which includes executing children on this
/// thread, and region worker 0) plus the pool-worker CPU RunPoolProfiled
/// accumulated into `ctx->child_cpu_nanos` meanwhile. Inert without a
/// profiler.
class ProfiledOp {
 public:
  ProfiledOp(const Plan& plan, ExecContext* ctx) : ctx_(ctx) {
    if (ctx->profiler == nullptr) return;
    prof_ = ctx->profiler->Profile(&plan);
    saved_op_ = ctx->current_op;
    ctx->current_op = prof_;
    before_ = *ctx->stats;
    pool_cpu_before_ = ctx->child_cpu_nanos;
    cpu_before_ = obs::ThreadCpuNanos();
    t0_ = std::chrono::steady_clock::now();
  }
  ProfiledOp(const ProfiledOp&) = delete;
  ProfiledOp& operator=(const ProfiledOp&) = delete;

  /// Record the execution, which produced `rows_out` rows.
  void Close(size_t rows_out) {
    if (prof_ == nullptr) return;
    prof_->wall_nanos += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
    prof_->cpu_nanos += (obs::ThreadCpuNanos() - cpu_before_) +
                        (ctx_->child_cpu_nanos - pool_cpu_before_);
    ctx_->current_op = saved_op_;
    prof_->executions++;
    const ExecStats d = *ctx_->stats - before_;
    prof_->rows_scanned += d.rows_scanned;
    prof_->morsels += d.parallel_morsels;
    prof_->udf_calls += d.udf_calls;
    prof_->udf_cache_hits += d.udf_cache_hits;
    prof_->rows_out += rows_out;
  }

 private:
  ExecContext* ctx_;
  obs::OpProfile* prof_ = nullptr;
  obs::OpProfile* saved_op_ = nullptr;
  ExecStats before_;
  uint64_t pool_cpu_before_ = 0;
  uint64_t cpu_before_ = 0;
  std::chrono::steady_clock::time_point t0_;
};

/// An Aggregate over a table scan (AggregatesScanInPlace): the scan builds
/// its candidates and selects the rows its filter keeps — profiled as the
/// Scan node, so EXPLAIN (ANALYZE) shows its rows, removed= and the
/// selection's time= — and the Aggregate folds those rows where they lie in
/// the pinned version. No scan batch is built. Selection morsels, fold
/// chunks and worker counts are the ones the scan and the Aggregate would
/// use over a batch, so results and counters do not change.
Result<RowBatch> ExecAggregateOverScan(const Plan& plan, ExecContext* ctx) {
  const Plan& scan = *plan.left;
  const TableVersion& version = PinnedVersion(ctx, *scan.table);
  std::vector<uint32_t> cand;
  std::vector<uint32_t> kept;
  ProfiledOp op(scan, ctx);
  Result<const std::vector<uint32_t>*> ids =
      ScanCandidates(scan, ctx, version, &cand);
  if (ids.ok()) {
    ids = parallel::SelectScanRows(
        scan, ctx, ScanWorkers(scan, version, ids.value(), *ctx), ids.value(),
        &kept);
  }
  const parallel::AggInput input{nullptr, &version.rows(),
                                 ids.ok() ? ids.value() : nullptr};
  op.Close(ids.ok() ? input.size() : 0);
  MTB_RETURN_IF_ERROR(ids.status());
  return parallel::AggregateExec(
      plan, ctx, input, parallel::PlanWorkers(plan, input.size(), *ctx));
}

}  // namespace

Result<std::vector<uint32_t>> SelectTargetRows(const Plan& target,
                                               ExecContext* ctx) {
  std::vector<const Plan*> filters;  // top first
  const Plan* scan = &target;
  while (scan->kind == Plan::Kind::kFilter) {
    filters.push_back(scan);
    scan = scan->left.get();
  }
  const TableVersion& version = PinnedVersion(ctx, *scan->table);
  std::vector<uint32_t> cand;
  std::vector<uint32_t> kept;
  MTB_ASSIGN_OR_RETURN(const std::vector<uint32_t>* ids,
                       ScanCandidates(*scan, ctx, version, &cand));
  if (!scan->scan_filter || !RowFilter::KeepsNothing(*scan->scan_filter)) {
    ctx->stats->dml_rows_examined +=
        ids != nullptr ? ids->size() : version.rows().size();
  }
  MTB_ASSIGN_OR_RETURN(
      ids, parallel::SelectScanRows(*scan, ctx,
                                    ScanWorkers(*scan, version, ids, *ctx),
                                    ids, &kept));
  std::vector<uint32_t> rows;
  if (ids == nullptr) {
    rows.resize(version.rows().size());
    std::iota(rows.begin(), rows.end(), 0u);
  } else {
    rows = ids == &kept ? std::move(kept) : std::move(cand);
  }
  for (auto it = filters.rbegin(); it != filters.rend(); ++it) {
    const RowFilter filter(*(*it)->predicate);
    std::vector<uint32_t> next;
    MTB_RETURN_IF_ERROR(
        filter.Select(version.rows(), &rows, 0, rows.size(), ctx, &next));
    rows = std::move(next);
  }
  return rows;
}

/// Uninstrumented execution — the plain hot path.
static Result<RowBatch> ExecutePlanImpl(const Plan& plan, ExecContext* ctx) {
  switch (plan.kind) {
    case Plan::Kind::kScan:
    case Plan::Kind::kIndexScan:
      return ExecScan(plan, ctx);
    case Plan::Kind::kJoin:
      return ExecJoin(plan, ctx);
    case Plan::Kind::kAggregate:
      if (AggregatesScanInPlace(plan)) return ExecAggregateOverScan(plan, ctx);
      [[fallthrough]];
    case Plan::Kind::kFilter:
    case Plan::Kind::kProject:
    case Plan::Kind::kSort:
    case Plan::Kind::kTopN: {
      MTB_ASSIGN_OR_RETURN(auto rows, ExecutePlan(*plan.left, ctx));
      const int workers = parallel::PlanWorkers(plan, rows.size(), *ctx);
      switch (plan.kind) {
        case Plan::Kind::kFilter:
          return parallel::FilterExec(plan, ctx, std::move(rows), workers);
        case Plan::Kind::kProject:
          return parallel::ProjectExec(plan, ctx, std::move(rows), workers);
        case Plan::Kind::kAggregate:
          return parallel::AggregateExec(plan, ctx, parallel::AggInput{&rows},
                                         workers);
        case Plan::Kind::kSort:
          return parallel::SortExec(plan, ctx, std::move(rows), workers);
        default:
          return parallel::TopNExec(plan, ctx, std::move(rows), workers);
      }
    }
    case Plan::Kind::kLimit: {
      MTB_ASSIGN_OR_RETURN(auto rows, ExecutePlan(*plan.left, ctx));
      rows.Slice(static_cast<size_t>(plan.offset),
                 static_cast<size_t>(plan.limit));
      return rows;
    }
    case Plan::Kind::kDistinct: {
      MTB_ASSIGN_OR_RETURN(auto rows, ExecutePlan(*plan.left, ctx));
      return DistinctRows(std::move(rows));
    }
  }
  return Status::Internal("unhandled plan kind");
}

/// Instrumented execution for EXPLAIN (ANALYZE): one OpProfile per plan
/// node (see ProfiledOp).
static Result<RowBatch> ExecutePlanProfiled(const Plan& plan,
                                            ExecContext* ctx) {
  ProfiledOp op(plan, ctx);
  auto rows = ExecutePlanImpl(plan, ctx);
  op.Close(rows.ok() ? rows.value().size() : 0);
  return rows;
}

Result<RowBatch> ExecutePlan(const Plan& plan, ExecContext* ctx) {
  if (ctx->profiler == nullptr) return ExecutePlanImpl(plan, ctx);
  return ExecutePlanProfiled(plan, ctx);
}

namespace {

bool ExprHasOuterRefs(const BoundExpr& e) {
  bool found = e.kind == BoundExpr::Kind::kOuterSlot ||
               (e.subplan && PlanHasOuterRefs(*e.subplan));
  ForEachExprChild(e, [&found](const BoundExpr& c) {
    found = found || ExprHasOuterRefs(c);
  });
  return found;
}

}  // namespace

bool PlanHasOuterRefs(const Plan& plan) {
  bool found = false;
  ForEachPlanExpr(plan, [&found](const BoundExpr& e) {
    found = found || ExprHasOuterRefs(e);
  });
  return found || (plan.left && PlanHasOuterRefs(*plan.left)) ||
         (plan.right && PlanHasOuterRefs(*plan.right));
}

}  // namespace engine
}  // namespace mtbase
