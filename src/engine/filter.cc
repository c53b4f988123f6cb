#include "engine/filter.h"

#include "common/str_util.h"

namespace mtbase {
namespace engine {

namespace {

bool IsCompare(BinOp op) {
  return op == BinOp::kEq || op == BinOp::kNe || op == BinOp::kLt ||
         op == BinOp::kLe || op == BinOp::kGt || op == BinOp::kGe;
}

bool CompareHolds(BinOp op, int c) {
  switch (op) {
    case BinOp::kEq: return c == 0;
    case BinOp::kNe: return c != 0;
    case BinOp::kLt: return c < 0;
    case BinOp::kLe: return c <= 0;
    case BinOp::kGt: return c > 0;
    default: return c >= 0;
  }
}

}  // namespace

RowFilter::RowFilter(const BoundExpr& predicate) {
  std::vector<const BoundExpr*> conjuncts;
  CollectConjuncts(predicate, &conjuncts);
  conjuncts_.reserve(conjuncts.size());
  for (const BoundExpr* e : conjuncts) conjuncts_.push_back(Classify(*e));
}

size_t RowFilter::covered() const {
  size_t n = 0;
  for (const Conjunct& c : conjuncts_) n += c.form != Form::kGeneric;
  return n;
}

RowFilter::Conjunct RowFilter::Classify(const BoundExpr& e) {
  using K = BoundExpr::Kind;
  auto operand = [](const BoundExpr& x, Operand* out) {
    if (x.kind == K::kLiteral) {
      out->literal = &x.literal;
      return true;
    }
    if (x.kind == K::kSlot) {
      out->slot = static_cast<size_t>(x.slot);
      return true;
    }
    return false;
  };
  auto is_slot = [](const BoundExpr& x) { return x.kind == K::kSlot; };
  auto is_literal = [](const BoundExpr& x) { return x.kind == K::kLiteral; };

  Conjunct c;
  c.expr = &e;
  c.negated = e.negated;
  switch (e.kind) {
    case K::kLiteral:
      c.form = Form::kConst;
      c.a.literal = &e.literal;
      break;
    case K::kBinary:
      if (IsCompare(e.bin_op) && operand(*e.args[0], &c.a) &&
          operand(*e.args[1], &c.b)) {
        c.form = Form::kCompare;
        c.op = e.bin_op;
      } else if ((e.bin_op == BinOp::kLike || e.bin_op == BinOp::kNotLike) &&
                 is_slot(*e.args[0]) && is_literal(*e.args[1]) &&
                 e.args[1]->literal.type() == TypeId::kString) {
        operand(*e.args[0], &c.a);
        operand(*e.args[1], &c.b);
        c.form = Form::kLike;
        c.negated = e.bin_op == BinOp::kNotLike;
      }
      break;
    case K::kInList: {
      if (!is_slot(*e.args[0])) break;
      bool literals = true;
      for (size_t i = 1; i < e.args.size(); ++i) {
        literals = literals && is_literal(*e.args[i]);
      }
      if (!literals) break;
      operand(*e.args[0], &c.a);
      for (size_t i = 1; i < e.args.size(); ++i) {
        const Value& item = e.args[i]->literal;
        if (item.is_null()) {
          c.null_item = true;
        } else {
          c.items.push_back(&item);
        }
      }
      c.form = Form::kInList;
      break;
    }
    case K::kBetween:
      if (is_slot(*e.args[0]) && is_literal(*e.args[1]) &&
          is_literal(*e.args[2])) {
        operand(*e.args[0], &c.a);
        operand(*e.args[1], &c.b);
        operand(*e.args[2], &c.c);
        c.form = Form::kBetween;
      }
      break;
    case K::kIsNull:
      if (is_slot(*e.args[0])) {
        operand(*e.args[0], &c.a);
        c.form = Form::kIsNull;
      }
      break;
    default:
      break;
  }
  return c;
}

namespace {

/// Three-way compare of two non-NULL values as EvalExpr does it: inline for
/// same-type pairs, Value::Compare (and its error) for the rest.
inline bool CompareInto(const Value& a, const Value& b, int* c,
                        Status* error) {
  if (a.CompareSameType(b, c)) return true;
  Result<int> r = a.Compare(b);
  if (!r.ok()) {
    *error = r.status();
    return false;
  }
  *c = r.value();
  return true;
}

}  // namespace

inline RowFilter::Truth RowFilter::Eval(const Conjunct& c, RowView row,
                                        ExecContext* ctx, Status* error) {
  auto truth = [](bool b) { return b ? Truth::kTrue : Truth::kFalse; };
  switch (c.form) {
    case Form::kCompare: {
      const Value& a = c.a.Read(row);
      const Value& b = c.b.Read(row);
      if (a.is_null() || b.is_null()) return Truth::kNull;
      int cmp = 0;
      if (!CompareInto(a, b, &cmp, error)) return Truth::kError;
      return truth(CompareHolds(c.op, cmp));
    }
    case Form::kInList: {
      const Value& needle = c.a.Read(row);
      if (needle.is_null()) return Truth::kNull;
      bool found = false;
      for (size_t i = 0; i < c.items.size() && !found; ++i) {
        int cmp = 0;
        if (needle.CompareSameType(*c.items[i], &cmp)) {
          found = cmp == 0;
        } else {
          // A list item of another kind never matches (EvalExpr ignores a
          // failed compare here).
          Result<int> r = needle.Compare(*c.items[i]);
          found = r.ok() && r.value() == 0;
        }
      }
      if (!found && c.null_item) return Truth::kNull;
      return truth(found != c.negated);
    }
    case Form::kBetween: {
      const Value& x = c.a.Read(row);
      const Value& lo = c.b.Read(row);
      const Value& hi = c.c.Read(row);
      if (x.is_null() || lo.is_null() || hi.is_null()) return Truth::kNull;
      int c1 = 0, c2 = 0;
      if (!CompareInto(x, lo, &c1, error) || !CompareInto(x, hi, &c2, error)) {
        return Truth::kError;
      }
      return truth((c1 >= 0 && c2 <= 0) != c.negated);
    }
    case Form::kLike: {
      const Value& x = c.a.Read(row);
      if (x.is_null()) return Truth::kNull;
      if (x.type() != TypeId::kString) break;  // EvalExpr reports the error
      return truth(LikeMatch(x.string_value(), c.b.literal->string_value()) !=
                   c.negated);
    }
    case Form::kIsNull:
      return truth(c.a.Read(row).is_null() != c.negated);
    case Form::kConst: {
      const Value& v = *c.a.literal;
      return v.is_null() ? Truth::kNull : truth(IsTrue(v));
    }
    case Form::kGeneric:
      break;
  }
  Result<Value> v = EvalExpr(*c.expr, row, ctx);
  if (!v.ok()) {
    *error = v.status();
    return Truth::kError;
  }
  return v.value().is_null() ? Truth::kNull : truth(IsTrue(v.value()));
}

inline RowFilter::Truth RowFilter::Match(RowView row, ExecContext* ctx,
                                         Status* error) const {
  Truth result = Truth::kTrue;
  for (const Conjunct& c : conjuncts_) {
    switch (Eval(c, row, ctx, error)) {
      case Truth::kFalse:
        return Truth::kFalse;
      case Truth::kError:
        return Truth::kError;
      case Truth::kNull:
        result = Truth::kNull;  // the later conjuncts still run
        break;
      case Truth::kTrue:
        break;
    }
  }
  return result;
}

bool RowFilter::KeepsNothing(const BoundExpr& predicate) {
  const BoundExpr* first = &predicate;
  while (first->kind == BoundExpr::Kind::kBinary &&
         first->bin_op == BinOp::kAnd) {
    first = first->args[0].get();
  }
  return first->kind == BoundExpr::Kind::kLiteral &&
         first->literal.type() == TypeId::kBool && !first->literal.bool_value();
}

Status RowFilter::Select(const VersionRows& rows,
                         const std::vector<uint32_t>* ids, size_t begin,
                         size_t end, ExecContext* ctx,
                         std::vector<uint32_t>* kept) const {
  Status error;
  for (size_t i = begin; i < end; ++i) {
    const uint32_t id = ids != nullptr ? (*ids)[i] : static_cast<uint32_t>(i);
    const Truth t = Match(rows[id], ctx, &error);
    if (t == Truth::kError) return error;
    if (t == Truth::kTrue) kept->push_back(id);
  }
  return Status::OK();
}

Status RowFilter::Select(const RowBatch& rows, size_t begin, size_t end,
                         ExecContext* ctx, std::vector<uint32_t>* kept) const {
  Status error;
  for (size_t i = begin; i < end; ++i) {
    const Truth t = Match(rows[i], ctx, &error);
    if (t == Truth::kError) return error;
    if (t == Truth::kTrue) kept->push_back(static_cast<uint32_t>(i));
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace mtbase
