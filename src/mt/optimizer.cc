#include "mt/optimizer.h"

#include <functional>
#include <set>
#include <unordered_map>

#include "common/str_util.h"
#include "sql/printer.h"

namespace mtbase {
namespace mt {

const char* OptLevelName(OptLevel level) {
  switch (level) {
    case OptLevel::kCanonical:
      return "canonical";
    case OptLevel::kO1:
      return "o1";
    case OptLevel::kO2:
      return "o2";
    case OptLevel::kO3:
      return "o3";
    case OptLevel::kO4:
      return "o4";
    case OptLevel::kInlineOnly:
      return "inl-only";
  }
  return "?";
}

Result<OptLevel> ParseOptLevel(const std::string& name) {
  for (OptLevel l : {OptLevel::kCanonical, OptLevel::kO1, OptLevel::kO2,
                     OptLevel::kO3, OptLevel::kO4, OptLevel::kInlineOnly}) {
    if (EqualsIgnoreCase(name, OptLevelName(l))) return l;
  }
  return Status::InvalidArgument("unknown optimization level " + name);
}

namespace {

bool IsComparisonOp(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

/// The canonical conversion wrapper fromU(toU(x, t), C).
struct WrapMatch {
  const ConversionPair* pair = nullptr;
  sql::Expr* from_call = nullptr;
  sql::Expr* to_call = nullptr;
  sql::Expr* inner = nullptr;
  sql::Expr* ttid = nullptr;
};

bool MatchWrapped(sql::Expr* e, const ConversionRegistry* reg, WrapMatch* m) {
  if (e->kind != sql::ExprKind::kFunction || e->args.size() != 2) return false;
  bool is_to = false;
  const ConversionPair* pair = reg->FindByFunction(e->fname, &is_to);
  if (pair == nullptr || is_to) return false;
  sql::Expr* inner = e->args[0].get();
  if (inner->kind != sql::ExprKind::kFunction || inner->args.size() != 2) {
    return false;
  }
  bool inner_is_to = false;
  const ConversionPair* pair2 = reg->FindByFunction(inner->fname, &inner_is_to);
  if (pair2 != pair || !inner_is_to) return false;
  m->pair = pair;
  m->from_call = e;
  m->to_call = inner;
  m->inner = inner->args[0].get();
  m->ttid = inner->args[1].get();
  return true;
}

bool ContainsConversionCall(const sql::Expr& e, const ConversionRegistry* reg) {
  if (e.kind == sql::ExprKind::kFunction && reg->IsConversionFunction(e.fname)) {
    return true;
  }
  for (const auto& a : e.args) {
    if (ContainsConversionCall(*a, reg)) return true;
  }
  if (e.case_operand && ContainsConversionCall(*e.case_operand, reg)) {
    return true;
  }
  if (e.else_expr && ContainsConversionCall(*e.else_expr, reg)) return true;
  // Sub-queries are optimized separately.
  return false;
}

/// Constant w.r.t. the query: no column references, sub-queries or params.
bool IsConstExpr(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kColumnRef || e.subquery ||
      e.kind == sql::ExprKind::kParam || e.kind == sql::ExprKind::kStar) {
    return false;
  }
  for (const auto& a : e.args) {
    if (!IsConstExpr(*a)) return false;
  }
  if (e.case_operand && !IsConstExpr(*e.case_operand)) return false;
  if (e.else_expr && !IsConstExpr(*e.else_expr)) return false;
  return true;
}

void CollectSubqueries(sql::Expr* e, std::vector<sql::SelectStmt*>* out) {
  if (e->subquery) out->push_back(e->subquery.get());
  for (auto& a : e->args) CollectSubqueries(a.get(), out);
  if (e->case_operand) CollectSubqueries(e->case_operand.get(), out);
  if (e->else_expr) CollectSubqueries(e->else_expr.get(), out);
}

/// The expression clauses of one select level (join conditions, the select
/// list, WHERE, GROUP BY, HAVING and ORDER BY) and the sub-queries of its
/// FROM list.
void ClausesOfLevel(sql::SelectStmt* sel, std::vector<sql::ExprPtr*>* out,
                    std::vector<sql::SelectStmt*>* from_subqueries) {
  std::vector<sql::TableRef*> stack;
  for (auto& t : sel->from) stack.push_back(t.get());
  while (!stack.empty()) {
    sql::TableRef* t = stack.back();
    stack.pop_back();
    if (t->kind == sql::TableRef::Kind::kSubquery) {
      from_subqueries->push_back(t->subquery.get());
    } else if (t->kind == sql::TableRef::Kind::kJoin) {
      if (t->join_cond) out->push_back(&t->join_cond);
      stack.push_back(t->left.get());
      stack.push_back(t->right.get());
    }
  }
  for (auto& item : sel->items) out->push_back(&item.expr);
  if (sel->where) out->push_back(&sel->where);
  for (auto& g : sel->group_by) out->push_back(&g);
  if (sel->having) out->push_back(&sel->having);
  for (auto& o : sel->order_by) out->push_back(&o.expr);
}

/// All sub-selects directly reachable from this select's clauses and FROM.
void DirectChildSelects(sql::SelectStmt* sel,
                        std::vector<sql::SelectStmt*>* out) {
  std::vector<sql::ExprPtr*> clauses;
  ClausesOfLevel(sel, &clauses, out);
  for (sql::ExprPtr* c : clauses) CollectSubqueries(c->get(), out);
}

sql::ExprPtr MakeAgg(const std::string& fn, sql::ExprPtr arg) {
  std::vector<sql::ExprPtr> args;
  args.push_back(std::move(arg));
  return sql::Func(fn, std::move(args));
}

sql::ExprPtr MakeCountStar() {
  auto star = std::make_unique<sql::Expr>();
  star->kind = sql::ExprKind::kStar;
  std::vector<sql::ExprPtr> args;
  args.push_back(std::move(star));
  return sql::Func("COUNT", std::move(args));
}

}  // namespace

// ---------------------------------------------------------------------------
// o2: conversion push-up in predicates
// ---------------------------------------------------------------------------

namespace {

class PushUpPass {
 public:
  PushUpPass(const ConversionRegistry* reg, int64_t client)
      : reg_(reg), client_(client) {}

  void Run(sql::SelectStmt* sel) {
    std::vector<sql::SelectStmt*> children;
    DirectChildSelects(sel, &children);
    for (auto* c : children) Run(c);
    if (sel->where) Transform(&sel->where);
    if (sel->having) Transform(&sel->having);
    std::vector<sql::TableRef*> stack;
    for (auto& t : sel->from) stack.push_back(t.get());
    while (!stack.empty()) {
      sql::TableRef* t = stack.back();
      stack.pop_back();
      if (t->kind == sql::TableRef::Kind::kJoin) {
        if (t->join_cond) Transform(&t->join_cond);
        stack.push_back(t->left.get());
        stack.push_back(t->right.get());
      }
    }
  }

 private:
  /// Build fromU(toU(expr, C), ttid): convert a client-format constant into
  /// the row owner's format (paper Listing 15). With a PostgreSQL-style UDF
  /// cache this costs one toU call per query and one fromU call per tenant.
  sql::ExprPtr ConvertConstant(sql::ExprPtr constant, const ConversionPair& p,
                               sql::ExprPtr ttid) {
    std::vector<sql::ExprPtr> to_args;
    to_args.push_back(std::move(constant));
    to_args.push_back(sql::IntLit(client_));
    auto to_call = sql::Func(p.to_universal, std::move(to_args));
    std::vector<sql::ExprPtr> from_args;
    from_args.push_back(std::move(to_call));
    from_args.push_back(std::move(ttid));
    return sql::Func(p.from_universal, std::move(from_args));
  }

  void Transform(sql::ExprPtr* e) {
    sql::Expr& x = **e;
    if (x.kind == sql::ExprKind::kBinary && IsComparisonOp(x.op)) {
      WrapMatch l, r;
      bool lw = MatchWrapped(x.args[0].get(), reg_, &l);
      bool rw = MatchWrapped(x.args[1].get(), reg_, &r);
      bool eq_op = x.op == "=" || x.op == "<>";
      if (lw && rw && l.pair == r.pair &&
          (eq_op || l.pair->order_preserving())) {
        if (sql::PrintExpr(*l.ttid) == sql::PrintExpr(*r.ttid)) {
          // Same owner on both sides: both values share the tenant format,
          // compare raw (bijectivity per tenant).
          auto inner_l = std::move(l.to_call->args[0]);
          auto inner_r = std::move(r.to_call->args[0]);
          x.args[0] = std::move(inner_l);
          x.args[1] = std::move(inner_r);
        } else {
          // Compare in universal format: strip the client conversions
          // (paper Listing 14).
          auto to_l = std::move(x.args[0]->args[0]);
          auto to_r = std::move(x.args[1]->args[0]);
          x.args[0] = std::move(to_l);
          x.args[1] = std::move(to_r);
        }
        return;
      }
      if (lw != rw) {
        WrapMatch& m = lw ? l : r;
        size_t attr_side = lw ? 0 : 1;
        size_t const_side = 1 - attr_side;
        if ((eq_op || m.pair->order_preserving()) &&
            IsConstExpr(*x.args[const_side])) {
          const ConversionPair& pair = *m.pair;
          auto ttid_clone = m.ttid->Clone();
          auto raw_attr = std::move(m.to_call->args[0]);
          x.args[attr_side] = std::move(raw_attr);
          x.args[const_side] = ConvertConstant(std::move(x.args[const_side]),
                                               pair, std::move(ttid_clone));
          return;
        }
      }
      return;
    }
    if (x.kind == sql::ExprKind::kInList && !x.args.empty()) {
      WrapMatch m;
      if (MatchWrapped(x.args[0].get(), reg_, &m)) {
        bool all_const = true;
        for (size_t i = 1; i < x.args.size(); ++i) {
          all_const = all_const && IsConstExpr(*x.args[i]);
        }
        if (all_const) {
          const ConversionPair& pair = *m.pair;
          auto ttid = m.ttid->Clone();
          auto raw_attr = std::move(m.to_call->args[0]);
          x.args[0] = std::move(raw_attr);
          for (size_t i = 1; i < x.args.size(); ++i) {
            x.args[i] =
                ConvertConstant(std::move(x.args[i]), pair, ttid->Clone());
          }
        }
      }
      return;
    }
    if (x.kind == sql::ExprKind::kBetween) {
      WrapMatch m;
      if (MatchWrapped(x.args[0].get(), reg_, &m) &&
          m.pair->order_preserving() && IsConstExpr(*x.args[1]) &&
          IsConstExpr(*x.args[2])) {
        const ConversionPair& pair = *m.pair;
        auto ttid = m.ttid->Clone();
        auto raw_attr = std::move(m.to_call->args[0]);
        x.args[0] = std::move(raw_attr);
        x.args[1] = ConvertConstant(std::move(x.args[1]), pair, ttid->Clone());
        x.args[2] = ConvertConstant(std::move(x.args[2]), pair, ttid->Clone());
      }
      return;
    }
    for (auto& a : x.args) Transform(&a);
    if (x.case_operand) Transform(&x.case_operand);
    if (x.else_expr) Transform(&x.else_expr);
  }

  const ConversionRegistry* reg_;
  int64_t client_;
};

}  // namespace

Status Optimizer::PushUpConversions(sql::SelectStmt* sel) {
  PushUpPass pass(conversions_, client_);
  pass.Run(sel);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// o3: aggregation distribution
// ---------------------------------------------------------------------------

namespace {

enum class ShapeKind { kConvFree, kDistributable, kZero, kNo };

struct Shape {
  ShapeKind kind = ShapeKind::kNo;
  const ConversionPair* pair = nullptr;
  std::string ttid_text;
  const sql::Expr* ttid = nullptr;
};

bool SamePairAndTtid(const Shape& a, const Shape& b) {
  return a.pair == b.pair && a.ttid_text == b.ttid_text;
}

/// Can the (whole) aggregate argument expression be computed on raw tenant
/// values such that converting the per-tenant aggregate afterwards is exact?
Shape AnalyzeShape(const sql::Expr& e, const ConversionRegistry* reg) {
  Shape s;
  if (e.kind == sql::ExprKind::kLiteral) {
    const Value& v = e.literal;
    bool zero = (v.type() == TypeId::kInt && v.int_value() == 0) ||
                (v.type() == TypeId::kDecimal && v.decimal_value().units() == 0);
    s.kind = zero ? ShapeKind::kZero : ShapeKind::kConvFree;
    return s;
  }
  WrapMatch m;
  if (MatchWrapped(const_cast<sql::Expr*>(&e), reg, &m)) {
    if (ContainsConversionCall(*m.inner, reg)) {
      s.kind = ShapeKind::kNo;
      return s;
    }
    s.kind = ShapeKind::kDistributable;
    s.pair = m.pair;
    s.ttid = m.ttid;
    s.ttid_text = sql::PrintExpr(*m.ttid);
    return s;
  }
  if (e.kind == sql::ExprKind::kBinary && (e.op == "*" || e.op == "/")) {
    Shape l = AnalyzeShape(*e.args[0], reg);
    Shape r = AnalyzeShape(*e.args[1], reg);
    auto free_like = [](const Shape& x) {
      return x.kind == ShapeKind::kConvFree || x.kind == ShapeKind::kZero;
    };
    if (free_like(l) && free_like(r)) {
      s.kind = ShapeKind::kConvFree;
      return s;
    }
    // Products commute with the conversion only for multiplicative pairs.
    if (l.kind == ShapeKind::kDistributable && free_like(r) &&
        l.pair->cls == ConversionClass::kMultiplicative) {
      return l;
    }
    if (e.op == "*" && r.kind == ShapeKind::kDistributable && free_like(l) &&
        r.pair->cls == ConversionClass::kMultiplicative) {
      return r;
    }
    s.kind = ShapeKind::kNo;
    return s;
  }
  if (e.kind == sql::ExprKind::kBinary && (e.op == "+" || e.op == "-")) {
    Shape l = AnalyzeShape(*e.args[0], reg);
    Shape r = AnalyzeShape(*e.args[1], reg);
    if (l.kind == ShapeKind::kConvFree && r.kind == ShapeKind::kConvFree) {
      s.kind = ShapeKind::kConvFree;
      return s;
    }
    if (l.kind == ShapeKind::kDistributable &&
        (r.kind == ShapeKind::kZero ||
         (r.kind == ShapeKind::kDistributable && SamePairAndTtid(l, r))) &&
        l.pair->cls == ConversionClass::kMultiplicative) {
      return l;
    }
    if (r.kind == ShapeKind::kDistributable && l.kind == ShapeKind::kZero &&
        r.pair->cls == ConversionClass::kMultiplicative) {
      return r;
    }
    s.kind = ShapeKind::kNo;
    return s;
  }
  if (e.kind == sql::ExprKind::kCase) {
    // Conditions must be conversion-free; branches may mix the *same*
    // distributable conversion with literal zeros (multiplicative pairs map
    // 0 to 0, e.g. TPC-H Q14's CASE ... ELSE 0).
    bool bad = e.case_operand && ContainsConversionCall(*e.case_operand, reg);
    for (size_t i = 0; i + 1 < e.args.size() && !bad; i += 2) {
      bad = ContainsConversionCall(*e.args[i], reg);
    }
    Shape acc;
    bool any_dist = false, any_free = false;
    auto merge = [&](const sql::Expr& branch) {
      if (bad) return;
      Shape b = AnalyzeShape(branch, reg);
      switch (b.kind) {
        case ShapeKind::kNo:
          bad = true;
          break;
        case ShapeKind::kZero:
          break;
        case ShapeKind::kConvFree:
          any_free = true;
          break;
        case ShapeKind::kDistributable:
          if (b.pair->cls != ConversionClass::kMultiplicative ||
              (any_dist && !SamePairAndTtid(acc, b))) {
            bad = true;
            break;
          }
          any_dist = true;
          acc = b;
          break;
      }
    };
    for (size_t i = 1; i < e.args.size(); i += 2) merge(*e.args[i]);
    if (e.else_expr) merge(*e.else_expr);
    if (bad || (any_dist && any_free)) {
      s.kind = ShapeKind::kNo;
      return s;
    }
    if (any_dist) {
      acc.kind = ShapeKind::kDistributable;
      return acc;
    }
    s.kind = any_free ? ShapeKind::kConvFree : ShapeKind::kZero;
    return s;
  }
  if (ContainsConversionCall(e, reg)) {
    s.kind = ShapeKind::kNo;
    return s;
  }
  s.kind = ShapeKind::kConvFree;
  return s;
}

/// Clone the expression with every full conversion wrapper replaced by the
/// raw attribute underneath (values stay in tenant format).
sql::ExprPtr StripWrappers(const sql::Expr& e, const ConversionRegistry* reg) {
  WrapMatch m;
  if (MatchWrapped(const_cast<sql::Expr*>(&e), reg, &m)) {
    return m.inner->Clone();
  }
  auto c = e.Clone();
  std::function<void(sql::ExprPtr*)> walk = [&](sql::ExprPtr* p) {
    WrapMatch mm;
    if (MatchWrapped(p->get(), reg, &mm)) {
      *p = mm.inner->Clone();
      return;
    }
    for (auto& a : (*p)->args) walk(&a);
    if ((*p)->case_operand) walk(&(*p)->case_operand);
    if ((*p)->else_expr) walk(&(*p)->else_expr);
  };
  walk(&c);
  return c;
}

void ReplaceByText(
    sql::ExprPtr* e,
    const std::unordered_map<std::string, std::function<sql::ExprPtr()>>& repl) {
  auto it = repl.find(sql::PrintExpr(**e));
  if (it != repl.end()) {
    *e = it->second();
    return;
  }
  for (auto& a : (*e)->args) ReplaceByText(&a, repl);
  if ((*e)->case_operand) ReplaceByText(&(*e)->case_operand, repl);
  if ((*e)->else_expr) ReplaceByText(&(*e)->else_expr, repl);
  // Sub-queries keep their own structure.
}

bool IsAggFuncName(const std::string& f) {
  return EqualsIgnoreCase(f, "COUNT") || EqualsIgnoreCase(f, "SUM") ||
         EqualsIgnoreCase(f, "AVG") || EqualsIgnoreCase(f, "MIN") ||
         EqualsIgnoreCase(f, "MAX");
}

void CollectAggCallsLocal(sql::Expr* e, std::vector<sql::Expr*>* out) {
  if (e->kind == sql::ExprKind::kFunction && IsAggFuncName(e->fname)) {
    out->push_back(e);
    return;
  }
  for (auto& a : e->args) CollectAggCallsLocal(a.get(), out);
  if (e->case_operand) CollectAggCallsLocal(e->case_operand.get(), out);
  if (e->else_expr) CollectAggCallsLocal(e->else_expr.get(), out);
}

}  // namespace

Status Optimizer::DistributeAggregations(sql::SelectStmt* sel) {
  {
    std::vector<sql::SelectStmt*> children;
    DirectChildSelects(sel, &children);
    for (auto* c : children) {
      MTB_RETURN_IF_ERROR(DistributeAggregations(c));
    }
  }
  if (sel->distinct || sel->from.empty()) return Status::OK();

  // Collect aggregate calls of this level.
  std::vector<sql::Expr*> calls;
  for (auto& item : sel->items) CollectAggCallsLocal(item.expr.get(), &calls);
  if (sel->having) CollectAggCallsLocal(sel->having.get(), &calls);
  for (auto& o : sel->order_by) CollectAggCallsLocal(o.expr.get(), &calls);
  if (calls.empty()) return Status::OK();

  struct AggPlan {
    sql::Expr* call;
    std::string text;
    AggKind kind;
    Shape shape;
    sql::ExprPtr stripped;  // distributable arg on raw tenant values
  };
  std::vector<AggPlan> plans;
  std::unordered_map<std::string, size_t> by_text;
  const ConversionPair* pair = nullptr;
  std::string ttid_text;
  const sql::Expr* ttid_expr = nullptr;
  bool any_distributable = false;

  for (sql::Expr* call : calls) {
    std::string text = sql::PrintExpr(*call);
    if (by_text.count(text)) continue;
    if (call->distinct) return Status::OK();  // not distributable over tenants
    AggPlan p;
    p.call = call;
    p.text = text;
    bool star =
        !call->args.empty() && call->args[0]->kind == sql::ExprKind::kStar;
    if (EqualsIgnoreCase(call->fname, "COUNT")) {
      p.kind = AggKind::kCount;
    } else if (EqualsIgnoreCase(call->fname, "SUM")) {
      p.kind = AggKind::kSum;
    } else if (EqualsIgnoreCase(call->fname, "AVG")) {
      p.kind = AggKind::kAvg;
    } else if (EqualsIgnoreCase(call->fname, "MIN")) {
      p.kind = AggKind::kMin;
    } else {
      p.kind = AggKind::kMax;
    }
    if (star) {
      p.shape.kind = ShapeKind::kConvFree;
    } else {
      p.shape = AnalyzeShape(*call->args[0], conversions_);
      if (p.shape.kind == ShapeKind::kZero) p.shape.kind = ShapeKind::kConvFree;
    }
    if (p.shape.kind == ShapeKind::kNo) return Status::OK();
    if (p.shape.kind == ShapeKind::kDistributable) {
      if (p.kind != AggKind::kCount &&
          !AggDistributesOver(p.kind, p.shape.pair->cls)) {
        return Status::OK();
      }
      if (pair == nullptr) {
        pair = p.shape.pair;
        ttid_text = p.shape.ttid_text;
        ttid_expr = p.shape.ttid;
      } else if (p.shape.ttid_text != ttid_text) {
        return Status::OK();  // conversions from several owners: skip
      }
      any_distributable = true;
      p.stripped = StripWrappers(*call->args[0], conversions_);
    }
    by_text[p.text] = plans.size();
    plans.push_back(std::move(p));
  }
  if (!any_distributable) return Status::OK();

  // Group keys must not contain conversions (they stay in both stages).
  for (const auto& g : sel->group_by) {
    if (ContainsConversionCall(*g, conversions_)) return Status::OK();
  }

  const bool linear = pair->cls == ConversionClass::kLinear;

  // --- build the inner (per-tenant partial aggregation) query -------------
  // The partials stay in tenant format and carry their owner as __t; the
  // outer query converts each one, so o4 joins the conversion metadata over
  // the (group, tenant) partials instead of every fact row.
  auto inner = std::make_unique<sql::SelectStmt>();
  inner->from = std::move(sel->from);
  inner->where = std::move(sel->where);
  std::unordered_map<std::string, std::function<sql::ExprPtr()>> repl;
  auto add_item = [&](sql::ExprPtr e, const std::string& alias) {
    sql::SelectItem item;
    item.expr = std::move(e);
    item.alias = alias;
    inner->items.push_back(std::move(item));
  };
  for (size_t i = 0; i < sel->group_by.size(); ++i) {
    std::string alias = "__g" + std::to_string(i);
    add_item(sel->group_by[i]->Clone(), alias);
    inner->group_by.push_back(sel->group_by[i]->Clone());
    repl[sql::PrintExpr(*sel->group_by[i])] = [alias]() {
      return sql::Col(alias);
    };
  }
  add_item(ttid_expr->Clone(), "__t");
  inner->group_by.push_back(ttid_expr->Clone());

  auto to_universal = [pair](const std::string& partial) {
    std::vector<sql::ExprPtr> args;
    args.push_back(sql::Col(partial));
    args.push_back(sql::Col("__t"));
    return sql::Func(pair->to_universal, std::move(args));
  };
  auto from_universal = [pair, client = client_](sql::ExprPtr agg) {
    std::vector<sql::ExprPtr> args;
    args.push_back(std::move(agg));
    args.push_back(sql::IntLit(client));
    return sql::Func(pair->from_universal, std::move(args));
  };

  for (size_t j = 0; j < plans.size(); ++j) {
    AggPlan& p = plans[j];
    std::string a1 = "__a" + std::to_string(j);
    std::string a2 = "__a" + std::to_string(j) + "c";
    bool dist = p.shape.kind == ShapeKind::kDistributable;
    bool star =
        !p.call->args.empty() && p.call->args[0]->kind == sql::ExprKind::kStar;
    auto arg_clone = [&]() {
      return dist ? p.stripped->Clone() : p.call->args[0]->Clone();
    };
    switch (p.kind) {
      case AggKind::kCount: {
        add_item(star ? MakeCountStar() : MakeAgg("COUNT", arg_clone()), a1);
        repl[p.text] = [a1]() { return MakeAgg("SUM", sql::Col(a1)); };
        break;
      }
      case AggKind::kSum: {
        if (!dist) {
          add_item(MakeAgg("SUM", arg_clone()), a1);
          repl[p.text] = [a1]() { return MakeAgg("SUM", sql::Col(a1)); };
        } else if (linear) {
          // Appendix B: total sum = sum over tenants of count * avg.
          add_item(MakeAgg("AVG", arg_clone()), a1);
          add_item(MakeAgg("COUNT", arg_clone()), a2);
          repl[p.text] = [a1, a2, to_universal, from_universal]() {
            return from_universal(MakeAgg(
                "SUM", sql::Binary("*", to_universal(a1), sql::Col(a2))));
          };
        } else {
          add_item(MakeAgg("SUM", arg_clone()), a1);
          repl[p.text] = [a1, to_universal, from_universal]() {
            return from_universal(MakeAgg("SUM", to_universal(a1)));
          };
        }
        break;
      }
      case AggKind::kAvg: {
        if (!dist) {
          add_item(MakeAgg("SUM", arg_clone()), a1);
          add_item(MakeAgg("COUNT", arg_clone()), a2);
          repl[p.text] = [a1, a2]() {
            return sql::Binary("/", MakeAgg("SUM", sql::Col(a1)),
                               MakeAgg("SUM", sql::Col(a2)));
          };
        } else if (linear) {
          add_item(MakeAgg("AVG", arg_clone()), a1);
          add_item(MakeAgg("COUNT", arg_clone()), a2);
          repl[p.text] = [a1, a2, to_universal, from_universal]() {
            return from_universal(sql::Binary(
                "/",
                MakeAgg("SUM",
                        sql::Binary("*", to_universal(a1), sql::Col(a2))),
                MakeAgg("SUM", sql::Col(a2))));
          };
        } else {
          add_item(MakeAgg("SUM", arg_clone()), a1);
          add_item(MakeAgg("COUNT", arg_clone()), a2);
          repl[p.text] = [a1, a2, to_universal, from_universal]() {
            return from_universal(
                sql::Binary("/", MakeAgg("SUM", to_universal(a1)),
                            MakeAgg("SUM", sql::Col(a2))));
          };
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        const char* fn = p.kind == AggKind::kMin ? "MIN" : "MAX";
        if (!dist) {
          add_item(MakeAgg(fn, arg_clone()), a1);
          repl[p.text] = [a1, fn]() { return MakeAgg(fn, sql::Col(a1)); };
        } else {
          add_item(MakeAgg(fn, arg_clone()), a1);
          repl[p.text] = [a1, fn, to_universal, from_universal]() {
            return from_universal(MakeAgg(fn, to_universal(a1)));
          };
        }
        break;
      }
    }
  }

  // --- rebuild the outer query over the partials ---------------------------
  auto part = std::make_unique<sql::TableRef>();
  part->kind = sql::TableRef::Kind::kSubquery;
  part->alias = "__part";
  part->subquery = std::move(inner);
  sel->from.clear();
  sel->from.push_back(std::move(part));
  sel->where = nullptr;
  std::vector<sql::ExprPtr> outer_group;
  for (size_t i = 0; i < sel->group_by.size(); ++i) {
    outer_group.push_back(sql::Col("__g" + std::to_string(i)));
  }
  sel->group_by = std::move(outer_group);

  for (auto& item : sel->items) {
    bool was_colref = item.expr->kind == sql::ExprKind::kColumnRef;
    std::string colname = was_colref ? item.expr->column : "";
    ReplaceByText(&item.expr, repl);
    // A replaced column reference keeps its name: a group column now reads
    // `__gN`, which would otherwise name the result column.
    if (item.alias.empty() && was_colref &&
        (item.expr->kind != sql::ExprKind::kColumnRef ||
         item.expr->column != colname)) {
      item.alias = colname;
    }
  }
  if (sel->having) ReplaceByText(&sel->having, repl);
  for (auto& o : sel->order_by) ReplaceByText(&o.expr, repl);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// o4: conversion function inlining
// ---------------------------------------------------------------------------

namespace {

sql::ExprPtr MakeMetaLookupSubquery(const InlineSpec& spec,
                                    const std::string& col,
                                    sql::ExprPtr tenant_expr) {
  auto sub = std::make_unique<sql::SelectStmt>();
  sql::SelectItem item;
  item.expr = sql::Col(col);
  sub->items.push_back(std::move(item));
  auto t1 = std::make_unique<sql::TableRef>();
  t1->kind = sql::TableRef::Kind::kBase;
  t1->name = spec.tenant_table;
  auto t2 = std::make_unique<sql::TableRef>();
  t2->kind = sql::TableRef::Kind::kBase;
  t2->name = spec.meta_table;
  sub->from.push_back(std::move(t1));
  sub->from.push_back(std::move(t2));
  sub->where = sql::Binary(
      "AND",
      sql::Binary("=", sql::Col(spec.tenant_key), std::move(tenant_expr)),
      sql::Binary("=", sql::Col(spec.tenant_fk), sql::Col(spec.meta_key)));
  return sql::ScalarSubquery(std::move(sub));
}

sql::ExprPtr ApplyInlineTemplate(const InlineSpec& spec, bool is_to,
                                 sql::ExprPtr value, sql::ExprPtr meta_col) {
  if (spec.kind == InlineSpec::Kind::kMultiplicative) {
    return sql::Binary("*", std::move(value), std::move(meta_col));
  }
  // kPrefix
  if (is_to) {
    // SUBSTRING(x, CHAR_LENGTH(prefix) + 1): strip the tenant prefix.
    std::vector<sql::ExprPtr> len_args;
    len_args.push_back(std::move(meta_col));
    auto len = sql::Func("CHAR_LENGTH", std::move(len_args));
    std::vector<sql::ExprPtr> args;
    args.push_back(std::move(value));
    args.push_back(sql::Binary("+", std::move(len), sql::IntLit(1)));
    return sql::Func("SUBSTRING", std::move(args));
  }
  std::vector<sql::ExprPtr> args;
  args.push_back(std::move(meta_col));
  args.push_back(std::move(value));
  return sql::Func("CONCAT", std::move(args));
}

bool ContainsAggCall(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kFunction && IsAggFuncName(e.fname)) {
    return true;
  }
  for (const auto& a : e.args) {
    if (ContainsAggCall(*a)) return true;
  }
  if (e.case_operand && ContainsAggCall(*e.case_operand)) return true;
  return e.else_expr && ContainsAggCall(*e.else_expr);
}

/// EXISTS and NOT EXISTS read only whether their sub-query returns a row.
/// Unless an aggregate (one row even over no input), GROUP BY, HAVING,
/// DISTINCT or ORDER BY reads the select list, it becomes the constant 1, so
/// the conversions the rewriter put there join no meta tables. Sub-queries
/// nested deeper are handled at their own level.
void ConstantExistsLists(sql::Expr* e) {
  if (e->kind == sql::ExprKind::kExists) {
    sql::SelectStmt& sub = *e->subquery;
    bool read = sub.distinct || !sub.group_by.empty() || sub.having ||
                !sub.order_by.empty();
    for (const auto& item : sub.items) {
      read = read || ContainsAggCall(*item.expr);
    }
    if (!read) {
      sub.items.clear();
      sql::SelectItem one;
      one.expr = sql::IntLit(1);
      sub.items.push_back(std::move(one));
    }
    return;
  }
  for (auto& a : e->args) ConstantExistsLists(a.get());
  if (e->case_operand) ConstantExistsLists(e->case_operand.get());
  if (e->else_expr) ConstantExistsLists(e->else_expr.get());
}

}  // namespace

Status Optimizer::InlineConversions(sql::SelectStmt* sel) {
  {
    std::vector<sql::ExprPtr*> clauses;
    std::vector<sql::SelectStmt*> children;
    ClausesOfLevel(sel, &clauses, &children);
    for (sql::ExprPtr* c : clauses) {
      ConstantExistsLists(c->get());
      CollectSubqueries(c->get(), &children);
    }
    for (auto* c : children) {
      MTB_RETURN_IF_ERROR(InlineConversions(c));
    }
  }
  // Joined instances of this level: one tenant row per owner expression,
  // shared by every conversion family over that owner, and one meta row per
  // (owner, family).
  std::unordered_map<std::string, std::string> tenant_alias;
  std::unordered_map<std::string, std::string> meta_alias;
  std::vector<sql::ExprPtr> extra_conjuncts;
  // A conversion over an aggregate, toU(SUM(x), owner), that a statement
  // writes itself in a grouped query reads a meta column outside any
  // aggregate; it depends on the grouped owner and joins the GROUP BY list.
  std::vector<sql::ExprPtr> extra_group_cols;
  std::set<std::string> extra_group_texts;
  bool can_join = !sel->from.empty();

  std::function<void(sql::ExprPtr*)> walk = [&](sql::ExprPtr* e) {
    sql::Expr& x = **e;
    bool is_to = false;
    const ConversionPair* pair =
        x.kind == sql::ExprKind::kFunction
            ? conversions_->FindByFunction(x.fname, &is_to)
            : nullptr;
    if (pair != nullptr && pair->inline_spec.kind != InlineSpec::Kind::kNone &&
        x.args.size() == 2) {
      const InlineSpec& spec = pair->inline_spec;
      const std::string col = is_to ? spec.to_col : spec.from_col;
      sql::Expr* tenant_arg = x.args[1].get();
      sql::ExprPtr value = std::move(x.args[0]);
      sql::ExprPtr replacement;
      if (tenant_arg->kind == sql::ExprKind::kColumnRef && can_join) {
        // Join the tenant row once per owner expr and the meta table once
        // per (owner expr, pair), and read the conversion data from the
        // joined row (paper Listing 17).
        std::string owner = sql::PrintExpr(*tenant_arg);
        auto add_table = [&](const std::string& name, const std::string& alias) {
          auto t = std::make_unique<sql::TableRef>();
          t->kind = sql::TableRef::Kind::kBase;
          t->name = name;
          t->alias = alias;
          sel->from.push_back(std::move(t));
        };
        const std::string family_key = pair->name + "|" + owner;
        auto it = meta_alias.find(family_key);
        if (it == meta_alias.end()) {
          std::string n = std::to_string(inline_counter_++);
          std::string owner_key =
              spec.tenant_table + "." + spec.tenant_key + "|" + owner;
          auto ta = tenant_alias.find(owner_key);
          if (ta == tenant_alias.end()) {
            ta = tenant_alias.emplace(owner_key, "__it" + n).first;
            add_table(spec.tenant_table, ta->second);
            extra_conjuncts.push_back(sql::Binary(
                "=", sql::Col(ta->second, spec.tenant_key),
                tenant_arg->Clone()));
          }
          std::string ma = "__im" + n;
          add_table(spec.meta_table, ma);
          extra_conjuncts.push_back(
              sql::Binary("=", sql::Col(ta->second, spec.tenant_fk),
                          sql::Col(ma, spec.meta_key)));
          it = meta_alias.emplace(family_key, ma).first;
        }
        if (ContainsAggCall(*value) && !sel->group_by.empty() &&
            extra_group_texts.insert(it->second + "." + col).second) {
          extra_group_cols.push_back(sql::Col(it->second, col));
        }
        replacement = ApplyInlineTemplate(spec, is_to, std::move(value),
                                          sql::Col(it->second, col));
      } else {
        // Tenant known as an expression (typically the client constant):
        // inline as a scalar sub-query, evaluated once per distinct owner
        // (uncorrelated sub-queries are InitPlans).
        replacement = ApplyInlineTemplate(
            spec, is_to, std::move(value),
            MakeMetaLookupSubquery(spec, col, x.args[1]->Clone()));
      }
      *e = std::move(replacement);
      // The value may itself contain conversion calls (the inner toU).
      for (auto& a : (*e)->args) walk(&a);
      return;
    }
    for (auto& a : x.args) walk(&a);
    if (x.case_operand) walk(&x.case_operand);
    if (x.else_expr) walk(&x.else_expr);
    // Sub-queries already processed (children first).
  };

  for (auto& item : sel->items) walk(&item.expr);
  if (sel->where) walk(&sel->where);
  for (auto& g : sel->group_by) walk(&g);
  if (sel->having) walk(&sel->having);
  for (auto& o : sel->order_by) walk(&o.expr);

  for (auto& c : extra_conjuncts) {
    sel->where = sel->where
                     ? sql::Binary("AND", std::move(sel->where), std::move(c))
                     : std::move(c);
  }
  for (auto& g : extra_group_cols) {
    sel->group_by.push_back(std::move(g));
  }
  return Status::OK();
}

Status Optimizer::Optimize(sql::SelectStmt* sel, OptLevel level) {
  switch (level) {
    case OptLevel::kCanonical:
    case OptLevel::kO1:
      return Status::OK();
    case OptLevel::kO2:
      return PushUpConversions(sel);
    case OptLevel::kO3:
      MTB_RETURN_IF_ERROR(PushUpConversions(sel));
      return DistributeAggregations(sel);
    case OptLevel::kO4:
      MTB_RETURN_IF_ERROR(PushUpConversions(sel));
      MTB_RETURN_IF_ERROR(DistributeAggregations(sel));
      return InlineConversions(sel);
    case OptLevel::kInlineOnly:
      return InlineConversions(sel);
  }
  return Status::OK();
}

}  // namespace mt
}  // namespace mtbase
