#include "mt/audit/normalizer.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "common/str_util.h"
#include "sql/printer.h"

namespace mtbase {
namespace mt {
namespace audit {

namespace {

bool IsComparisonOp(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The canonical conversion wrapper fromU(toU(x, t), c) — same matching as
/// the optimizer's push-up pass, restated here so the normalizer stays an
/// independent proof of the optimizer (audit.h).
struct WrapMatch {
  const ConversionPair* pair = nullptr;
  sql::Expr* from_call = nullptr;
  sql::Expr* to_call = nullptr;
  sql::Expr* inner = nullptr;  // to_call->args[0]
  sql::Expr* ttid = nullptr;   // to_call->args[1]
};

bool MatchWrapped(sql::Expr* e, const ConversionRegistry* reg, WrapMatch* m) {
  if (reg == nullptr) return false;
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

bool IsTtidColRef(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kColumnRef &&
         EqualsIgnoreCase(e.column, kTtidColumn);
}

class Normalizer {
 public:
  Normalizer(const ConversionRegistry* reg, const NormalizeOptions& options)
      : reg_(reg), options_(options) {}

  void NormalizeSelect(sql::SelectStmt* sel) {
    std::vector<sql::TableRef*> stack;
    for (auto& t : sel->from) stack.push_back(t.get());
    while (!stack.empty()) {
      sql::TableRef* t = stack.back();
      stack.pop_back();
      switch (t->kind) {
        case sql::TableRef::Kind::kBase:
          break;
        case sql::TableRef::Kind::kSubquery:
          NormalizeSelect(t->subquery.get());
          break;
        case sql::TableRef::Kind::kJoin:
          NormalizeClause(&t->join_cond);
          stack.push_back(t->left.get());
          stack.push_back(t->right.get());
          break;
      }
    }
    for (auto& item : sel->items) {
      NormalizeExpr(&item.expr);
      // A wrapper elision can leave `attr AS attr`; the un-aliased and the
      // self-aliased projection are the same column under the same name.
      if (!item.alias.empty() &&
          item.expr->kind == sql::ExprKind::kColumnRef &&
          EqualsIgnoreCase(item.expr->column, item.alias)) {
        item.alias.clear();
      }
    }
    NormalizeClause(&sel->where);
    for (auto& g : sel->group_by) NormalizeExpr(&g);
    NormalizeClause(&sel->having);
    for (auto& o : sel->order_by) NormalizeExpr(&o.expr);
  }

 private:
  /// Flatten a same-op chain into leaves, consuming the tree.
  void Flatten(sql::ExprPtr e, const std::string& op,
               std::vector<sql::ExprPtr>* leaves) {
    if (e->kind == sql::ExprKind::kBinary && e->op == op) {
      Flatten(std::move(e->args[0]), op, leaves);
      Flatten(std::move(e->args[1]), op, leaves);
      return;
    }
    leaves->push_back(std::move(e));
  }

  sql::ExprPtr Rebuild(std::vector<sql::ExprPtr> leaves,
                       const std::string& op) {
    sql::ExprPtr acc = std::move(leaves[0]);
    for (size_t i = 1; i < leaves.size(); ++i) {
      acc = sql::Binary(op, std::move(acc), std::move(leaves[i]));
    }
    return acc;
  }

  void SortByText(std::vector<sql::ExprPtr>* leaves) {
    std::stable_sort(leaves->begin(), leaves->end(),
                     [](const sql::ExprPtr& a, const sql::ExprPtr& b) {
                       return sql::PrintExpr(*a) < sql::PrintExpr(*b);
                     });
  }

  /// A D-filter conjunct whose literal set equals the caller-proven set.
  bool IsStrippableDFilter(const sql::Expr& e) const {
    if (options_.strip_dfilter_literals.empty()) return false;
    if (e.kind != sql::ExprKind::kInList || e.negated || e.args.empty()) {
      return false;
    }
    if (!IsTtidColRef(*e.args[0])) return false;
    std::vector<int64_t> values;
    for (size_t i = 1; i < e.args.size(); ++i) {
      const sql::Expr& lit = *e.args[i];
      if (lit.kind != sql::ExprKind::kLiteral ||
          lit.literal.type() != TypeId::kInt) {
        return false;
      }
      values.push_back(lit.literal.int_value());
    }
    std::sort(values.begin(), values.end());
    return values == options_.strip_dfilter_literals;
  }

  /// An added `a.ttid = b.ttid` join predicate across table instances.
  bool IsStrippableTtidJoin(const sql::Expr& e) const {
    if (!options_.strip_ttid_joins) return false;
    return e.kind == sql::ExprKind::kBinary && e.op == "=" &&
           IsTtidColRef(*e.args[0]) && IsTtidColRef(*e.args[1]) &&
           !EqualsIgnoreCase(e.args[0]->qualifier, e.args[1]->qualifier);
  }

  /// WHERE / HAVING / ON: normalize, then strip the o1-elidable conjuncts
  /// the caller proved legal. May null the clause out entirely.
  void NormalizeClause(sql::ExprPtr* clause) {
    if (!*clause) return;
    NormalizeExpr(clause);
    std::vector<sql::ExprPtr> leaves;
    Flatten(std::move(*clause), "AND", &leaves);
    std::vector<sql::ExprPtr> kept;
    for (auto& leaf : leaves) {
      if (IsStrippableDFilter(*leaf) || IsStrippableTtidJoin(*leaf)) continue;
      kept.push_back(std::move(leaf));
    }
    if (kept.empty()) {
      *clause = nullptr;
      return;
    }
    SortByText(&kept);
    *clause = Rebuild(std::move(kept), "AND");
  }

  /// Normal forms of the push-up shapes: one comparison, both the canonical
  /// (wrapped) and the pushed form map to the same universal-format text
  /// (normalizer.h table). Conditions mirror the optimizer exactly — a shape
  /// the optimizer would not touch must not be normalized either, or the
  /// two forms diverge.
  void NormalizeComparison(sql::Expr* e) {
    WrapMatch l, r;
    bool lw = MatchWrapped(e->args[0].get(), reg_, &l);
    bool rw = MatchWrapped(e->args[1].get(), reg_, &r);
    bool eq_op = e->op == "=" || e->op == "<>";
    if (lw && rw && l.pair == r.pair &&
        (eq_op || l.pair->order_preserving())) {
      if (sql::PrintExpr(*l.ttid) == sql::PrintExpr(*r.ttid)) {
        auto inner_l = std::move(l.to_call->args[0]);
        auto inner_r = std::move(r.to_call->args[0]);
        e->args[0] = std::move(inner_l);
        e->args[1] = std::move(inner_r);
      } else {
        auto to_l = std::move(l.from_call->args[0]);
        auto to_r = std::move(r.from_call->args[0]);
        e->args[0] = std::move(to_l);
        e->args[1] = std::move(to_r);
      }
      return;
    }
    if (lw != rw) {
      WrapMatch& m = lw ? l : r;
      size_t wrapped_side = lw ? 0 : 1;
      size_t other_side = 1 - wrapped_side;
      // Canonical: wrapped attribute vs constant. Pushed: raw attribute vs
      // ConvertConstant wrapper (whose inner is the constant). Both map to
      // toU(attr, t) op toU(const, C).
      if ((eq_op || m.pair->order_preserving()) &&
          (IsConstExpr(*m.inner) || IsConstExpr(*e->args[other_side]))) {
        auto outer_ctx = std::move(m.from_call->args[1]);  // C resp. t
        auto to_call = std::move(m.from_call->args[0]);
        std::vector<sql::ExprPtr> args;
        args.push_back(std::move(e->args[other_side]));
        args.push_back(std::move(outer_ctx));
        e->args[other_side] = sql::Func(m.pair->to_universal, std::move(args));
        e->args[wrapped_side] = std::move(to_call);
      }
    }
  }

  void NormalizeInList(sql::Expr* e) {
    WrapMatch m;
    if (MatchWrapped(e->args[0].get(), reg_, &m)) {
      // Canonical: wrapped needle, constant list.
      bool all_const = true;
      for (size_t i = 1; i < e->args.size(); ++i) {
        all_const = all_const && IsConstExpr(*e->args[i]);
      }
      if (!all_const) return;
      auto client_ctx = std::move(m.from_call->args[1]);
      for (size_t i = 1; i < e->args.size(); ++i) {
        std::vector<sql::ExprPtr> args;
        args.push_back(std::move(e->args[i]));
        args.push_back(client_ctx->Clone());
        e->args[i] = sql::Func(m.pair->to_universal, std::move(args));
      }
      e->args[0] = std::move(m.from_call->args[0]);
      return;
    }
    // Pushed: raw needle, every element a ConvertConstant wrapper of the
    // same pair over the same owner.
    if (e->args.size() < 2) return;
    std::vector<WrapMatch> elems(e->args.size());
    const ConversionPair* pair = nullptr;
    std::string owner_text;
    for (size_t i = 1; i < e->args.size(); ++i) {
      if (!MatchWrapped(e->args[i].get(), reg_, &elems[i]) ||
          !IsConstExpr(*elems[i].inner)) {
        return;
      }
      std::string t = sql::PrintExpr(*elems[i].from_call->args[1]);
      if (pair == nullptr) {
        pair = elems[i].pair;
        owner_text = t;
      } else if (elems[i].pair != pair || t != owner_text) {
        return;
      }
    }
    auto owner = elems[1].from_call->args[1]->Clone();
    std::vector<sql::ExprPtr> args;
    args.push_back(std::move(e->args[0]));
    args.push_back(std::move(owner));
    e->args[0] = sql::Func(pair->to_universal, std::move(args));
    for (size_t i = 1; i < e->args.size(); ++i) {
      e->args[i] = std::move(elems[i].from_call->args[0]);
    }
  }

  void NormalizeBetween(sql::Expr* e) {
    WrapMatch m;
    if (MatchWrapped(e->args[0].get(), reg_, &m)) {
      if (!m.pair->order_preserving() || !IsConstExpr(*e->args[1]) ||
          !IsConstExpr(*e->args[2])) {
        return;
      }
      auto client_ctx = std::move(m.from_call->args[1]);
      for (size_t i = 1; i < 3; ++i) {
        std::vector<sql::ExprPtr> args;
        args.push_back(std::move(e->args[i]));
        args.push_back(client_ctx->Clone());
        e->args[i] = sql::Func(m.pair->to_universal, std::move(args));
      }
      e->args[0] = std::move(m.from_call->args[0]);
      return;
    }
    WrapMatch lo, hi;
    if (MatchWrapped(e->args[1].get(), reg_, &lo) &&
        MatchWrapped(e->args[2].get(), reg_, &hi) && lo.pair == hi.pair &&
        lo.pair->order_preserving() && IsConstExpr(*lo.inner) &&
        IsConstExpr(*hi.inner) &&
        sql::PrintExpr(*lo.from_call->args[1]) ==
            sql::PrintExpr(*hi.from_call->args[1])) {
      auto owner = lo.from_call->args[1]->Clone();
      std::vector<sql::ExprPtr> args;
      args.push_back(std::move(e->args[0]));
      args.push_back(std::move(owner));
      e->args[0] = sql::Func(lo.pair->to_universal, std::move(args));
      e->args[1] = std::move(lo.from_call->args[0]);
      e->args[2] = std::move(hi.from_call->args[0]);
    }
  }

  /// EXISTS reads only whether its sub-query returns a row. When no
  /// aggregate, GROUP BY, HAVING, DISTINCT or ORDER BY reads the select
  /// list, every list answers alike, so all of them normalize to `1`.
  static void NormalizeExistsList(sql::SelectStmt* sub) {
    if (sub->distinct || !sub->group_by.empty() || sub->having ||
        !sub->order_by.empty()) {
      return;
    }
    std::function<bool(const sql::Expr&)> has_agg = [&](const sql::Expr& x) {
      if (x.kind == sql::ExprKind::kFunction &&
          (EqualsIgnoreCase(x.fname, "COUNT") ||
           EqualsIgnoreCase(x.fname, "SUM") ||
           EqualsIgnoreCase(x.fname, "AVG") ||
           EqualsIgnoreCase(x.fname, "MIN") ||
           EqualsIgnoreCase(x.fname, "MAX"))) {
        return true;
      }
      for (const auto& a : x.args) {
        if (has_agg(*a)) return true;
      }
      return (x.case_operand && has_agg(*x.case_operand)) ||
             (x.else_expr && has_agg(*x.else_expr));
    };
    for (const auto& item : sub->items) {
      if (has_agg(*item.expr)) return;
    }
    sub->items.clear();
    sql::SelectItem one;
    one.expr = sql::IntLit(1);
    sub->items.push_back(std::move(one));
  }

  void NormalizeExpr(sql::ExprPtr* p) {
    sql::Expr* e = p->get();
    if (e->kind == sql::ExprKind::kExists) NormalizeExistsList(e->subquery.get());
    if (e->subquery) NormalizeSelect(e->subquery.get());
    for (auto& a : e->args) NormalizeExpr(&a);
    if (e->case_operand) NormalizeExpr(&e->case_operand);
    if (e->else_expr) NormalizeExpr(&e->else_expr);

    // o1 legality: elide the whole wrapper (D' = {C} makes it the identity).
    if (options_.elide_wrappers) {
      WrapMatch m;
      if (MatchWrapped(p->get(), reg_, &m)) {
        auto inner = std::move(m.to_call->args[0]);
        *p = std::move(inner);
        return;
      }
    }
    e = p->get();

    // o1 legality: drop the ttid pairing of membership tests (|D'| = 1).
    if (options_.strip_ttid_joins &&
        e->kind == sql::ExprKind::kInSubquery && e->args.size() >= 2 &&
        IsTtidColRef(*e->args.back()) && e->subquery &&
        !e->subquery->items.empty() &&
        e->subquery->items.back().expr->kind == sql::ExprKind::kColumnRef &&
        EqualsIgnoreCase(e->subquery->items.back().expr->column,
                         kTtidColumn)) {
      e->args.pop_back();
      e->subquery->items.pop_back();
      if (!e->subquery->group_by.empty() &&
          IsTtidColRef(*e->subquery->group_by.back())) {
        e->subquery->group_by.pop_back();
      }
    }

    if (e->kind == sql::ExprKind::kBinary && IsComparisonOp(e->op) &&
        e->args.size() == 2) {
      NormalizeComparison(e);
    } else if (e->kind == sql::ExprKind::kInList && !e->args.empty()) {
      NormalizeInList(e);
    } else if (e->kind == sql::ExprKind::kBetween && e->args.size() == 3) {
      NormalizeBetween(e);
    }

    // Deterministic orientation of comparisons and commutative operands.
    if (e->kind == sql::ExprKind::kBinary && e->args.size() == 2) {
      if (e->op == ">" || e->op == ">=") {
        e->op = e->op == ">" ? "<" : "<=";
        std::swap(e->args[0], e->args[1]);
      } else if (e->op == "=" || e->op == "<>") {
        if (sql::PrintExpr(*e->args[0]) > sql::PrintExpr(*e->args[1])) {
          std::swap(e->args[0], e->args[1]);
        }
      } else if (e->op == "AND" || e->op == "OR") {
        std::string op = e->op;
        std::vector<sql::ExprPtr> leaves;
        Flatten(std::move(*p), op, &leaves);
        SortByText(&leaves);
        *p = Rebuild(std::move(leaves), op);
      }
    }
  }

  const ConversionRegistry* reg_;
  const NormalizeOptions& options_;
};

// --- divergence classification ---------------------------------------------

void CollectAllSelects(const sql::Expr& e,
                       std::vector<const sql::SelectStmt*>* out);

void CollectAllSelects(const sql::SelectStmt& sel,
                       std::vector<const sql::SelectStmt*>* out) {
  out->push_back(&sel);
  std::vector<const sql::TableRef*> stack;
  for (const auto& t : sel.from) stack.push_back(t.get());
  while (!stack.empty()) {
    const sql::TableRef* t = stack.back();
    stack.pop_back();
    if (t->kind == sql::TableRef::Kind::kSubquery) {
      CollectAllSelects(*t->subquery, out);
    } else if (t->kind == sql::TableRef::Kind::kJoin) {
      if (t->join_cond) CollectAllSelects(*t->join_cond, out);
      stack.push_back(t->left.get());
      stack.push_back(t->right.get());
    }
  }
  for (const auto& item : sel.items) CollectAllSelects(*item.expr, out);
  if (sel.where) CollectAllSelects(*sel.where, out);
  for (const auto& g : sel.group_by) CollectAllSelects(*g, out);
  if (sel.having) CollectAllSelects(*sel.having, out);
  for (const auto& o : sel.order_by) CollectAllSelects(*o.expr, out);
}

void CollectAllSelects(const sql::Expr& e,
                       std::vector<const sql::SelectStmt*>* out) {
  if (e.subquery) CollectAllSelects(*e.subquery, out);
  for (const auto& a : e.args) CollectAllSelects(*a, out);
  if (e.case_operand) CollectAllSelects(*e.case_operand, out);
  if (e.else_expr) CollectAllSelects(*e.else_expr, out);
}

bool HasConversionCall(const sql::SelectStmt& sel,
                       const ConversionRegistry* reg) {
  std::vector<const sql::SelectStmt*> selects;
  CollectAllSelects(sel, &selects);
  bool found = false;
  std::function<void(const sql::Expr&)> walk = [&](const sql::Expr& e) {
    if (found) return;
    if (e.kind == sql::ExprKind::kFunction &&
        reg->IsConversionFunction(e.fname)) {
      found = true;
      return;
    }
    for (const auto& a : e.args) walk(*a);
    if (e.case_operand) walk(*e.case_operand);
    if (e.else_expr) walk(*e.else_expr);
  };
  for (const sql::SelectStmt* s : selects) {
    for (const auto& item : s->items) walk(*item.expr);
    if (s->where) walk(*s->where);
    for (const auto& g : s->group_by) walk(*g);
    if (s->having) walk(*s->having);
    for (const auto& o : s->order_by) walk(*o.expr);
    std::vector<const sql::TableRef*> stack;
    for (const auto& t : s->from) stack.push_back(t.get());
    while (!stack.empty()) {
      const sql::TableRef* t = stack.back();
      stack.pop_back();
      if (t->kind == sql::TableRef::Kind::kJoin) {
        if (t->join_cond) walk(*t->join_cond);
        stack.push_back(t->left.get());
        stack.push_back(t->right.get());
      }
    }
    if (found) break;
  }
  return found;
}

bool IsInlineMetaTable(const std::string& name,
                       const ConversionRegistry* reg) {
  for (const ConversionPair& p : reg->pairs()) {
    if (p.inline_spec.kind == InlineSpec::Kind::kNone) continue;
    if (EqualsIgnoreCase(name, p.inline_spec.meta_table)) return true;
  }
  return false;
}

}  // namespace

std::string NormalizeSelectText(const sql::SelectStmt& sel,
                                const ConversionRegistry* conversions,
                                const NormalizeOptions& options) {
  NormalizeOptions opts = options;
  std::sort(opts.strip_dfilter_literals.begin(),
            opts.strip_dfilter_literals.end());
  std::unique_ptr<sql::SelectStmt> clone = sel.Clone();
  Normalizer n(conversions, opts);
  n.NormalizeSelect(clone.get());
  return sql::PrintSelect(*clone);
}

EquivalenceCode ClassifyDivergence(const sql::SelectStmt& optimized,
                                   const ConversionRegistry* conversions) {
  std::vector<const sql::SelectStmt*> selects;
  CollectAllSelects(optimized, &selects);
  bool part = false;
  bool inlined = false;
  for (const sql::SelectStmt* s : selects) {
    std::vector<const sql::TableRef*> stack;
    for (const auto& t : s->from) stack.push_back(t.get());
    while (!stack.empty()) {
      const sql::TableRef* t = stack.back();
      stack.pop_back();
      switch (t->kind) {
        case sql::TableRef::Kind::kBase:
          if (StartsWith(t->alias, "__it") || StartsWith(t->alias, "__im") ||
              IsInlineMetaTable(t->name, conversions)) {
            inlined = true;
          }
          break;
        case sql::TableRef::Kind::kSubquery:
          if (t->alias == "__part") part = true;
          break;
        case sql::TableRef::Kind::kJoin:
          stack.push_back(t->left.get());
          stack.push_back(t->right.get());
          break;
      }
    }
  }
  if (inlined) return EquivalenceCode::kDivergeConversionInline;
  if (part) return EquivalenceCode::kDivergeAggDistribution;
  if (HasConversionCall(optimized, conversions)) {
    return EquivalenceCode::kDivergeConversionPushup;
  }
  return EquivalenceCode::kUnknown;
}

}  // namespace audit
}  // namespace mt
}  // namespace mtbase
