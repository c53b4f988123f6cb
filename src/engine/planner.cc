#include "engine/planner.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/str_util.h"
#include "engine/exec.h"
#include "engine/parallel/parallel.h"
#include "sql/printer.h"

namespace mtbase {
namespace engine {

namespace {

bool IsAggName(const std::string& f) {
  return EqualsIgnoreCase(f, "COUNT") || EqualsIgnoreCase(f, "SUM") ||
         EqualsIgnoreCase(f, "AVG") || EqualsIgnoreCase(f, "MIN") ||
         EqualsIgnoreCase(f, "MAX");
}

AggFunc AggFuncOf(const sql::Expr& e) {
  if (EqualsIgnoreCase(e.fname, "COUNT")) {
    if (!e.args.empty() && e.args[0]->kind == sql::ExprKind::kStar) {
      return AggFunc::kCountStar;
    }
    return AggFunc::kCount;
  }
  if (EqualsIgnoreCase(e.fname, "SUM")) return AggFunc::kSum;
  if (EqualsIgnoreCase(e.fname, "AVG")) return AggFunc::kAvg;
  if (EqualsIgnoreCase(e.fname, "MIN")) return AggFunc::kMin;
  return AggFunc::kMax;
}

struct BindScope {
  const std::vector<ColumnMeta>* cols = nullptr;
  const BindScope* parent = nullptr;
};

/// Resolve within one scope level: >= 0 slot, -1 not found, error if ambiguous.
Result<int> ResolveAtLevel(const std::string& qual, const std::string& name,
                           const std::vector<ColumnMeta>& cols) {
  int found = -1;
  for (size_t i = 0; i < cols.size(); ++i) {
    const ColumnMeta& m = cols[i];
    if (!qual.empty() && !EqualsIgnoreCase(qual, m.qualifier)) continue;
    if (!EqualsIgnoreCase(name, m.name)) continue;
    if (found >= 0) {
      return Status::InvalidArgument(
          "ambiguous column reference: " +
          (qual.empty() ? name : qual + "." + name));
    }
    found = static_cast<int>(i);
  }
  return found;
}

bool ResolvableAtLevel(const std::string& qual, const std::string& name,
                       const std::vector<ColumnMeta>& cols) {
  for (const ColumnMeta& m : cols) {
    if (!qual.empty() && !EqualsIgnoreCase(qual, m.qualifier)) continue;
    if (EqualsIgnoreCase(name, m.name)) return true;
  }
  return false;
}

/// Post-aggregation rebinding: printed text of group keys / aggregate calls
/// mapped to slots of the aggregate output layout.
struct AggEnv {
  std::unordered_map<std::string, int> slots;
};

/// One correlated equality `inner_expr = outer_expr` extracted from a
/// sub-query's WHERE clause.
struct KeyPair {
  sql::ExprPtr outer;  // binds in the enclosing query
  sql::ExprPtr inner;  // binds in the (decorrelated) sub-query
};

/// A sub-query's WHERE clause sorted for unnesting against the enclosing
/// query level (PlannerImpl::SplitCorrelatedWhere).
struct CorrelatedWhere {
  std::vector<ColumnMeta> sub_cols;     // scope of the sub-query's own FROM
  std::vector<sql::ExprPtr> locals;     // conjuncts that do not read the level
  std::vector<KeyPair> keys;            // correlated equalities
  std::vector<sql::ExprPtr> residuals;  // the other correlated conjuncts
};

void SplitAndClone(const sql::Expr& e, std::vector<sql::ExprPtr>* out) {
  if (e.kind == sql::ExprKind::kBinary && e.op == "AND") {
    SplitAndClone(*e.args[0], out);
    SplitAndClone(*e.args[1], out);
    return;
  }
  out->push_back(e.Clone());
}

// Select-list aliases are usable in GROUP BY / HAVING / ORDER BY, but only
// as bare identifiers (like PostgreSQL), never inside expressions. When an
// alias shadows an input column the alias wins — the "outer-more expression"
// resolution the MTSQL rewrite relies on (paper section 3.1, GROUP-BY note).
void SubstituteAliases(
    sql::ExprPtr* e,
    const std::unordered_map<std::string, const sql::Expr*>& aliases) {
  sql::Expr& x = **e;
  if (x.kind != sql::ExprKind::kColumnRef || !x.qualifier.empty()) return;
  auto it = aliases.find(ToLowerCopy(x.column));
  if (it != aliases.end()) *e = it->second->Clone();
}

void CollectAggCalls(const sql::Expr& e, std::vector<const sql::Expr*>* out) {
  if (e.kind == sql::ExprKind::kFunction && IsAggName(e.fname)) {
    out->push_back(&e);
    return;  // nested aggregates are rejected when binding the argument
  }
  for (const auto& a : e.args) CollectAggCalls(*a, out);
  if (e.case_operand) CollectAggCalls(*e.case_operand, out);
  if (e.else_expr) CollectAggCalls(*e.else_expr, out);
  // Aggregates inside sub-queries belong to the sub-query.
}

bool ContainsSubquery(const sql::Expr& e) {
  if (e.subquery) return true;
  for (const auto& a : e.args) {
    if (ContainsSubquery(*a)) return true;
  }
  if (e.case_operand && ContainsSubquery(*e.case_operand)) return true;
  if (e.else_expr && ContainsSubquery(*e.else_expr)) return true;
  return false;
}

BoundExprPtr MakeSlot(int slot) {
  auto b = std::make_unique<BoundExpr>();
  b->kind = BoundExpr::Kind::kSlot;
  b->slot = slot;
  return b;
}

BoundExprPtr MakeBoundLit(Value v) {
  auto b = std::make_unique<BoundExpr>();
  b->kind = BoundExpr::Kind::kLiteral;
  b->literal = std::move(v);
  return b;
}

BoundExprPtr AndBound(BoundExprPtr a, BoundExprPtr b) {
  if (!a) return b;
  if (!b) return a;
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExpr::Kind::kBinary;
  e->bin_op = BinOp::kAnd;
  e->args.push_back(std::move(a));
  e->args.push_back(std::move(b));
  return e;
}

// Replace `*e` by the literal it evaluates to when it is an operator,
// builtin, CASE, IN list, BETWEEN or IS NULL over literals only: children
// are bound (and so folded) first, so `DATE '1994-01-01' + INTERVAL '1'
// YEAR` and `-(2 * 3)` become one literal each, evaluated once at plan time
// instead of once per row. Leaves, UDF calls and sub-queries never fold. A
// node whose evaluation fails (`1 / 0`, INT overflow) stays as it is, so its
// error surfaces only when a row evaluates it, exactly as before.
void FoldConstant(BoundExprPtr* e) {
  using K = BoundExpr::Kind;
  const BoundExpr& x = **e;
  switch (x.kind) {
    case K::kNot:
    case K::kNeg:
    case K::kBinary:
    case K::kBuiltin:
    case K::kCase:
    case K::kInList:
    case K::kBetween:
    case K::kIsNull:
      break;
    default:
      return;
  }
  bool literals = true;
  ForEachExprChild(x, [&literals](const BoundExpr& c) {
    literals = literals && c.kind == K::kLiteral;
  });
  if (!literals) return;
  ExecStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  Result<Value> v = EvalExpr(x, RowView(nullptr, 0), &ctx);
  if (v.ok()) *e = MakeBoundLit(std::move(v).value());
}

// Put a Filter node evaluating `pred` on top of `*input`, whose output
// layout `columns` it keeps.
void AddFilter(PlanPtr* input, BoundExprPtr pred,
               const std::vector<ColumnMeta>& columns) {
  auto filter = std::make_unique<Plan>();
  filter->kind = Plan::Kind::kFilter;
  filter->predicate = std::move(pred);
  filter->columns = columns;
  filter->left = std::move(*input);
  *input = std::move(filter);
}

// Attach a predicate that only reads one join input directly to that input:
// onto a base-table scan's filter (where partition pruning and index
// selection can see it), as a Filter node otherwise.
void AttachFilterToInput(PlanPtr* input, BoundExprPtr pred) {
  Plan& p = **input;
  if (p.kind == Plan::Kind::kScan && p.table != nullptr) {
    p.scan_filter = AndBound(std::move(p.scan_filter), std::move(pred));
    return;
  }
  AddFilter(input, std::move(pred), p.columns);
}

// Slot footprint of a bound predicate, for sinking it below a join. False
// when the predicate must not move at all: outer slots, UDF params and
// correlated sub-plans mean different things depending on where the
// expression evaluates.
bool SinkableSlotRange(const BoundExpr& e, int* max_slot) {
  switch (e.kind) {
    case BoundExpr::Kind::kOuterSlot:
    case BoundExpr::Kind::kParam:
      return false;
    case BoundExpr::Kind::kSlot:
      if (e.slot > *max_slot) *max_slot = e.slot;
      break;
    default:
      break;
  }
  if (e.correlated) return false;
  for (const auto& a : e.args) {
    if (!SinkableSlotRange(*a, max_slot)) return false;
  }
  if (e.case_operand && !SinkableSlotRange(*e.case_operand, max_slot)) {
    return false;
  }
  if (e.else_expr && !SinkableSlotRange(*e.else_expr, max_slot)) return false;
  return true;
}

// ---------------------------------------------------------------------------

class PlannerImpl {
 public:
  PlannerImpl(const Catalog* catalog, const UdfRegistry* udfs,
              const PlannerOptions& options)
      : catalog_(catalog), udfs_(udfs), options_(options) {}

  Result<PlanPtr> PlanSelect(const sql::SelectStmt& sel,
                             const BindScope* parent);
  /// Bind `e`, folding every bound node that computes only from literals
  /// (see FoldConstant).
  Result<BoundExprPtr> Bind(const sql::Expr& e, const BindScope* scope,
                            const AggEnv* agg);

 private:
  struct RelInfo {
    PlanPtr plan;
    std::vector<ColumnMeta> cols;
  };

  struct RefAnalysis {
    std::unordered_set<int> rels;
    bool outer = false;
    bool unresolved = false;
  };

  Result<RelInfo> PlanFromItem(const sql::TableRef& t, const BindScope* parent);
  Result<BoundExprPtr> BindNode(const sql::Expr& e, const BindScope* scope,
                                const AggEnv* agg);

  Result<std::vector<ColumnMeta>> OutputColsOfTref(const sql::TableRef& t);
  Result<std::vector<ColumnMeta>> OutputColsOfSelect(const sql::SelectStmt& s);

  Status CollectFreeRefs(const sql::Expr& e,
                         std::vector<const std::vector<ColumnMeta>*>* chain,
                         std::vector<const sql::Expr*>* out);
  Status CollectFreeRefsSelect(const sql::SelectStmt& s,
                               std::vector<const std::vector<ColumnMeta>*>* chain,
                               std::vector<const sql::Expr*>* out);

  Result<RefAnalysis> Analyze(const sql::Expr& e,
                              const std::vector<ColumnMeta>& level_cols,
                              const std::vector<int>& rel_of_slot,
                              const BindScope* parent);

  /// True if any free ref of the sub-query resolves against level_cols.
  Result<bool> SubqueriesRefLevel(const sql::Expr& e,
                                  const std::vector<ColumnMeta>& level_cols);
  Result<bool> SelectRefsLevel(const sql::SelectStmt& s,
                               const std::vector<ColumnMeta>& level_cols);

  /// Build the scope of `sub`'s FROM and sort its WHERE conjuncts into
  /// `out`. False (do not unnest) when a correlated conjunct holds a
  /// sub-query or, unless `allow_residuals`, is not a correlated equality.
  Result<bool> SplitCorrelatedWhere(const sql::SelectStmt& sub,
                                    const std::vector<ColumnMeta>& level_cols,
                                    bool allow_residuals,
                                    CorrelatedWhere* out);
  Result<bool> TryUnnestExistsOrIn(const sql::Expr& conj,
                                   const std::vector<ColumnMeta>& level_cols,
                                   const BindScope* parent, PlanPtr* cur,
                                   std::vector<ColumnMeta>* work_cols);
  Result<bool> TryUnnestScalarAgg(const sql::Expr& conj,
                                  const std::vector<ColumnMeta>& level_cols,
                                  const BindScope* parent, PlanPtr* cur,
                                  std::vector<ColumnMeta>* work_cols);

  const Catalog* catalog_;
  const UdfRegistry* udfs_;
  PlannerOptions options_;
  int unnest_counter_ = 0;
};

Result<std::vector<ColumnMeta>> PlannerImpl::OutputColsOfTref(
    const sql::TableRef& t) {
  std::vector<ColumnMeta> out;
  switch (t.kind) {
    case sql::TableRef::Kind::kBase: {
      const std::string& binding = t.BindingName();
      if (const Table* table = catalog_->FindTable(t.name)) {
        for (const auto& c : table->schema().columns) {
          out.push_back({binding, c.name});
        }
        return out;
      }
      if (const ViewDef* view = catalog_->FindView(t.name)) {
        MTB_ASSIGN_OR_RETURN(auto cols, OutputColsOfSelect(*view->select));
        for (auto& c : cols) out.push_back({binding, c.name});
        return out;
      }
      return Status::NotFound("relation " + t.name + " does not exist");
    }
    case sql::TableRef::Kind::kSubquery: {
      MTB_ASSIGN_OR_RETURN(auto cols, OutputColsOfSelect(*t.subquery));
      for (auto& c : cols) out.push_back({t.alias, c.name});
      return out;
    }
    case sql::TableRef::Kind::kJoin: {
      MTB_ASSIGN_OR_RETURN(auto l, OutputColsOfTref(*t.left));
      MTB_ASSIGN_OR_RETURN(auto r, OutputColsOfTref(*t.right));
      for (auto& c : l) out.push_back(std::move(c));
      for (auto& c : r) out.push_back(std::move(c));
      return out;
    }
  }
  return Status::Internal("bad table ref");
}

Result<std::vector<ColumnMeta>> PlannerImpl::OutputColsOfSelect(
    const sql::SelectStmt& s) {
  std::vector<ColumnMeta> scope_cols;
  for (const auto& t : s.from) {
    MTB_ASSIGN_OR_RETURN(auto cols, OutputColsOfTref(*t));
    for (auto& c : cols) scope_cols.push_back(std::move(c));
  }
  std::vector<ColumnMeta> out;
  for (const auto& item : s.items) {
    if (item.expr->kind == sql::ExprKind::kStar) {
      for (const auto& c : scope_cols) {
        if (!item.expr->qualifier.empty() &&
            !EqualsIgnoreCase(item.expr->qualifier, c.qualifier)) {
          continue;
        }
        out.push_back({"", c.name});
      }
      continue;
    }
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == sql::ExprKind::kColumnRef
                 ? item.expr->column
                 : sql::PrintExpr(*item.expr);
    }
    out.push_back({"", std::move(name)});
  }
  return out;
}

Status PlannerImpl::CollectFreeRefs(
    const sql::Expr& e, std::vector<const std::vector<ColumnMeta>*>* chain,
    std::vector<const sql::Expr*>* out) {
  if (e.kind == sql::ExprKind::kColumnRef) {
    for (const auto* cols : *chain) {
      if (ResolvableAtLevel(e.qualifier, e.column, *cols)) return Status::OK();
    }
    out->push_back(&e);
    return Status::OK();
  }
  for (const auto& a : e.args) {
    MTB_RETURN_IF_ERROR(CollectFreeRefs(*a, chain, out));
  }
  if (e.case_operand) {
    MTB_RETURN_IF_ERROR(CollectFreeRefs(*e.case_operand, chain, out));
  }
  if (e.else_expr) {
    MTB_RETURN_IF_ERROR(CollectFreeRefs(*e.else_expr, chain, out));
  }
  if (e.subquery) {
    MTB_RETURN_IF_ERROR(CollectFreeRefsSelect(*e.subquery, chain, out));
  }
  return Status::OK();
}

Status PlannerImpl::CollectFreeRefsSelect(
    const sql::SelectStmt& s, std::vector<const std::vector<ColumnMeta>*>* chain,
    std::vector<const sql::Expr*>* out) {
  std::vector<ColumnMeta> scope_cols;
  for (const auto& t : s.from) {
    MTB_ASSIGN_OR_RETURN(auto cols, OutputColsOfTref(*t));
    for (auto& c : cols) scope_cols.push_back(std::move(c));
    if (t->kind == sql::TableRef::Kind::kSubquery) {
      MTB_RETURN_IF_ERROR(CollectFreeRefsSelect(*t->subquery, chain, out));
    }
  }
  // Select aliases are resolvable inside GROUP BY / HAVING / ORDER BY.
  for (const auto& item : s.items) {
    if (!item.alias.empty()) scope_cols.push_back({"", item.alias});
  }
  chain->push_back(&scope_cols);
  Status st = Status::OK();
  auto walk = [&](const sql::Expr& e) {
    if (st.ok()) st = CollectFreeRefs(e, chain, out);
  };
  for (const auto& item : s.items) {
    if (item.expr->kind != sql::ExprKind::kStar) walk(*item.expr);
  }
  if (s.where) walk(*s.where);
  for (const auto& g : s.group_by) walk(*g);
  if (s.having) walk(*s.having);
  for (const auto& o : s.order_by) walk(*o.expr);
  std::vector<const sql::TableRef*> stack;
  for (const auto& t : s.from) stack.push_back(t.get());
  while (!stack.empty() && st.ok()) {
    const sql::TableRef* t = stack.back();
    stack.pop_back();
    if (t->kind == sql::TableRef::Kind::kJoin) {
      if (t->join_cond) walk(*t->join_cond);
      stack.push_back(t->left.get());
      stack.push_back(t->right.get());
    }
  }
  chain->pop_back();
  return st;
}

Result<PlannerImpl::RefAnalysis> PlannerImpl::Analyze(
    const sql::Expr& e, const std::vector<ColumnMeta>& level_cols,
    const std::vector<int>& rel_of_slot, const BindScope* parent) {
  std::vector<const std::vector<ColumnMeta>*> chain;
  std::vector<const sql::Expr*> refs;
  MTB_RETURN_IF_ERROR(CollectFreeRefs(e, &chain, &refs));
  RefAnalysis out;
  for (const sql::Expr* r : refs) {
    MTB_ASSIGN_OR_RETURN(int slot,
                         ResolveAtLevel(r->qualifier, r->column, level_cols));
    if (slot >= 0) {
      out.rels.insert(rel_of_slot[static_cast<size_t>(slot)]);
      continue;
    }
    bool found_outer = false;
    for (const BindScope* s = parent; s != nullptr; s = s->parent) {
      if (ResolvableAtLevel(r->qualifier, r->column, *s->cols)) {
        found_outer = true;
        break;
      }
    }
    if (found_outer) {
      out.outer = true;
    } else {
      out.unresolved = true;
    }
  }
  return out;
}

Result<bool> PlannerImpl::SubqueriesRefLevel(
    const sql::Expr& e, const std::vector<ColumnMeta>& level_cols) {
  if (e.subquery) {
    MTB_ASSIGN_OR_RETURN(bool refs, SelectRefsLevel(*e.subquery, level_cols));
    if (refs) return true;
  }
  for (const auto& a : e.args) {
    MTB_ASSIGN_OR_RETURN(bool refs, SubqueriesRefLevel(*a, level_cols));
    if (refs) return true;
  }
  if (e.case_operand) {
    MTB_ASSIGN_OR_RETURN(bool refs, SubqueriesRefLevel(*e.case_operand, level_cols));
    if (refs) return true;
  }
  if (e.else_expr) {
    MTB_ASSIGN_OR_RETURN(bool refs, SubqueriesRefLevel(*e.else_expr, level_cols));
    if (refs) return true;
  }
  return false;
}

Result<bool> PlannerImpl::SelectRefsLevel(
    const sql::SelectStmt& s, const std::vector<ColumnMeta>& level_cols) {
  std::vector<const std::vector<ColumnMeta>*> chain;
  std::vector<const sql::Expr*> refs;
  MTB_RETURN_IF_ERROR(CollectFreeRefsSelect(s, &chain, &refs));
  for (const sql::Expr* r : refs) {
    if (ResolvableAtLevel(r->qualifier, r->column, level_cols)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// FROM items
// ---------------------------------------------------------------------------

Result<PlannerImpl::RelInfo> PlannerImpl::PlanFromItem(const sql::TableRef& t,
                                                       const BindScope* parent) {
  RelInfo info;
  switch (t.kind) {
    case sql::TableRef::Kind::kBase: {
      const std::string& binding = t.BindingName();
      if (const Table* table = catalog_->FindTable(t.name)) {
        auto scan = std::make_unique<Plan>();
        scan->kind = Plan::Kind::kScan;
        scan->table = table;
        for (const auto& c : table->schema().columns) {
          scan->columns.push_back({binding, c.name});
        }
        info.cols = scan->columns;
        info.plan = std::move(scan);
        return info;
      }
      if (const ViewDef* view = catalog_->FindView(t.name)) {
        MTB_ASSIGN_OR_RETURN(info.plan, PlanSelect(*view->select, nullptr));
        for (auto& c : info.plan->columns) c.qualifier = binding;
        info.cols = info.plan->columns;
        return info;
      }
      return Status::NotFound("relation " + t.name + " does not exist");
    }
    case sql::TableRef::Kind::kSubquery: {
      MTB_ASSIGN_OR_RETURN(info.plan, PlanSelect(*t.subquery, parent));
      for (auto& c : info.plan->columns) c.qualifier = t.alias;
      info.cols = info.plan->columns;
      return info;
    }
    case sql::TableRef::Kind::kJoin: {
      MTB_ASSIGN_OR_RETURN(RelInfo li, PlanFromItem(*t.left, parent));
      MTB_ASSIGN_OR_RETURN(RelInfo ri, PlanFromItem(*t.right, parent));
      auto join = std::make_unique<Plan>();
      join->kind = Plan::Kind::kJoin;
      join->join_kind =
          t.join_type == sql::JoinType::kLeft ? JoinKind::kLeft : JoinKind::kInner;
      std::vector<ColumnMeta> concat = li.cols;
      for (const auto& c : ri.cols) concat.push_back(c);
      BindScope lscope{&li.cols, parent};
      BindScope rscope{&ri.cols, parent};
      BindScope cscope{&concat, parent};
      std::vector<sql::ExprPtr> conjs;
      if (t.join_cond) SplitAndClone(*t.join_cond, &conjs);
      BoundExprPtr residual;
      for (auto& c : conjs) {
        // Single-side ON conjuncts sink into their input, where partition
        // pruning and index selection can use them. The right input is
        // always safe (the predicate only decides which right rows can
        // match); the left input only under INNER (a LEFT join preserves
        // left rows that fail the ON). Conjuncts whose refs resolve on
        // *both* sides fall through, so ambiguous references keep failing
        // in Bind below exactly as before.
        if (!ContainsSubquery(*c)) {
          std::vector<const std::vector<ColumnMeta>*> cl{&li.cols};
          std::vector<const std::vector<ColumnMeta>*> cr{&ri.cols};
          std::vector<const sql::Expr*> not_on_left, not_on_right;
          MTB_RETURN_IF_ERROR(CollectFreeRefs(*c, &cl, &not_on_left));
          MTB_RETURN_IF_ERROR(CollectFreeRefs(*c, &cr, &not_on_right));
          if (not_on_right.empty() && !not_on_left.empty()) {
            MTB_ASSIGN_OR_RETURN(auto b, Bind(*c, &rscope, nullptr));
            AttachFilterToInput(&ri.plan, std::move(b));
            continue;
          }
          if (join->join_kind == JoinKind::kInner && not_on_left.empty() &&
              !not_on_right.empty()) {
            MTB_ASSIGN_OR_RETURN(auto b, Bind(*c, &lscope, nullptr));
            AttachFilterToInput(&li.plan, std::move(b));
            continue;
          }
        }
        bool is_key = false;
        if (c->kind == sql::ExprKind::kBinary && c->op == "=" &&
            !ContainsSubquery(*c)) {
          std::vector<const std::vector<ColumnMeta>*> chain_l{&li.cols};
          std::vector<const std::vector<ColumnMeta>*> chain_r{&ri.cols};
          std::vector<const sql::Expr*> free_l, free_r;
          MTB_RETURN_IF_ERROR(CollectFreeRefs(*c->args[0], &chain_l, &free_l));
          MTB_RETURN_IF_ERROR(CollectFreeRefs(*c->args[1], &chain_r, &free_r));
          if (free_l.empty() && free_r.empty()) {
            MTB_ASSIGN_OR_RETURN(auto lk, Bind(*c->args[0], &lscope, nullptr));
            MTB_ASSIGN_OR_RETURN(auto rk, Bind(*c->args[1], &rscope, nullptr));
            join->left_keys.push_back(std::move(lk));
            join->right_keys.push_back(std::move(rk));
            is_key = true;
          } else {
            // Try the swapped orientation.
            std::vector<const sql::Expr*> free_l2, free_r2;
            MTB_RETURN_IF_ERROR(CollectFreeRefs(*c->args[1], &chain_l, &free_l2));
            MTB_RETURN_IF_ERROR(CollectFreeRefs(*c->args[0], &chain_r, &free_r2));
            if (free_l2.empty() && free_r2.empty()) {
              MTB_ASSIGN_OR_RETURN(auto lk, Bind(*c->args[1], &lscope, nullptr));
              MTB_ASSIGN_OR_RETURN(auto rk, Bind(*c->args[0], &rscope, nullptr));
              join->left_keys.push_back(std::move(lk));
              join->right_keys.push_back(std::move(rk));
              is_key = true;
            }
          }
        }
        if (!is_key) {
          MTB_ASSIGN_OR_RETURN(auto b, Bind(*c, &cscope, nullptr));
          residual = AndBound(std::move(residual), std::move(b));
        }
      }
      join->residual = std::move(residual);
      join->left = std::move(li.plan);
      join->right = std::move(ri.plan);
      join->columns = concat;
      info.cols = std::move(concat);
      info.plan = std::move(join);
      return info;
    }
  }
  return Status::Internal("bad table ref");
}

// ---------------------------------------------------------------------------
// Sub-query unnesting
// ---------------------------------------------------------------------------

Result<bool> PlannerImpl::SplitCorrelatedWhere(
    const sql::SelectStmt& sub, const std::vector<ColumnMeta>& level_cols,
    bool allow_residuals, CorrelatedWhere* out) {
  for (const auto& t : sub.from) {
    MTB_ASSIGN_OR_RETURN(auto cols, OutputColsOfTref(*t));
    for (auto& c : cols) out->sub_cols.push_back(std::move(c));
  }
  std::vector<sql::ExprPtr> conjs;
  if (sub.where) SplitAndClone(*sub.where, &conjs);
  for (auto& c : conjs) {
    std::vector<const std::vector<ColumnMeta>*> chain{&out->sub_cols};
    std::vector<const sql::Expr*> free;
    MTB_RETURN_IF_ERROR(CollectFreeRefs(*c, &chain, &free));
    bool refs_level = false;
    for (const auto* r : free) {
      if (ResolvableAtLevel(r->qualifier, r->column, level_cols)) {
        refs_level = true;
        break;
      }
    }
    if (!refs_level) {
      out->locals.push_back(std::move(c));
      continue;
    }
    if (ContainsSubquery(*c)) return false;
    bool made_key = false;
    if (c->kind == sql::ExprKind::kBinary && c->op == "=") {
      for (int side = 0; side < 2 && !made_key; ++side) {
        const sql::Expr& inner = *c->args[static_cast<size_t>(side)];
        const sql::Expr& outer = *c->args[static_cast<size_t>(1 - side)];
        std::vector<const sql::Expr*> fi, fo;
        std::vector<const std::vector<ColumnMeta>*> ci{&out->sub_cols};
        std::vector<const std::vector<ColumnMeta>*> co;
        MTB_RETURN_IF_ERROR(CollectFreeRefs(inner, &ci, &fi));
        MTB_RETURN_IF_ERROR(CollectFreeRefs(outer, &co, &fo));
        bool inner_local = fi.empty();
        bool outer_in_level = !fo.empty();
        for (const auto* r : fo) {
          if (!ResolvableAtLevel(r->qualifier, r->column, level_cols)) {
            outer_in_level = false;
            break;
          }
        }
        if (inner_local && outer_in_level) {
          out->keys.push_back({outer.Clone(), inner.Clone()});
          made_key = true;
        }
      }
    }
    if (!made_key) {
      if (!allow_residuals) return false;
      out->residuals.push_back(std::move(c));
    }
  }
  return true;
}

Result<bool> PlannerImpl::TryUnnestExistsOrIn(
    const sql::Expr& conj_in, const std::vector<ColumnMeta>& level_cols,
    const BindScope* parent, PlanPtr* cur, std::vector<ColumnMeta>* work_cols) {
  const sql::Expr* conj = &conj_in;
  bool negated = false;
  if (conj->kind == sql::ExprKind::kUnary && conj->op == "NOT") {
    negated = true;
    conj = conj->args[0].get();
  }
  bool is_exists = conj->kind == sql::ExprKind::kExists;
  bool is_in = conj->kind == sql::ExprKind::kInSubquery;
  if (!is_exists && !is_in) return false;
  negated = negated != conj->negated;
  const sql::SelectStmt& sub = *conj->subquery;
  if (!sub.group_by.empty() || sub.having || sub.limit >= 0 || sub.from.empty()) {
    return false;
  }
  if (is_in) {
    if (sub.items.size() != conj->args.size()) return false;
    for (const auto& item : sub.items) {
      if (item.expr->kind == sql::ExprKind::kStar) return false;
      std::vector<const sql::Expr*> aggs;
      CollectAggCalls(*item.expr, &aggs);
      if (!aggs.empty()) return false;
    }
  }
  // Split the sub-query's WHERE into local conjuncts, correlated equality
  // keys, and residual correlated conjuncts.
  CorrelatedWhere split;
  MTB_ASSIGN_OR_RETURN(bool splittable,
                       SplitCorrelatedWhere(sub, level_cols,
                                            /*allow_residuals=*/true, &split));
  if (!splittable) return false;
  const std::vector<ColumnMeta>& sub_cols = split.sub_cols;
  std::vector<KeyPair>& keys = split.keys;
  std::vector<sql::ExprPtr>& residuals = split.residuals;
  // IN with residual (non-equality) correlated conjuncts falls back to the
  // per-row path: the decorrelated sub-query projects only the IN items and
  // correlation keys, so a residual's references to other inner columns
  // cannot bind (and the null-aware anti join for NOT IN would need
  // per-group residual evaluation).
  if (is_in && !residuals.empty()) return false;
  // Build the decorrelated sub-query.
  auto modified = std::make_unique<sql::SelectStmt>();
  for (const auto& t : sub.from) modified->from.push_back(t->Clone());
  modified->where = sql::AndAll(std::move(split.locals));
  std::vector<BoundExprPtr> right_keys;
  std::vector<sql::ExprPtr> outer_keys;
  if (is_exists) {
    sql::SelectItem star;
    star.expr = std::make_unique<sql::Expr>();
    star.expr->kind = sql::ExprKind::kStar;
    modified->items.push_back(std::move(star));
    if (keys.empty()) return false;
  } else {
    for (size_t i = 0; i < sub.items.size(); ++i) {
      sql::SelectItem item;
      item.expr = sub.items[i].expr->Clone();
      item.alias = "__s" + std::to_string(unnest_counter_) + "_i" +
                   std::to_string(i);
      modified->items.push_back(std::move(item));
      right_keys.push_back(MakeSlot(static_cast<int>(i)));
      outer_keys.push_back(conj->args[i]->Clone());
    }
    size_t base = sub.items.size();
    for (size_t i = 0; i < keys.size(); ++i) {
      sql::SelectItem item;
      item.expr = keys[i].inner->Clone();
      item.alias = "__s" + std::to_string(unnest_counter_) + "_k" +
                   std::to_string(i);
      modified->items.push_back(std::move(item));
      right_keys.push_back(MakeSlot(static_cast<int>(base + i)));
    }
  }
  // Bail out if the decorrelated form still references the current level
  // (e.g. in the select list) — fall back to per-row evaluation.
  MTB_ASSIGN_OR_RETURN(bool still_refs, SelectRefsLevel(*modified, level_cols));
  if (still_refs) return false;
  ++unnest_counter_;

  MTB_ASSIGN_OR_RETURN(PlanPtr subplan, PlanSelect(*modified, parent));

  auto join = std::make_unique<Plan>();
  join->kind = Plan::Kind::kJoin;
  join->join_kind = negated ? JoinKind::kAnti : JoinKind::kSemi;
  if (is_exists) {
    join->decorrelated_from =
        negated ? SubqueryOrigin::kNotExists : SubqueryOrigin::kExists;
  } else {
    join->decorrelated_from =
        negated ? SubqueryOrigin::kNotIn : SubqueryOrigin::kIn;
    if (negated) {
      // x NOT IN (S) is NULL (never TRUE) when x is NULL or S contains a
      // NULL; a plain anti join would keep such rows.
      join->null_aware = true;
      join->naaj_in_keys = sub.items.size();
    }
  }
  BindScope outer_scope{work_cols, parent};
  if (is_exists) {
    // The modified sub-query is SELECT * over its FROM, so its output slots
    // line up with sub_cols — which, unlike the star-expanded output columns,
    // retain their table qualifiers for binding.
    BindScope inner_scope{&sub_cols, parent};
    for (auto& k : keys) {
      MTB_ASSIGN_OR_RETURN(auto ok, Bind(*k.outer, &outer_scope, nullptr));
      MTB_ASSIGN_OR_RETURN(auto ik, Bind(*k.inner, &inner_scope, nullptr));
      join->left_keys.push_back(std::move(ok));
      join->right_keys.push_back(std::move(ik));
    }
  } else {
    for (auto& ok_ast : outer_keys) {
      MTB_ASSIGN_OR_RETURN(auto ok, Bind(*ok_ast, &outer_scope, nullptr));
      join->left_keys.push_back(std::move(ok));
    }
    for (auto& k : keys) {
      MTB_ASSIGN_OR_RETURN(auto ok, Bind(*k.outer, &outer_scope, nullptr));
      join->left_keys.push_back(std::move(ok));
    }
    join->right_keys = std::move(right_keys);
  }
  // Residual conjuncts bind against concat(outer, inner). For EXISTS the
  // inner layout is the (qualified) FROM scope, which matches the star
  // projection; for IN it is the explicit item list.
  if (!residuals.empty()) {
    std::vector<ColumnMeta> concat = *work_cols;
    const std::vector<ColumnMeta>& inner_cols =
        is_exists ? sub_cols : subplan->columns;
    for (const auto& c : inner_cols) concat.push_back(c);
    BindScope cscope{&concat, parent};
    BoundExprPtr res;
    for (auto& r : residuals) {
      MTB_ASSIGN_OR_RETURN(auto b, Bind(*r, &cscope, nullptr));
      res = AndBound(std::move(res), std::move(b));
    }
    join->residual = std::move(res);
  }
  join->columns = *work_cols;
  join->left = std::move(*cur);
  join->right = std::move(subplan);
  *cur = std::move(join);
  return true;
}

Result<bool> PlannerImpl::TryUnnestScalarAgg(
    const sql::Expr& conj, const std::vector<ColumnMeta>& level_cols,
    const BindScope* parent, PlanPtr* cur, std::vector<ColumnMeta>* work_cols) {
  if (conj.kind != sql::ExprKind::kBinary) return false;
  const std::string& op = conj.op;
  if (op != "=" && op != "<>" && op != "<" && op != "<=" && op != ">" &&
      op != ">=") {
    return false;
  }
  int sub_side = -1;
  for (int i = 0; i < 2; ++i) {
    if (conj.args[static_cast<size_t>(i)]->kind ==
        sql::ExprKind::kScalarSubquery) {
      sub_side = i;
    }
  }
  if (sub_side < 0) return false;
  const sql::Expr& other = *conj.args[static_cast<size_t>(1 - sub_side)];
  if (ContainsSubquery(other)) return false;
  const sql::SelectStmt& sub =
      *conj.args[static_cast<size_t>(sub_side)]->subquery;
  if (sub.items.size() != 1 || !sub.group_by.empty() || sub.having ||
      sub.limit >= 0 || sub.distinct || sub.from.empty()) {
    return false;
  }
  if (sub.items[0].expr->kind == sql::ExprKind::kStar) return false;
  std::vector<const sql::Expr*> aggs;
  CollectAggCalls(*sub.items[0].expr, &aggs);
  if (aggs.empty()) return false;
  for (const auto* a : aggs) {
    // Decorrelation via GROUP BY loses empty groups; COUNT would change from
    // 0 to no-row, so bail out to per-row evaluation.
    if (EqualsIgnoreCase(a->fname, "COUNT")) return false;
  }
  // Residuals are not supported under the GROUP BY this form builds.
  CorrelatedWhere split;
  MTB_ASSIGN_OR_RETURN(bool splittable,
                       SplitCorrelatedWhere(sub, level_cols,
                                            /*allow_residuals=*/false, &split));
  if (!splittable) return false;
  std::vector<KeyPair>& keys = split.keys;
  if (keys.empty()) return false;

  int job = unnest_counter_++;
  auto modified = std::make_unique<sql::SelectStmt>();
  for (const auto& t : sub.from) modified->from.push_back(t->Clone());
  modified->where = sql::AndAll(std::move(split.locals));
  for (size_t i = 0; i < keys.size(); ++i) {
    sql::SelectItem item;
    item.expr = keys[i].inner->Clone();
    item.alias = "__u" + std::to_string(job) + "_k" + std::to_string(i);
    modified->items.push_back(std::move(item));
    modified->group_by.push_back(keys[i].inner->Clone());
  }
  sql::SelectItem agg_item;
  agg_item.expr = sub.items[0].expr->Clone();
  agg_item.alias = "__u" + std::to_string(job) + "_agg";
  modified->items.push_back(std::move(agg_item));

  MTB_ASSIGN_OR_RETURN(bool still_refs, SelectRefsLevel(*modified, level_cols));
  if (still_refs) return false;

  MTB_ASSIGN_OR_RETURN(PlanPtr subplan, PlanSelect(*modified, parent));

  auto join = std::make_unique<Plan>();
  join->kind = Plan::Kind::kJoin;
  join->join_kind = JoinKind::kLeft;
  join->decorrelated_from = SubqueryOrigin::kScalarAgg;
  BindScope outer_scope{work_cols, parent};
  for (size_t i = 0; i < keys.size(); ++i) {
    MTB_ASSIGN_OR_RETURN(auto ok, Bind(*keys[i].outer, &outer_scope, nullptr));
    join->left_keys.push_back(std::move(ok));
    join->right_keys.push_back(MakeSlot(static_cast<int>(i)));
  }
  int outer_width = static_cast<int>(work_cols->size());
  std::vector<ColumnMeta> concat = *work_cols;
  for (const auto& c : subplan->columns) concat.push_back(c);
  join->columns = concat;
  join->left = std::move(*cur);
  join->right = std::move(subplan);

  // expr op agg_slot, evaluated after the outer join.
  BindScope cscope{&concat, parent};
  MTB_ASSIGN_OR_RETURN(auto other_bound, Bind(other, &cscope, nullptr));
  auto cmp = std::make_unique<BoundExpr>();
  cmp->kind = BoundExpr::Kind::kBinary;
  static const std::unordered_map<std::string, BinOp> kOps = {
      {"=", BinOp::kEq}, {"<>", BinOp::kNe}, {"<", BinOp::kLt},
      {"<=", BinOp::kLe}, {">", BinOp::kGt}, {">=", BinOp::kGe}};
  cmp->bin_op = kOps.at(op);
  BoundExprPtr agg_slot = MakeSlot(outer_width + static_cast<int>(keys.size()));
  if (sub_side == 0) {  // (sub) op other
    cmp->args.push_back(std::move(agg_slot));
    cmp->args.push_back(std::move(other_bound));
  } else {  // other op (sub)
    cmp->args.push_back(std::move(other_bound));
    cmp->args.push_back(std::move(agg_slot));
  }
  *cur = std::move(join);
  AddFilter(cur, std::move(cmp), concat);
  *work_cols = std::move(concat);
  return true;
}

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

Result<BoundExprPtr> PlannerImpl::Bind(const sql::Expr& e,
                                       const BindScope* scope,
                                       const AggEnv* agg) {
  MTB_ASSIGN_OR_RETURN(BoundExprPtr b, BindNode(e, scope, agg));
  FoldConstant(&b);
  return b;
}

Result<BoundExprPtr> PlannerImpl::BindNode(const sql::Expr& e,
                                           const BindScope* scope,
                                           const AggEnv* agg) {
  using K = sql::ExprKind;
  if (agg) {
    auto it = agg->slots.find(sql::PrintExpr(e));
    if (it != agg->slots.end()) return MakeSlot(it->second);
  }
  auto b = std::make_unique<BoundExpr>();
  switch (e.kind) {
    case K::kLiteral:
      b->kind = BoundExpr::Kind::kLiteral;
      b->literal = e.literal;
      return b;
    case K::kColumnRef: {
      int depth = 0;
      for (const BindScope* s = scope; s != nullptr; s = s->parent, ++depth) {
        MTB_ASSIGN_OR_RETURN(int slot,
                             ResolveAtLevel(e.qualifier, e.column, *s->cols));
        if (slot >= 0) {
          if (depth == 0) return MakeSlot(slot);
          b->kind = BoundExpr::Kind::kOuterSlot;
          b->slot = slot;
          b->depth = depth;
          return b;
        }
      }
      return Status::NotFound(
          "column not found: " +
          (e.qualifier.empty() ? e.column : e.qualifier + "." + e.column));
    }
    case K::kStar:
      return Status::InvalidArgument("'*' is only valid in SELECT or COUNT(*)");
    case K::kParam:
      b->kind = BoundExpr::Kind::kParam;
      b->param_index = e.param_index;
      return b;
    case K::kUnary: {
      MTB_ASSIGN_OR_RETURN(auto arg, Bind(*e.args[0], scope, agg));
      // Fold NOT into EXISTS / IN-set nodes (their `negated` flag has the
      // same three-valued semantics), so EXPLAIN labels the per-row
      // fallback as NOT EXISTS / NOT IN rather than NOT over a sub-query.
      if (e.op == "NOT" && (arg->kind == BoundExpr::Kind::kExistsSub ||
                            arg->kind == BoundExpr::Kind::kInSet)) {
        arg->negated = !arg->negated;
        return arg;
      }
      b->kind = e.op == "NOT" ? BoundExpr::Kind::kNot : BoundExpr::Kind::kNeg;
      b->args.push_back(std::move(arg));
      return b;
    }
    case K::kBinary: {
      // DATE +/- INTERVAL.
      if ((e.op == "+" || e.op == "-") &&
          e.args[1]->kind == K::kInterval) {
        MTB_ASSIGN_OR_RETURN(auto date_arg, Bind(*e.args[0], scope, agg));
        int64_t count = e.args[1]->args[0]->literal.int_value();
        if (e.op == "-") count = -count;
        b->kind = BoundExpr::Kind::kBuiltin;
        const std::string& u = e.args[1]->interval_unit;
        b->builtin = u == "DAY"
                         ? BuiltinFunc::kDateAddDays
                         : (u == "MONTH" ? BuiltinFunc::kDateAddMonths
                                         : BuiltinFunc::kDateAddYears);
        b->args.push_back(std::move(date_arg));
        b->args.push_back(MakeBoundLit(Value::Int(count)));
        return b;
      }
      static const std::unordered_map<std::string, BinOp> kOps = {
          {"AND", BinOp::kAnd}, {"OR", BinOp::kOr},   {"=", BinOp::kEq},
          {"<>", BinOp::kNe},   {"<", BinOp::kLt},    {"<=", BinOp::kLe},
          {">", BinOp::kGt},    {">=", BinOp::kGe},   {"+", BinOp::kAdd},
          {"-", BinOp::kSub},   {"*", BinOp::kMul},   {"/", BinOp::kDiv},
          {"||", BinOp::kConcat}, {"LIKE", BinOp::kLike},
          {"NOT LIKE", BinOp::kNotLike}};
      auto it = kOps.find(e.op);
      if (it == kOps.end()) {
        return Status::InvalidArgument("unknown operator " + e.op);
      }
      MTB_ASSIGN_OR_RETURN(auto lhs, Bind(*e.args[0], scope, agg));
      MTB_ASSIGN_OR_RETURN(auto rhs, Bind(*e.args[1], scope, agg));
      b->kind = BoundExpr::Kind::kBinary;
      b->bin_op = it->second;
      b->args.push_back(std::move(lhs));
      b->args.push_back(std::move(rhs));
      return b;
    }
    case K::kFunction: {
      if (IsAggName(e.fname)) {
        return Status::InvalidArgument(
            "aggregate function " + e.fname +
            " is not allowed in this context (missing GROUP BY?)");
      }
      if (e.fname == "__row") {
        return Status::SyntaxError("row expression is only valid before IN");
      }
      std::string f = ToLowerCopy(e.fname);
      static const std::unordered_map<std::string, BuiltinFunc> kBuiltins = {
          {"substring", BuiltinFunc::kSubstring},
          {"concat", BuiltinFunc::kConcat},
          {"char_length", BuiltinFunc::kCharLength},
          {"character_length", BuiltinFunc::kCharLength},
          {"length", BuiltinFunc::kCharLength},
          {"upper", BuiltinFunc::kUpper},
          {"lower", BuiltinFunc::kLower},
          {"abs", BuiltinFunc::kAbs},
          {"coalesce", BuiltinFunc::kCoalesce}};
      auto bit = kBuiltins.find(f);
      if (bit != kBuiltins.end()) {
        b->kind = BoundExpr::Kind::kBuiltin;
        b->builtin = bit->second;
        for (const auto& a : e.args) {
          MTB_ASSIGN_OR_RETURN(auto ba, Bind(*a, scope, agg));
          b->args.push_back(std::move(ba));
        }
        return b;
      }
      const Udf* udf = udfs_->Find(e.fname);
      if (udf == nullptr) {
        return Status::NotFound("unknown function " + e.fname);
      }
      if (udf->arg_types.size() != e.args.size()) {
        return Status::InvalidArgument("wrong argument count for " + e.fname);
      }
      b->kind = BoundExpr::Kind::kUdfCall;
      b->udf = udf;
      for (const auto& a : e.args) {
        MTB_ASSIGN_OR_RETURN(auto ba, Bind(*a, scope, agg));
        b->args.push_back(std::move(ba));
      }
      return b;
    }
    case K::kCase: {
      b->kind = BoundExpr::Kind::kCase;
      for (size_t i = 0; i + 1 < e.args.size(); i += 2) {
        BoundExprPtr cond;
        if (e.case_operand) {
          auto eq = std::make_unique<BoundExpr>();
          eq->kind = BoundExpr::Kind::kBinary;
          eq->bin_op = BinOp::kEq;
          MTB_ASSIGN_OR_RETURN(auto opnd, Bind(*e.case_operand, scope, agg));
          MTB_ASSIGN_OR_RETURN(auto when, Bind(*e.args[i], scope, agg));
          eq->args.push_back(std::move(opnd));
          eq->args.push_back(std::move(when));
          cond = std::move(eq);
        } else {
          MTB_ASSIGN_OR_RETURN(cond, Bind(*e.args[i], scope, agg));
        }
        MTB_ASSIGN_OR_RETURN(auto then, Bind(*e.args[i + 1], scope, agg));
        b->args.push_back(std::move(cond));
        b->args.push_back(std::move(then));
      }
      if (e.else_expr) {
        MTB_ASSIGN_OR_RETURN(b->else_expr, Bind(*e.else_expr, scope, agg));
      }
      return b;
    }
    case K::kInList: {
      b->kind = BoundExpr::Kind::kInList;
      b->negated = e.negated;
      for (const auto& a : e.args) {
        MTB_ASSIGN_OR_RETURN(auto ba, Bind(*a, scope, agg));
        b->args.push_back(std::move(ba));
      }
      return b;
    }
    case K::kInSubquery: {
      b->kind = BoundExpr::Kind::kInSet;
      b->negated = e.negated;
      for (const auto& a : e.args) {
        MTB_ASSIGN_OR_RETURN(auto ba, Bind(*a, scope, agg));
        b->args.push_back(std::move(ba));
      }
      MTB_ASSIGN_OR_RETURN(PlanPtr sub, PlanSelect(*e.subquery, scope));
      if (sub->columns.size() != b->args.size()) {
        return Status::InvalidArgument(
            sub->columns.size() > b->args.size()
                ? "subquery has too many columns"
                : "subquery has too few columns");
      }
      b->correlated = PlanHasOuterRefs(*sub);
      b->subplan = std::shared_ptr<const Plan>(std::move(sub));
      return b;
    }
    case K::kExists: {
      b->kind = BoundExpr::Kind::kExistsSub;
      b->negated = e.negated;
      MTB_ASSIGN_OR_RETURN(PlanPtr sub, PlanSelect(*e.subquery, scope));
      b->correlated = PlanHasOuterRefs(*sub);
      b->subplan = std::shared_ptr<const Plan>(std::move(sub));
      return b;
    }
    case K::kScalarSubquery: {
      b->kind = BoundExpr::Kind::kScalarSub;
      MTB_ASSIGN_OR_RETURN(PlanPtr sub, PlanSelect(*e.subquery, scope));
      b->correlated = PlanHasOuterRefs(*sub);
      b->subplan = std::shared_ptr<const Plan>(std::move(sub));
      return b;
    }
    case K::kBetween: {
      b->kind = BoundExpr::Kind::kBetween;
      b->negated = e.negated;
      for (const auto& a : e.args) {
        MTB_ASSIGN_OR_RETURN(auto ba, Bind(*a, scope, agg));
        b->args.push_back(std::move(ba));
      }
      return b;
    }
    case K::kIsNull: {
      b->kind = BoundExpr::Kind::kIsNull;
      b->negated = e.negated;
      MTB_ASSIGN_OR_RETURN(auto ba, Bind(*e.args[0], scope, agg));
      b->args.push_back(std::move(ba));
      return b;
    }
    case K::kExtract: {
      b->kind = BoundExpr::Kind::kBuiltin;
      if (e.extract_field == "YEAR") {
        b->builtin = BuiltinFunc::kExtractYear;
      } else if (e.extract_field == "MONTH") {
        b->builtin = BuiltinFunc::kExtractMonth;
      } else if (e.extract_field == "DAY") {
        b->builtin = BuiltinFunc::kExtractDay;
      } else {
        return Status::Unimplemented("EXTRACT field " + e.extract_field);
      }
      MTB_ASSIGN_OR_RETURN(auto ba, Bind(*e.args[0], scope, agg));
      b->args.push_back(std::move(ba));
      return b;
    }
    case K::kInterval:
      return Status::InvalidArgument(
          "INTERVAL is only valid in date arithmetic");
  }
  return Status::Internal("unhandled expression kind");
}

// ---------------------------------------------------------------------------
// SELECT planning
// ---------------------------------------------------------------------------

Result<PlanPtr> PlannerImpl::PlanSelect(const sql::SelectStmt& sel,
                                        const BindScope* parent) {
  // 1. FROM.
  std::vector<RelInfo> rels;
  std::vector<ColumnMeta> level_cols;
  std::vector<int> rel_of_slot;
  for (const auto& t : sel.from) {
    MTB_ASSIGN_OR_RETURN(RelInfo info, PlanFromItem(*t, parent));
    for (const auto& c : info.cols) {
      level_cols.push_back(c);
      rel_of_slot.push_back(static_cast<int>(rels.size()));
    }
    rels.push_back(std::move(info));
  }
  if (rels.empty()) {
    RelInfo dummy;
    dummy.plan = std::make_unique<Plan>();
    dummy.plan->kind = Plan::Kind::kScan;  // table == nullptr: one empty row
    rels.push_back(std::move(dummy));
  }

  // 2. Classify WHERE conjuncts.
  std::vector<sql::ExprPtr> conjs;
  if (sel.where) SplitAndClone(*sel.where, &conjs);

  std::vector<std::vector<sql::ExprPtr>> scan_filters(rels.size());
  std::vector<sql::ExprPtr> join_conjs;
  std::vector<sql::ExprPtr> post_filters;
  std::vector<sql::ExprPtr> subq_conjs;

  for (auto& c : conjs) {
    MTB_ASSIGN_OR_RETURN(RefAnalysis info,
                         Analyze(*c, level_cols, rel_of_slot, parent));
    if (info.unresolved) {
      post_filters.push_back(std::move(c));  // binding will report the error
      continue;
    }
    if (ContainsSubquery(*c)) {
      MTB_ASSIGN_OR_RETURN(bool corr, SubqueriesRefLevel(*c, level_cols));
      if (corr) {
        subq_conjs.push_back(std::move(c));
        continue;
      }
      // Sub-queries independent of this level: treat like a plain predicate.
      if (!info.outer && info.rels.size() == 1) {
        scan_filters[static_cast<size_t>(*info.rels.begin())].push_back(
            std::move(c));
      } else {
        post_filters.push_back(std::move(c));
      }
      continue;
    }
    if (info.outer) {
      post_filters.push_back(std::move(c));
      continue;
    }
    if (info.rels.size() == 1) {
      scan_filters[static_cast<size_t>(*info.rels.begin())].push_back(
          std::move(c));
    } else if (info.rels.size() >= 2) {
      join_conjs.push_back(std::move(c));
    } else {
      post_filters.push_back(std::move(c));  // constant predicate
    }
  }

  // 3. Attach pushed-down filters.
  int offset = 0;
  std::vector<int> rel_offset(rels.size(), 0);
  for (size_t i = 0; i < rels.size(); ++i) {
    rel_offset[i] = offset;
    offset += static_cast<int>(rels[i].cols.size());
    if (scan_filters[i].empty()) continue;
    BindScope rel_scope{&rels[i].cols, parent};
    BoundExprPtr pred;
    for (auto& c : scan_filters[i]) {
      MTB_ASSIGN_OR_RETURN(auto b, Bind(*c, &rel_scope, nullptr));
      // An explicit-join FROM item: sink the conjunct through preserved
      // (left) inputs while its slots stay inside them — the left input's
      // columns are a prefix of the join's, so slots keep their meaning.
      // This is what lets tenant D-filters prune partitions below a
      // LEFT JOIN (TPC-H Q13's shape).
      if (rels[i].plan->kind == Plan::Kind::kJoin) {
        int max_slot = -1;
        if (SinkableSlotRange(*b, &max_slot)) {
          PlanPtr* target = &rels[i].plan;
          while ((*target)->kind == Plan::Kind::kJoin &&
                 ((*target)->join_kind == JoinKind::kInner ||
                  (*target)->join_kind == JoinKind::kLeft) &&
                 max_slot <
                     static_cast<int>((*target)->left->columns.size())) {
            target = &(*target)->left;
          }
          if (target != &rels[i].plan) {
            AttachFilterToInput(target, std::move(b));
            continue;
          }
        }
      }
      pred = AndBound(std::move(pred), std::move(b));
    }
    if (!pred) continue;
    if (rels[i].plan->kind == Plan::Kind::kScan) {
      rels[i].plan->scan_filter =
          AndBound(std::move(rels[i].plan->scan_filter), std::move(pred));
    } else {
      AddFilter(&rels[i].plan, std::move(pred), rels[i].cols);
    }
  }

  // 4. Left-deep joins in FROM order.
  PlanPtr cur = std::move(rels[0].plan);
  std::vector<ColumnMeta> cur_cols = rels[0].cols;
  std::unordered_set<int> cur_rels{0};
  std::vector<bool> conj_used(join_conjs.size(), false);
  for (size_t i = 1; i < rels.size(); ++i) {
    auto join = std::make_unique<Plan>();
    join->kind = Plan::Kind::kJoin;
    join->join_kind = JoinKind::kInner;
    BindScope left_scope{&cur_cols, parent};
    BindScope right_scope{&rels[i].cols, parent};
    std::vector<ColumnMeta> concat = cur_cols;
    for (const auto& c : rels[i].cols) concat.push_back(c);
    BindScope concat_scope{&concat, parent};
    BoundExprPtr residual;
    for (size_t j = 0; j < join_conjs.size(); ++j) {
      if (conj_used[j]) continue;
      const sql::Expr& c = *join_conjs[j];
      MTB_ASSIGN_OR_RETURN(RefAnalysis info,
                           Analyze(c, level_cols, rel_of_slot, parent));
      bool in_reach = true;
      for (int r : info.rels) {
        if (r != static_cast<int>(i) && !cur_rels.count(r)) {
          in_reach = false;
          break;
        }
      }
      if (!in_reach) continue;
      conj_used[j] = true;
      bool is_key = false;
      if (c.kind == sql::ExprKind::kBinary && c.op == "=") {
        for (int side = 0; side < 2 && !is_key; ++side) {
          const sql::Expr& l = *c.args[static_cast<size_t>(side)];
          const sql::Expr& r = *c.args[static_cast<size_t>(1 - side)];
          MTB_ASSIGN_OR_RETURN(RefAnalysis li,
                               Analyze(l, level_cols, rel_of_slot, parent));
          MTB_ASSIGN_OR_RETURN(RefAnalysis ri,
                               Analyze(r, level_cols, rel_of_slot, parent));
          bool l_left = !li.rels.empty() && !li.rels.count(static_cast<int>(i));
          bool r_right = ri.rels.size() == 1 &&
                         ri.rels.count(static_cast<int>(i)) == 1;
          if (l_left && r_right) {
            MTB_ASSIGN_OR_RETURN(auto lk, Bind(l, &left_scope, nullptr));
            MTB_ASSIGN_OR_RETURN(auto rk, Bind(r, &right_scope, nullptr));
            join->left_keys.push_back(std::move(lk));
            join->right_keys.push_back(std::move(rk));
            is_key = true;
          }
        }
      }
      if (!is_key) {
        MTB_ASSIGN_OR_RETURN(auto b, Bind(c, &concat_scope, nullptr));
        residual = AndBound(std::move(residual), std::move(b));
      }
    }
    join->residual = std::move(residual);
    join->columns = concat;
    join->left = std::move(cur);
    join->right = std::move(rels[i].plan);
    cur = std::move(join);
    cur_cols = std::move(concat);
    cur_rels.insert(static_cast<int>(i));
  }

  std::vector<ColumnMeta> work_cols = cur_cols;

  // 5. Remaining filters (correlated predicates, constants, fallbacks).
  {
    BindScope work_scope{&work_cols, parent};
    BoundExprPtr pred;
    for (auto& c : post_filters) {
      MTB_ASSIGN_OR_RETURN(auto b, Bind(*c, &work_scope, nullptr));
      pred = AndBound(std::move(pred), std::move(b));
    }
    if (pred) AddFilter(&cur, std::move(pred), work_cols);
  }

  // 6. Sub-query conjuncts correlated with this level: unnest or fall back.
  for (auto& c : subq_conjs) {
    if (options_.decorrelate_subqueries) {
      MTB_ASSIGN_OR_RETURN(
          bool done,
          TryUnnestExistsOrIn(*c, level_cols, parent, &cur, &work_cols));
      if (done) continue;
      MTB_ASSIGN_OR_RETURN(
          done, TryUnnestScalarAgg(*c, level_cols, parent, &cur, &work_cols));
      if (done) continue;
    }
    BindScope work_scope{&work_cols, parent};
    MTB_ASSIGN_OR_RETURN(auto b, Bind(*c, &work_scope, nullptr));
    AddFilter(&cur, std::move(b), work_cols);
  }

  BindScope work_scope{&work_cols, parent};

  // 7. Aggregation.
  std::unordered_map<std::string, const sql::Expr*> alias_map;
  for (const auto& item : sel.items) {
    if (!item.alias.empty() && item.expr->kind != sql::ExprKind::kStar) {
      alias_map[ToLowerCopy(item.alias)] = item.expr.get();
    }
  }
  std::vector<sql::ExprPtr> group_exprs;
  for (const auto& g : sel.group_by) {
    auto cl = g->Clone();
    SubstituteAliases(&cl, alias_map);
    group_exprs.push_back(std::move(cl));
  }
  sql::ExprPtr having;
  if (sel.having) {
    having = sel.having->Clone();
    SubstituteAliases(&having, alias_map);
  }
  std::vector<sql::ExprPtr> order_exprs;
  for (const auto& o : sel.order_by) {
    auto cl = o.expr->Clone();
    SubstituteAliases(&cl, alias_map);
    order_exprs.push_back(std::move(cl));
  }

  std::vector<const sql::Expr*> agg_calls;
  for (const auto& item : sel.items) {
    if (item.expr->kind != sql::ExprKind::kStar) {
      CollectAggCalls(*item.expr, &agg_calls);
    }
  }
  if (having) CollectAggCalls(*having, &agg_calls);
  for (const auto& o : order_exprs) CollectAggCalls(*o, &agg_calls);

  bool aggregated = !agg_calls.empty() || !group_exprs.empty();
  AggEnv agg_env;
  std::vector<ColumnMeta> agg_cols;
  if (aggregated) {
    auto agg_plan = std::make_unique<Plan>();
    agg_plan->kind = Plan::Kind::kAggregate;
    for (size_t i = 0; i < group_exprs.size(); ++i) {
      MTB_ASSIGN_OR_RETURN(auto b, Bind(*group_exprs[i], &work_scope, nullptr));
      agg_plan->exprs.push_back(std::move(b));
      agg_env.slots[sql::PrintExpr(*group_exprs[i])] = static_cast<int>(i);
      if (group_exprs[i]->kind == sql::ExprKind::kColumnRef) {
        agg_cols.push_back(
            {group_exprs[i]->qualifier, group_exprs[i]->column});
      } else {
        agg_cols.push_back({"", sql::PrintExpr(*group_exprs[i])});
      }
    }
    for (const sql::Expr* call : agg_calls) {
      std::string text = sql::PrintExpr(*call);
      if (agg_env.slots.count(text)) continue;
      AggSpec spec;
      spec.func = AggFuncOf(*call);
      spec.distinct = call->distinct;
      if (spec.func != AggFunc::kCountStar) {
        MTB_ASSIGN_OR_RETURN(spec.arg, Bind(*call->args[0], &work_scope, nullptr));
      }
      agg_env.slots[text] =
          static_cast<int>(group_exprs.size() + agg_plan->aggs.size());
      agg_plan->aggs.push_back(std::move(spec));
      agg_cols.push_back({"", text});
    }
    agg_plan->columns = agg_cols;
    agg_plan->left = std::move(cur);
    cur = std::move(agg_plan);
  }
  BindScope agg_scope{&agg_cols, parent};
  const BindScope* out_scope = aggregated ? &agg_scope : &work_scope;
  const AggEnv* env = aggregated ? &agg_env : nullptr;

  // 8. HAVING.
  if (having) {
    if (!aggregated) {
      return Status::InvalidArgument("HAVING requires aggregation");
    }
    MTB_ASSIGN_OR_RETURN(auto b, Bind(*having, out_scope, env));
    AddFilter(&cur, std::move(b), agg_cols);
  }

  // 9. Projection (stars expand to the visible FROM columns).
  auto project = std::make_unique<Plan>();
  project->kind = Plan::Kind::kProject;
  std::vector<ColumnMeta> out_cols;
  std::vector<std::string> item_texts;  // for ORDER BY matching
  for (const auto& item : sel.items) {
    if (item.expr->kind == sql::ExprKind::kStar) {
      if (aggregated) {
        return Status::InvalidArgument("'*' cannot be used with GROUP BY");
      }
      for (size_t i = 0; i < level_cols.size(); ++i) {
        if (!item.expr->qualifier.empty() &&
            !EqualsIgnoreCase(item.expr->qualifier, level_cols[i].qualifier)) {
          continue;
        }
        project->exprs.push_back(MakeSlot(static_cast<int>(i)));
        out_cols.push_back({"", level_cols[i].name});
        item_texts.push_back(level_cols[i].qualifier + "." +
                             level_cols[i].name);
      }
      continue;
    }
    MTB_ASSIGN_OR_RETURN(auto b, Bind(*item.expr, out_scope, env));
    project->exprs.push_back(std::move(b));
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == sql::ExprKind::kColumnRef
                 ? item.expr->column
                 : sql::PrintExpr(*item.expr);
    }
    out_cols.push_back({"", name});
    item_texts.push_back(sql::PrintExpr(*item.expr));
  }

  // 10. ORDER BY: match output columns, otherwise append hidden columns.
  std::vector<std::pair<int, bool>> sort_keys;
  size_t visible = out_cols.size();
  for (size_t i = 0; i < order_exprs.size(); ++i) {
    const sql::Expr& oe = *order_exprs[i];
    int slot = -1;
    if (oe.kind == sql::ExprKind::kColumnRef && oe.qualifier.empty()) {
      for (size_t j = 0; j < visible; ++j) {
        if (EqualsIgnoreCase(out_cols[j].name, oe.column)) {
          slot = static_cast<int>(j);
          break;
        }
      }
    }
    if (slot < 0) {
      std::string text = sql::PrintExpr(oe);
      for (size_t j = 0; j < visible; ++j) {
        if (item_texts[j] == text) {
          slot = static_cast<int>(j);
          break;
        }
      }
    }
    if (slot < 0) {
      MTB_ASSIGN_OR_RETURN(auto b, Bind(oe, out_scope, env));
      slot = static_cast<int>(project->exprs.size());
      project->exprs.push_back(std::move(b));
      out_cols.push_back({"", "__ord" + std::to_string(i)});
    }
    sort_keys.emplace_back(slot, sel.order_by[i].desc);
  }
  bool has_hidden = out_cols.size() > visible;
  project->columns = out_cols;
  project->left = std::move(cur);
  cur = std::move(project);

  if (sel.distinct) {
    if (has_hidden) {
      return Status::Unimplemented(
          "SELECT DISTINCT with ORDER BY on non-output expressions");
    }
    auto distinct = std::make_unique<Plan>();
    distinct->kind = Plan::Kind::kDistinct;
    distinct->columns = out_cols;
    distinct->left = std::move(cur);
    cur = std::move(distinct);
  }
  if (!sort_keys.empty()) {
    auto sort = std::make_unique<Plan>();
    sort->kind = Plan::Kind::kSort;
    sort->sort_keys = std::move(sort_keys);
    sort->columns = out_cols;
    sort->left = std::move(cur);
    cur = std::move(sort);
  }
  if (sel.limit >= 0) {
    if (options_.topn_pushdown && cur->kind == Plan::Kind::kSort) {
      // Fuse Sort + Limit into a bounded top-N: the sort never materializes
      // more than limit + offset candidates per worker (sort.cc).
      cur->kind = Plan::Kind::kTopN;
      cur->limit = sel.limit;
      cur->offset = sel.offset;
    } else {
      auto limit = std::make_unique<Plan>();
      limit->kind = Plan::Kind::kLimit;
      limit->limit = sel.limit;
      limit->offset = sel.offset;
      limit->columns = out_cols;
      limit->left = std::move(cur);
      cur = std::move(limit);
    }
  }
  if (has_hidden) {
    auto drop = std::make_unique<Plan>();
    drop->kind = Plan::Kind::kProject;
    for (size_t i = 0; i < visible; ++i) {
      drop->exprs.push_back(MakeSlot(static_cast<int>(i)));
      drop->columns.push_back(out_cols[i]);
    }
    drop->left = std::move(cur);
    cur = std::move(drop);
  }
  return cur;
}

// ---------------------------------------------------------------------------
// Physical access paths (partition pruning + index-scan selection)
// ---------------------------------------------------------------------------

/// Integer-literal image of an equality/IN conjunct over a scan filter slot:
/// `slot = 7` or `slot IN (3, 5)`. Fills `keys` and returns the slot, or -1
/// when the conjunct has any other shape. Scan filters are bound over the
/// table's schema row whatever the scan emits (Plan::emit), so the result
/// compares directly against PartitionScheme::column / index slots.
int ConjunctKeySlot(const BoundExpr& e, std::vector<int64_t>* keys) {
  if (e.kind == BoundExpr::Kind::kBinary && e.bin_op == BinOp::kEq) {
    const BoundExpr* slot = e.args[0].get();
    const BoundExpr* lit = e.args[1].get();
    if (slot->kind != BoundExpr::Kind::kSlot) std::swap(slot, lit);
    if (slot->kind == BoundExpr::Kind::kSlot &&
        lit->kind == BoundExpr::Kind::kLiteral &&
        lit->literal.type() == TypeId::kInt) {
      keys->push_back(lit->literal.int_value());
      return slot->slot;
    }
    return -1;
  }
  if (e.kind == BoundExpr::Kind::kInList && !e.negated && !e.args.empty() &&
      e.args[0]->kind == BoundExpr::Kind::kSlot) {
    for (size_t i = 1; i < e.args.size(); ++i) {
      if (e.args[i]->kind != BoundExpr::Kind::kLiteral ||
          e.args[i]->literal.type() != TypeId::kInt) {
        return -1;
      }
      keys->push_back(e.args[i]->literal.int_value());
    }
    return e.args[0]->slot;
  }
  return -1;
}

void ApplyAccessPathToScan(Plan* p) {
  if (p->table == nullptr || !p->scan_filter) return;
  std::vector<const BoundExpr*> conjuncts;
  CollectConjuncts(*p->scan_filter, &conjuncts);
  // Partition pruning wins over index selection: a pruned scan keeps morsel
  // parallelism over the surviving partitions, and the MT-H single-tenant
  // invariant (partitions_pruned == N-1) is stated over it.
  const PartitionScheme& ps = p->table->partition();
  if (ps.partitioned()) {
    for (const BoundExpr* c : conjuncts) {
      std::vector<int64_t> keys;
      if (ConjunctKeySlot(*c, &keys) != ps.column || keys.empty()) continue;
      std::vector<uint32_t> parts;
      for (int64_t k : keys) {
        parts.push_back(static_cast<uint32_t>(ps.RouteInt(k)));
      }
      std::sort(parts.begin(), parts.end());
      parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
      p->pruned = true;
      p->partitions = std::move(parts);
      return;
    }
  }
  for (const BoundExpr* c : conjuncts) {
    std::vector<int64_t> keys;
    int slot = ConjunctKeySlot(*c, &keys);
    if (slot < 0 || keys.empty()) continue;
    const TableIndex* ix = p->table->FindIndexLeadingOn(slot);
    if (ix == nullptr) continue;
    // The full scan_filter stays attached and is re-applied to every
    // candidate row: the index lookup is a superset cut, never a filter
    // replacement, so residual conjuncts keep their semantics.
    p->kind = Plan::Kind::kIndexScan;
    p->index_name = ix->name;
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    p->index_keys = std::move(keys);
    return;
  }
}

void ApplyPhysicalAccessPaths(Plan* p);

void VisitExprPlans(const BoundExpr& e) {
  // The planner exclusively owns the freshly built tree, sub-plans included;
  // the const_cast mirrors parallel::MarkParallelSafe's sub-plan marking.
  if (e.subplan) ApplyPhysicalAccessPaths(const_cast<Plan*>(e.subplan.get()));
  ForEachExprChild(e, [](const BoundExpr& c) { VisitExprPlans(c); });
}

void ApplyPhysicalAccessPaths(Plan* p) {
  if (p == nullptr) return;
  if (p->kind == Plan::Kind::kScan) ApplyAccessPathToScan(p);
  ForEachPlanExpr(*p, [](const BoundExpr& e) { VisitExprPlans(e); });
  ApplyPhysicalAccessPaths(p->left.get());
  ApplyPhysicalAccessPaths(p->right.get());
}

// ---------------------------------------------------------------------------
// Column pruning
// ---------------------------------------------------------------------------
//
// Walks a plan top-down with the output slots its parent reads (`live`).
// Scans and joins emit only those (Plan::emit) and Projects compute only
// those; at the root every slot is live, so result columns do not change.
// Filter, Sort, TopN and Limit pass the narrowed layout up. Aggregate and
// Distinct keep their outputs (a dropped group key or DISTINCT column would
// change the rows) and narrow only what they ask of their input. Each step
// returns its node's slot map (old output slot -> new output slot, -1 when
// dropped), which the parent applies to every kSlot it holds over that
// input.

using SlotMap = std::vector<int>;

bool InRange(int slot, size_t width) {
  return slot >= 0 && static_cast<size_t>(slot) < width;
}

void MarkSlots(const BoundExpr& e, std::vector<bool>* live) {
  if (e.kind == BoundExpr::Kind::kSlot && InRange(e.slot, live->size())) {
    (*live)[static_cast<size_t>(e.slot)] = true;
  }
  ForEachExprChild(e, [live](const BoundExpr& c) { MarkSlots(c, live); });
}

void RemapSlots(const BoundExpr& e, const SlotMap& map) {
  if (e.kind == BoundExpr::Kind::kSlot && InRange(e.slot, map.size())) {
    // The planner exclusively owns the fresh tree (see VisitExprPlans).
    const_cast<BoundExpr&>(e).slot = map[static_cast<size_t>(e.slot)];
  }
  ForEachExprChild(e, [&map](const BoundExpr& c) { RemapSlots(c, map); });
}

bool HoldsCorrelatedSubplan(const BoundExpr& e) {
  if (e.subplan != nullptr && e.correlated) return true;
  bool found = false;
  ForEachExprChild(e, [&found](const BoundExpr& c) {
    found = found || HoldsCorrelatedSubplan(c);
  });
  return found;
}

SlotMap IdentityMap(size_t n) {
  SlotMap map(n);
  std::iota(map.begin(), map.end(), 0);
  return map;
}

/// Make the `live` slots of `natural` (the node's natural row layout) its
/// output: sets Plan::emit unless every slot survives, narrows `columns`,
/// and returns natural slot -> output slot.
SlotMap EmitLive(Plan* p, std::vector<ColumnMeta> natural,
                 const std::vector<bool>& live) {
  SlotMap map(natural.size(), -1);
  std::vector<int> emit;
  std::vector<ColumnMeta> cols;
  for (size_t s = 0; s < natural.size(); ++s) {
    if (!live[s]) continue;
    map[s] = static_cast<int>(emit.size());
    emit.push_back(static_cast<int>(s));
    cols.push_back(std::move(natural[s]));
  }
  if (emit.size() == natural.size()) {
    p->emit.reset();
  } else {
    p->emit = std::move(emit);
  }
  p->columns = std::move(cols);
  return map;
}

/// Keep only the `live` outputs of a Project; returns old output slot ->
/// new output slot. An unread output is never evaluated.
SlotMap NarrowProject(Plan* p, const std::vector<bool>& live) {
  SlotMap map(p->exprs.size(), -1);
  size_t kept = 0;
  for (size_t s = 0; s < p->exprs.size(); ++s) {
    if (!live[s]) continue;
    map[s] = static_cast<int>(kept);
    if (kept != s) {
      p->exprs[kept] = std::move(p->exprs[s]);
      p->columns[kept] = std::move(p->columns[s]);
    }
    ++kept;
  }
  p->exprs.resize(kept);
  p->columns.resize(kept);
  return map;
}

SlotMap PruneNode(Plan* p, const std::vector<bool>& live);

void PruneColumns(Plan* root) {
  PruneNode(root, std::vector<bool>(root->columns.size(), true));
}

void PruneExprSubplans(const BoundExpr& e) {
  // Same ownership argument as VisitExprPlans.
  if (e.subplan) PruneColumns(const_cast<Plan*>(e.subplan.get()));
  ForEachExprChild(e, [](const BoundExpr& c) { PruneExprSubplans(c); });
}

/// Inputs keep what the parent reads plus key and residual slots; the
/// residual evaluates over concat(left, right) of the narrowed inputs, and
/// the join emits only the slots the parent reads.
SlotMap PruneJoin(Plan* p, const std::vector<bool>& live, bool whole) {
  const size_t lw = p->left->columns.size();
  const size_t rw = p->right->columns.size();
  std::vector<bool> concat_live(lw + rw, whole);
  for (size_t s = 0; s < live.size(); ++s) {
    if (live[s]) concat_live[s] = true;
  }
  if (p->residual) MarkSlots(*p->residual, &concat_live);
  const auto split = concat_live.begin() + static_cast<std::ptrdiff_t>(lw);
  std::vector<bool> left_live(concat_live.begin(), split);
  std::vector<bool> right_live(split, concat_live.end());
  for (const auto& k : p->left_keys) MarkSlots(*k, &left_live);
  for (const auto& k : p->right_keys) MarkSlots(*k, &right_live);
  const SlotMap lmap = PruneNode(p->left.get(), left_live);
  const SlotMap rmap = PruneNode(p->right.get(), right_live);
  for (const auto& k : p->left_keys) RemapSlots(*k, lmap);
  for (const auto& k : p->right_keys) RemapSlots(*k, rmap);
  const int new_lw = static_cast<int>(p->left->columns.size());
  SlotMap concat_map(lmap);
  for (int r : rmap) concat_map.push_back(r < 0 ? -1 : new_lw + r);
  if (p->residual) RemapSlots(*p->residual, concat_map);

  std::vector<ColumnMeta> natural = p->left->columns;
  if (p->join_kind == JoinKind::kInner || p->join_kind == JoinKind::kLeft) {
    natural.insert(natural.end(), p->right->columns.begin(),
                   p->right->columns.end());
  }
  std::vector<bool> out_live(natural.size(), false);
  for (size_t s = 0; s < live.size(); ++s) {
    if (live[s]) out_live[static_cast<size_t>(concat_map[s])] = true;
  }
  const SlotMap emit_map = EmitLive(p, std::move(natural), out_live);
  SlotMap map(live.size(), -1);
  for (size_t s = 0; s < live.size(); ++s) {
    if (concat_map[s] >= 0) {
      map[s] = emit_map[static_cast<size_t>(concat_map[s])];
    }
  }
  return map;
}

SlotMap PruneNode(Plan* p, const std::vector<bool>& live) {
  // Sub-plans are pruned as roots of their own. An operator whose
  // expressions hold a correlated sub-plan keeps its whole input: the
  // sub-plan's outer references index into the row it is evaluated on.
  bool whole = false;
  ForEachPlanExpr(*p, [&whole](const BoundExpr& e) {
    PruneExprSubplans(e);
    whole = whole || HoldsCorrelatedSubplan(e);
  });
  const std::vector<bool> all(p->left ? p->left->columns.size() : 0, true);
  switch (p->kind) {
    case Plan::Kind::kScan:
    case Plan::Kind::kIndexScan:
      // The scan filter reads the full schema row, so it needs no slot here.
      if (p->table == nullptr) return {};  // dual: one empty row
      return EmitLive(p, std::move(p->columns), live);
    case Plan::Kind::kJoin:
      return PruneJoin(p, live, whole);
    case Plan::Kind::kFilter:
    case Plan::Kind::kSort:
    case Plan::Kind::kTopN:
    case Plan::Kind::kLimit: {
      // Pass-through operators: their output is their narrowed input.
      std::vector<bool> in_live = whole ? all : live;
      if (p->predicate) MarkSlots(*p->predicate, &in_live);
      for (const auto& key : p->sort_keys) {
        if (InRange(key.first, in_live.size())) {
          in_live[static_cast<size_t>(key.first)] = true;
        }
      }
      SlotMap map = PruneNode(p->left.get(), in_live);
      if (p->predicate) RemapSlots(*p->predicate, map);
      for (auto& key : p->sort_keys) {
        if (InRange(key.first, map.size())) {
          key.first = map[static_cast<size_t>(key.first)];
        }
      }
      p->columns = p->left->columns;
      return map;
    }
    case Plan::Kind::kDistinct:
      PruneNode(p->left.get(), all);
      return IdentityMap(p->columns.size());
    case Plan::Kind::kProject:
    case Plan::Kind::kAggregate: {
      const SlotMap out_map = p->kind == Plan::Kind::kProject
                                  ? NarrowProject(p, live)
                                  : IdentityMap(p->columns.size());
      std::vector<bool> in_live(all.size(), whole);
      for (const auto& e : p->exprs) MarkSlots(*e, &in_live);
      for (const auto& a : p->aggs) {
        if (a.arg) MarkSlots(*a.arg, &in_live);
      }
      const SlotMap map = PruneNode(p->left.get(), in_live);
      for (const auto& e : p->exprs) RemapSlots(*e, map);
      for (const auto& a : p->aggs) {
        if (a.arg) RemapSlots(*a.arg, map);
      }
      return out_map;
    }
  }
  return IdentityMap(p->columns.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

Result<PlanPtr> Planner::PlanSelect(const sql::SelectStmt& sel) const {
  PlannerImpl impl(catalog_, udfs_, options_);
  MTB_ASSIGN_OR_RETURN(PlanPtr plan, impl.PlanSelect(sel, nullptr));
  // Rewrite logical scans onto the tables' physical design (partition
  // pruning, index scans) before parallel-safety marking, which needs the
  // final operator kinds.
  if (options_.physical_access_paths) ApplyPhysicalAccessPaths(plan.get());
  // Carry only the columns the query reads through scans, joins and
  // Projects below the root (nested sub-plans too). Scan filters keep
  // reading the schema row, so the access paths chosen above are unaffected.
  PruneColumns(plan.get());
  // Mark which operators the executor may run on worker threads (covers
  // nested sub-plans too). Purely advisory: execution still gates on input
  // size and the max_threads budget.
  parallel::MarkParallelSafe(plan.get());
  return plan;
}

Result<BoundExprPtr> Planner::BindExpr(
    const sql::Expr& e, const std::vector<ColumnMeta>& layout) const {
  PlannerImpl impl(catalog_, udfs_, options_);
  BindScope scope{&layout, nullptr};
  return impl.Bind(e, &scope, nullptr);
}

}  // namespace engine
}  // namespace mtbase
