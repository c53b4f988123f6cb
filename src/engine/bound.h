// Bound expressions and physical plans.
//
// The binder resolves sql::Expr column references to positional slots; the
// planner assembles materialized operators. Both are deliberately simple:
// MTBase's contribution is the rewrite layer above, the engine just has to
// execute the rewritten SQL with realistic relative costs.
#ifndef MTBASE_ENGINE_BOUND_H_
#define MTBASE_ENGINE_BOUND_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"

namespace mtbase {
namespace engine {

class Table;
struct Plan;
struct Udf;

enum class BinOp : uint8_t {
  kAnd, kOr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv,
  kConcat,
  kLike, kNotLike,
};

enum class AggFunc : uint8_t { kCountStar, kCount, kSum, kAvg, kMin, kMax };

enum class BuiltinFunc : uint8_t {
  kSubstring,
  kConcat,
  kCharLength,
  kUpper,
  kLower,
  kAbs,
  kCoalesce,
  kDateAddDays,    // (date, n)
  kDateAddMonths,  // (date, n)
  kDateAddYears,   // (date, n)
  kExtractYear,
  kExtractMonth,
  kExtractDay,
};

struct BoundExpr {
  enum class Kind : uint8_t {
    kLiteral,
    kSlot,        // column of the current input row
    kOuterSlot,   // column of an enclosing query's row (depth >= 1)
    kParam,       // $n inside a UDF body
    kNot,
    kNeg,
    kBinary,
    kBuiltin,
    kUdfCall,
    kCase,        // args = [w1, t1, w2, t2, ...]
    kInList,      // args[0] in args[1..]
    kInSet,       // (args...) in subplan results (InitPlan hash set)
    kExistsSub,   // correlated EXISTS fallback (per-row execution)
    kScalarSub,   // scalar sub-query; uncorrelated => InitPlan cache
    kBetween,
    kIsNull,
  } kind = Kind::kLiteral;

  Value literal;
  int slot = 0;
  int depth = 0;        // kOuterSlot
  int param_index = 0;  // kParam
  BinOp bin_op = BinOp::kAnd;
  BuiltinFunc builtin = BuiltinFunc::kConcat;
  const Udf* udf = nullptr;
  bool negated = false;  // NOT IN / NOT EXISTS / NOT BETWEEN / IS NOT NULL
  bool correlated = false;  // sub-query references outer slots
  std::vector<std::unique_ptr<BoundExpr>> args;
  std::unique_ptr<BoundExpr> case_operand;
  std::unique_ptr<BoundExpr> else_expr;
  std::shared_ptr<const Plan> subplan;
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

struct ColumnMeta {
  std::string qualifier;  // binding name of the producing relation ("" if n/a)
  std::string name;
};

enum class JoinKind : uint8_t { kInner, kLeft, kSemi, kAnti };

/// What a decorrelated join was unnested from; kNone for ordinary joins.
/// EXPLAIN renders this so the chosen sub-query strategy (hash join vs
/// per-row fallback) is visible, and the executor counts executions of
/// decorrelated joins in ExecStats::decorrelated_execs.
enum class SubqueryOrigin : uint8_t {
  kNone,
  kExists,
  kNotExists,
  kIn,
  kNotIn,
  kScalarAgg,
};

struct AggSpec {
  AggFunc func = AggFunc::kCountStar;
  BoundExprPtr arg;  // null for COUNT(*)
  bool distinct = false;
};

struct Plan {
  enum class Kind : uint8_t {
    kScan,      // table + optional pushed-down filter
    kIndexScan, // ordered-index candidate lookup + the full pushed filter
    kJoin,      // hash join on equi keys, nested loop if none
    kFilter,
    kProject,
    kAggregate, // hash aggregation; output = [keys..., aggs...]
    kSort,
    kTopN,      // fused Sort + Limit: bounded heaps instead of a full sort
    kLimit,
    kDistinct,
  } kind = Kind::kScan;

  std::vector<ColumnMeta> columns;  // output layout

  /// Column pruning (planner post-pass): the slots of the node's natural row
  /// it emits, ascending — the table's schema row for kScan / kIndexScan,
  /// concat(left, right) for inner and left joins, the left row for semi and
  /// anti joins. Unset means every slot; an empty list means none at all (a
  /// COUNT(*) scan). Scan filters, join keys and residuals read their rows
  /// before this selection.
  std::optional<std::vector<int>> emit;

  /// Set by the planner (parallel::MarkParallelSafe): this operator's own
  /// expressions are free of outer references, sub-plans and
  /// volatile/stable UDF calls (IMMUTABLE UDF calls are admitted — their
  /// read-only bodies evaluate against worker-local contexts), so the
  /// executor may evaluate them from worker threads. Children carry their
  /// own flag; the executor additionally gates on input size and the
  /// configured thread budget.
  bool parallel_safe = false;

  // kScan / kIndexScan. The filter is bound over the table's schema row, not
  // over the emitted layout (see `emit`).
  const Table* table = nullptr;
  BoundExprPtr scan_filter;

  // kScan partition pruning (planner post-pass, ApplyPhysicalAccessPaths):
  // when `pruned`, only the listed partition ids (ascending) are scanned.
  // The full scan_filter is still applied — pruning is a superset cut, not
  // a filter replacement.
  bool pruned = false;
  std::vector<uint32_t> partitions;

  // kIndexScan: equality/IN keys on the index's leading column. The index is
  // resolved by name against `table` at execution time; the raw-pointer
  // safety argument is the same as for `table` (any DDL bumps the catalog
  // version and forces a recompile).
  std::string index_name;
  std::vector<int64_t> index_keys;

  // children (kScan has none; kJoin uses both; others use `left`)
  std::unique_ptr<Plan> left;
  std::unique_ptr<Plan> right;

  // kJoin
  JoinKind join_kind = JoinKind::kInner;
  std::vector<BoundExprPtr> left_keys;   // over left layout
  std::vector<BoundExprPtr> right_keys;  // over right layout
  BoundExprPtr residual;                 // over concat(left, right) layout
                                         // (the inputs' layouts, not `emit`)
  SubqueryOrigin decorrelated_from = SubqueryOrigin::kNone;
  /// NOT IN decorrelation: an anti join is only equivalent under SQL's
  /// three-valued logic when it is null-aware. The first `naaj_in_keys`
  /// key pairs are the IN tuple, the remainder are correlation keys.
  bool null_aware = false;
  size_t naaj_in_keys = 0;

  // kFilter
  BoundExprPtr predicate;

  // kProject (exprs over child layout) / kAggregate (group keys)
  std::vector<BoundExprPtr> exprs;

  // kAggregate
  std::vector<AggSpec> aggs;

  // kSort / kTopN: slot indices into child layout
  std::vector<std::pair<int, bool>> sort_keys;  // (slot, desc)

  // kLimit / kTopN. The output is rows [offset, offset + limit) of the
  // (sorted) input; kTopN only ever keeps limit + offset candidates.
  int64_t limit = -1;
  int64_t offset = 0;
};

using PlanPtr = std::unique_ptr<Plan>;

/// Invoke fn(const BoundExpr&) on every direct child expression of `e` —
/// args, CASE operand and ELSE branch (not the sub-plan; walkers decide
/// whether to descend into plans themselves). The single child enumeration
/// shared by every recursive expression walker, so a new child field only
/// needs wiring here.
template <typename Fn>
void ForEachExprChild(const BoundExpr& e, Fn&& fn) {
  for (const auto& a : e.args) fn(static_cast<const BoundExpr&>(*a));
  if (e.case_operand) fn(static_cast<const BoundExpr&>(*e.case_operand));
  if (e.else_expr) fn(static_cast<const BoundExpr&>(*e.else_expr));
}

/// Append the AND-conjuncts of `e` to `out` in evaluation (left-to-right)
/// order: `e` itself unless it is an AND. Shared by the planner's access
/// paths and the executor's RowFilter.
inline void CollectConjuncts(const BoundExpr& e,
                             std::vector<const BoundExpr*>* out) {
  if (e.kind == BoundExpr::Kind::kBinary && e.bin_op == BinOp::kAnd) {
    CollectConjuncts(*e.args[0], out);
    CollectConjuncts(*e.args[1], out);
    return;
  }
  out->push_back(&e);
}

/// Invoke fn(const BoundExpr&) on every expression hanging off this plan
/// node — scan filter, predicate, residual, projection/group exprs, join
/// keys and aggregate arguments — but not on children's. The single walker
/// shared by EXPLAIN, parallel-safety marking, outer-reference detection
/// and UDF-read-table collection, so a new expression-bearing Plan field
/// only needs wiring here.
template <typename Fn>
void ForEachPlanExpr(const Plan& p, Fn&& fn) {
  auto walk = [&fn](const BoundExprPtr& e) {
    if (e) fn(static_cast<const BoundExpr&>(*e));
  };
  walk(p.scan_filter);
  walk(p.predicate);
  walk(p.residual);
  for (const auto& e : p.exprs) walk(e);
  for (const auto& e : p.left_keys) walk(e);
  for (const auto& e : p.right_keys) walk(e);
  for (const auto& a : p.aggs) walk(a.arg);
}

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_BOUND_H_
