#include "engine/verify/verifier.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <set>
#include <utility>

#include "common/str_util.h"
#include "engine/catalog.h"
#include "engine/explain.h"
#include "engine/udf.h"

namespace mtbase {
namespace engine {
namespace verify {

const char* ViolationCodeName(ViolationCode code) {
  switch (code) {
    case ViolationCode::kTenantPredicateMissing:
      return "TENANT_PREDICATE_MISSING";
    case ViolationCode::kTenantSetMismatch:
      return "TENANT_SET_MISMATCH";
    case ViolationCode::kParallelUnsafeSubplan:
      return "PARALLEL_UNSAFE_SUBPLAN";
    case ViolationCode::kSlotOutOfRange:
      return "SLOT_OUT_OF_RANGE";
    case ViolationCode::kArityMismatch:
      return "ARITY_MISMATCH";
    case ViolationCode::kJoinKeyMismatch:
      return "JOIN_KEY_MISMATCH";
    case ViolationCode::kSortKeyOutOfRange:
      return "SORT_KEY_OUT_OF_RANGE";
    case ViolationCode::kNegativeLimit:
      return "NEGATIVE_LIMIT";
    case ViolationCode::kPartitionSetMismatch:
      return "PARTITION_SET_MISMATCH";
  }
  return "UNKNOWN";
}

std::string VerifyResult::Summary() const {
  if (violations.empty()) return "ok";
  std::string out = "FAILED ";
  std::vector<ViolationCode> seen;
  for (const Violation& v : violations) {
    if (std::find(seen.begin(), seen.end(), v.code) != seen.end()) continue;
    if (!seen.empty()) out += ", ";
    out += ViolationCodeName(v.code);
    seen.push_back(v.code);
  }
  return out;
}

std::string VerifyResult::Message() const {
  std::string out;
  for (const Violation& v : violations) {
    if (!out.empty()) out += "\n";
    out += ViolationCodeName(v.code);
    out += ": ";
    out += v.detail;
    if (!v.subtree.empty()) {
      out += "\n";
      out += v.subtree;
    }
  }
  return out;
}

bool VerificationEnabled() {
  // Read per call (statement compiles are rare and cached) so tests can flip
  // the environment in-process without fighting a cached static.
  if (const char* env = std::getenv("MTBASE_VERIFY_PLANS")) {
    if (env[0] != '\0') return std::strcmp(env, "0") != 0;
  }
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

namespace {

/// A ttid output slot of a tenant-specific scan whose restriction state is
/// tracked up the plan tree.
struct TtidSlot {
  int slot = 0;            // position in the current node's output layout
  const Plan* scan = nullptr;  // the originating scan, for rendering
  std::string table;       // table name, for the violation detail
};

/// Per-node tenant analysis state: `pending` slots still need a dominating
/// restriction; `restricted` slots are proven limited to a subset of D'
/// (used for equi-join transfer: ttid_a = ttid_b AND ttid_b IN D' implies
/// ttid_a IN D').
struct TenantState {
  std::vector<TtidSlot> pending;
  std::vector<int> restricted;
};

/// What a single conjunct says about slot `slot`.
enum class ConjunctVerdict { kNone, kRestricts, kMismatch };

class VerifierImpl {
 public:
  explicit VerifierImpl(const VerifyContext* ctx) : ctx_(ctx) {
    if (ctx_ != nullptr) {
      expected_sorted_ = ctx_->expected_tenants;
      std::sort(expected_sorted_.begin(), expected_sorted_.end());
    }
  }

  VerifyResult Run(const Plan& plan) {
    TenantState state = VerifyNode(plan);
    // Anything still unrestricted at the plan root was readable without a
    // dominating tenant predicate.
    for (const TtidSlot& t : state.pending) ReportPending(t);
    return std::move(result_);
  }

 private:
  // -- reporting ----------------------------------------------------------

  void Report(ViolationCode code, std::string detail, const Plan* subtree) {
    Violation v;
    v.code = code;
    v.detail = std::move(detail);
    if (subtree != nullptr) v.subtree = ExplainPlan(*subtree);
    result_.violations.push_back(std::move(v));
  }

  void ReportPending(const TtidSlot& t) {
    Report(ViolationCode::kTenantPredicateMissing,
           "scan of tenant-specific table " + t.table +
               " has no dominating " + ctx_->ttid_column +
               "-restricting predicate on its access path",
           t.scan);
  }

  // -- tenant-isolation helpers -------------------------------------------

  bool TenantChecksOn() const {
    return ctx_ != nullptr && ctx_->check_tenant;
  }

  bool IsTenantTable(const Table& table) const {
    for (const std::string& name : ctx_->tenant_tables) {
      if (EqualsIgnoreCase(name, table.schema().name)) return true;
    }
    return false;
  }

  /// Collect the integer literal set of a ttid predicate; false when any
  /// member is not an INT literal (then the conjunct does not restrict).
  static bool LiteralSetOf(const std::vector<BoundExprPtr>& args, size_t from,
                           std::vector<int64_t>* out) {
    for (size_t i = from; i < args.size(); ++i) {
      const BoundExpr& a = *args[i];
      if (a.kind != BoundExpr::Kind::kLiteral ||
          a.literal.type() != TypeId::kInt) {
        return false;
      }
      out->push_back(a.literal.int_value());
    }
    return true;
  }

  bool SubsetOfExpected(const std::vector<int64_t>& set) const {
    for (int64_t v : set) {
      if (!std::binary_search(expected_sorted_.begin(), expected_sorted_.end(),
                              v)) {
        return false;
      }
    }
    return true;
  }

  /// Does this conjunct restrict `slot` to a literal tenant set? Handles the
  /// rewriter's D-filter shapes: `ttid IN (l1, ..., ln)` and `ttid = l`.
  ConjunctVerdict JudgeConjunct(const BoundExpr& e, int slot) const {
    std::vector<int64_t> lits;
    if (e.kind == BoundExpr::Kind::kInList && !e.negated &&
        !e.args.empty() && e.args[0]->kind == BoundExpr::Kind::kSlot &&
        e.args[0]->slot == slot) {
      if (!LiteralSetOf(e.args, 1, &lits)) return ConjunctVerdict::kNone;
    } else if (e.kind == BoundExpr::Kind::kBinary && e.bin_op == BinOp::kEq &&
               e.args.size() == 2) {
      const BoundExpr& l = *e.args[0];
      const BoundExpr& r = *e.args[1];
      const BoundExpr* lit = nullptr;
      if (l.kind == BoundExpr::Kind::kSlot && l.slot == slot) {
        lit = &r;
      } else if (r.kind == BoundExpr::Kind::kSlot && r.slot == slot) {
        lit = &l;
      }
      if (lit == nullptr || lit->kind != BoundExpr::Kind::kLiteral ||
          lit->literal.type() != TypeId::kInt) {
        return ConjunctVerdict::kNone;
      }
      lits.push_back(lit->literal.int_value());
    } else {
      return ConjunctVerdict::kNone;
    }
    return SubsetOfExpected(lits) ? ConjunctVerdict::kRestricts
                                  : ConjunctVerdict::kMismatch;
  }

  /// Judge every AND-conjunct of `pred` against `slot` (OR branches never
  /// dominate and are not descended into). A restricting conjunct wins over
  /// a mismatching one: `ttid IN D' AND ttid IN superset` is restricted.
  ConjunctVerdict JudgePredicate(const BoundExpr& pred, int slot) const {
    if (pred.kind == BoundExpr::Kind::kBinary &&
        pred.bin_op == BinOp::kAnd && pred.args.size() == 2) {
      ConjunctVerdict a = JudgePredicate(*pred.args[0], slot);
      if (a == ConjunctVerdict::kRestricts) return a;
      ConjunctVerdict b = JudgePredicate(*pred.args[1], slot);
      if (b == ConjunctVerdict::kRestricts) return b;
      return a == ConjunctVerdict::kMismatch ? a : b;
    }
    return JudgeConjunct(pred, slot);
  }

  /// Apply a predicate over `state`'s layout (offset already applied by the
  /// caller): pending slots restricted by a conjunct move to `restricted`;
  /// mismatching predicates are reported once, here, with the scan subtree.
  void ApplyPredicate(const BoundExpr& pred, TenantState* state) {
    std::vector<TtidSlot> still_pending;
    for (TtidSlot& t : state->pending) {
      switch (JudgePredicate(pred, t.slot)) {
        case ConjunctVerdict::kRestricts:
          state->restricted.push_back(t.slot);
          break;
        case ConjunctVerdict::kMismatch:
          Report(ViolationCode::kTenantSetMismatch,
                 "predicate over " + ctx_->ttid_column + " of " + t.table +
                     " admits tenants outside the expected dataset",
                 t.scan);
          break;
        case ConjunctVerdict::kNone:
          still_pending.push_back(std::move(t));
          break;
      }
    }
    state->pending = std::move(still_pending);
  }

  // -- structural helpers --------------------------------------------------

  /// Check every slot/outer-slot reference in `e` against the input arity.
  /// `outer_arities` mirrors the enclosing layouts for kOuterSlot checks
  /// (back = depth 1).
  void CheckExprSlots(const BoundExpr& e, size_t arity, const Plan* node,
                      const char* what) {
    if (e.kind == BoundExpr::Kind::kSlot &&
        (e.slot < 0 || static_cast<size_t>(e.slot) >= arity)) {
      Report(ViolationCode::kSlotOutOfRange,
             std::string(what) + " references slot " + std::to_string(e.slot) +
                 " but the input layout has " + std::to_string(arity) +
                 " columns",
             node);
    }
    if (e.kind == BoundExpr::Kind::kOuterSlot) {
      if (e.depth < 1 ||
          static_cast<size_t>(e.depth) > outer_arities_.size()) {
        Report(ViolationCode::kSlotOutOfRange,
               std::string(what) + " outer reference at depth " +
                   std::to_string(e.depth) + " exceeds the enclosing nesting",
               node);
      } else {
        size_t outer =
            outer_arities_[outer_arities_.size() - static_cast<size_t>(e.depth)];
        if (e.slot < 0 || static_cast<size_t>(e.slot) >= outer) {
          Report(ViolationCode::kSlotOutOfRange,
                 std::string(what) + " outer reference slot " +
                     std::to_string(e.slot) + " exceeds the enclosing layout",
                 node);
        }
      }
    }
    ForEachExprChild(e, [&](const BoundExpr& c) {
      CheckExprSlots(c, arity, node, what);
    });
  }

  // -- parallel-safety consistency -----------------------------------------

  /// Independent restatement of the parallel-safety contract (parallel.h):
  /// worker-evaluated expressions must not reach sub-plans (per-statement
  /// InitPlan caches are serial state), outer rows, or UDFs whose bodies are
  /// not immutable. Deliberately NOT a call into parallel::MarkParallelSafe —
  /// re-deriving the rule is what lets the verifier catch drift between the
  /// planner's marking and the operators' assumptions.
  const char* ExprParallelHazard(const BoundExpr& e) const {
    if (e.subplan != nullptr) return "a sub-plan (serial InitPlan state)";
    if (e.kind == BoundExpr::Kind::kOuterSlot) return "an outer reference";
    if (e.kind == BoundExpr::Kind::kUdfCall &&
        (e.udf == nullptr || !e.udf->immutable())) {
      return "a volatile/stable UDF call";
    }
    const char* hazard = nullptr;
    ForEachExprChild(e, [&](const BoundExpr& c) {
      if (hazard == nullptr) hazard = ExprParallelHazard(c);
    });
    return hazard;
  }

  /// Serial-only operator shapes (the executor has no parallel
  /// implementation for them; parallel.h "Safety").
  const char* NodeShapeHazard(const Plan& p) const {
    switch (p.kind) {
      case Plan::Kind::kLimit:
        return "LIMIT is a serial operator";
      case Plan::Kind::kDistinct:
        return "DISTINCT is a serial operator";
      case Plan::Kind::kJoin:
        if (p.left_keys.empty()) return "nested-loop joins run serially";
        if (p.null_aware) return "null-aware anti joins run serially";
        return nullptr;
      case Plan::Kind::kAggregate:
        for (const auto& a : p.aggs) {
          if (a.distinct) return "DISTINCT aggregates run serially";
        }
        return nullptr;
      case Plan::Kind::kScan:
        if (p.table == nullptr) return "dual scans have no morsel source";
        return nullptr;
      case Plan::Kind::kIndexScan:
        return "index scans run serially (ordered binary search)";
      default:
        return nullptr;
    }
  }

  void CheckParallelSafety(const Plan& p) {
    if (!p.parallel_safe) return;
    if (const char* hazard = NodeShapeHazard(p)) {
      Report(ViolationCode::kParallelUnsafeSubplan,
             std::string("operator is marked parallel_safe but ") + hazard,
             &p);
      return;
    }
    const char* hazard = nullptr;
    ForEachPlanExpr(p, [&](const BoundExpr& e) {
      if (hazard == nullptr) hazard = ExprParallelHazard(e);
    });
    if (hazard != nullptr) {
      Report(ViolationCode::kParallelUnsafeSubplan,
             std::string("operator is marked parallel_safe but contains ") +
                 hazard,
             &p);
    }
  }

  // -- sub-plans reachable from expressions --------------------------------

  /// Verify sub-plans hanging off `e` (InitPlans, per-row fallbacks) and the
  /// body plans of called UDFs. Each is an independent plan root: leftover
  /// pending ttid slots there are violations of their own. `arity` is the
  /// enclosing input layout the sub-plan's outer references resolve against.
  void VerifyExprSubplans(const BoundExpr& e, size_t arity) {
    if (e.subplan != nullptr) {
      outer_arities_.push_back(arity);
      TenantState sub = VerifyNode(*e.subplan);
      for (const TtidSlot& t : sub.pending) ReportPending(t);
      outer_arities_.pop_back();
    }
    if (e.kind == BoundExpr::Kind::kUdfCall && e.udf != nullptr &&
        e.udf->body_plan != nullptr &&
        verified_bodies_.insert(e.udf->body_plan.get()).second) {
      // UDF bodies are closed plans (parameters, not outer slots); verify
      // each distinct body once per statement.
      std::vector<size_t> saved;
      saved.swap(outer_arities_);
      TenantState body = VerifyNode(*e.udf->body_plan);
      for (const TtidSlot& t : body.pending) ReportPending(t);
      outer_arities_.swap(saved);
    }
    ForEachExprChild(e, [&](const BoundExpr& c) {
      VerifyExprSubplans(c, arity);
    });
  }

  // -- the walk ------------------------------------------------------------

  /// Offset every slot of `s` by `delta` (right join side in a concat
  /// layout) and append to `out`.
  static void AppendOffset(TenantState&& s, int delta, TenantState* out) {
    for (TtidSlot& t : s.pending) {
      t.slot += delta;
      out->pending.push_back(std::move(t));
    }
    for (int r : s.restricted) out->restricted.push_back(r + delta);
  }

  TenantState VerifyNode(const Plan& p) {
    switch (p.kind) {
      case Plan::Kind::kScan:
      case Plan::Kind::kIndexScan:
        return VerifyScan(p);
      case Plan::Kind::kJoin:
        return VerifyJoin(p);
      case Plan::Kind::kFilter:
        return VerifyFilter(p);
      case Plan::Kind::kProject:
        return VerifyProject(p);
      case Plan::Kind::kAggregate:
        return VerifyAggregate(p);
      case Plan::Kind::kSort:
      case Plan::Kind::kTopN:
        return VerifySort(p);
      case Plan::Kind::kLimit:
      case Plan::Kind::kDistinct:
        return VerifyPassThrough(p);
    }
    return TenantState();
  }

  /// A node's emitted-slot list (Plan::emit) must select from its natural
  /// row of `width` slots in strictly ascending order.
  void CheckEmitSlots(const Plan& p, size_t width, const char* what) {
    int prev = -1;
    for (int slot : *p.emit) {
      if (slot < 0 || static_cast<size_t>(slot) >= width) {
        Report(ViolationCode::kSlotOutOfRange,
               std::string(what) + " emits slot " + std::to_string(slot) +
                   " but its natural row has " + std::to_string(width) +
                   " columns",
               &p);
        return;
      }
      if (slot <= prev) {
        Report(ViolationCode::kSlotOutOfRange,
               std::string(what) + " emits slot " + std::to_string(slot) +
                   " after slot " + std::to_string(prev) +
                   " (emitted slots must ascend)",
               &p);
        return;
      }
      prev = slot;
    }
  }

  TenantState VerifyScan(const Plan& p) {
    CheckParallelSafety(p);
    // The filter reads the table's schema row; the scan then emits the
    // slots of Plan::emit (all of them when unset).
    const size_t width = p.table != nullptr ? p.table->schema().columns.size()
                                            : p.columns.size();
    if (p.emit) CheckEmitSlots(p, width, "scan");
    const size_t emitted = p.emit ? p.emit->size() : width;
    if (p.table != nullptr && p.columns.size() != emitted) {
      Report(ViolationCode::kArityMismatch,
             "scan of " + p.table->schema().name + " outputs " +
                 std::to_string(p.columns.size()) + " columns but " +
                 (p.emit ? "its projection lists " : "the table has ") +
                 std::to_string(emitted),
             &p);
    }
    if (p.scan_filter) {
      CheckExprSlots(*p.scan_filter, width, &p, "scan filter");
      VerifyExprSubplans(*p.scan_filter, width);
    }
    if (TenantChecksOn() && p.table != nullptr && IsTenantTable(*p.table)) {
      VerifyPartitionSet(p);
    }
    TenantState state;
    if (TenantChecksOn() && p.table != nullptr && IsTenantTable(*p.table)) {
      if (ctx_->allow_unfiltered) return state;
      const int ttid_slot = p.table->schema().FindColumn(ctx_->ttid_column);
      if (ttid_slot < 0) {
        Report(ViolationCode::kTenantPredicateMissing,
               "tenant-specific table " + p.table->schema().name +
                   " exposes no " + ctx_->ttid_column +
                   " column to restrict on",
               &p);
        return state;
      }
      TtidSlot t;
      t.slot = ttid_slot;
      t.scan = &p;
      t.table = p.table->schema().name;
      state.pending.push_back(std::move(t));
      if (p.scan_filter) ApplyPredicate(*p.scan_filter, &state);
      // A ttid the scan does not emit is beyond every ancestor's reach: if
      // its own filter left it pending, the violation is here.
      if (p.emit) state = RemapThroughEmit(std::move(state), *p.emit);
    }
    return state;
  }

  /// Prove a pruned scan's partition set lies inside the image of D' under
  /// the table's routing function. Pruning is a physical superset cut over a
  /// ttid predicate, so a partition outside {Route(t) : t in D'} (or out of
  /// range) means the planner selected storage no expected tenant routes to —
  /// either a routing drift or a widened cut that breaks the
  /// scan-exactly-one-partition contract single-tenant scopes rely on.
  void VerifyPartitionSet(const Plan& p) {
    if (!p.pruned) return;
    const PartitionScheme& ps = p.table->partition();
    if (!ps.partitioned()) {
      Report(ViolationCode::kPartitionSetMismatch,
             "scan of " + p.table->schema().name +
                 " claims partition pruning but the table is not partitioned",
             &p);
      return;
    }
    const TableSchema& schema = p.table->schema();
    if (ps.column < 0 ||
        static_cast<size_t>(ps.column) >= schema.columns.size() ||
        !EqualsIgnoreCase(schema.columns[static_cast<size_t>(ps.column)].name,
                          ctx_->ttid_column)) {
      // Partitioned on something other than ttid: pruning carries no tenant
      // meaning, nothing to prove here.
      return;
    }
    int64_t count = ps.Count();
    std::vector<uint32_t> allowed;
    allowed.reserve(expected_sorted_.size());
    for (int64_t t : expected_sorted_) {
      allowed.push_back(static_cast<uint32_t>(ps.RouteInt(t)));
    }
    std::sort(allowed.begin(), allowed.end());
    for (uint32_t part : p.partitions) {
      if (part >= static_cast<uint64_t>(count)) {
        Report(ViolationCode::kPartitionSetMismatch,
               "pruned scan of " + p.table->schema().name +
                   " selects partition " + std::to_string(part) +
                   " but the table has only " + std::to_string(count),
               &p);
        return;
      }
      if (ctx_->allow_unfiltered) continue;
      if (!std::binary_search(allowed.begin(), allowed.end(), part)) {
        Report(ViolationCode::kPartitionSetMismatch,
               "pruned scan of " + p.table->schema().name +
                   " selects partition " + std::to_string(part) +
                   " which no expected tenant routes to",
               &p);
        return;
      }
    }
  }

  TenantState VerifyFilter(const Plan& p) {
    CheckParallelSafety(p);
    if (p.left == nullptr) {
      Report(ViolationCode::kArityMismatch, "filter has no input", &p);
      return TenantState();
    }
    TenantState state = VerifyNode(*p.left);
    size_t arity = p.left->columns.size();
    if (p.columns.size() != arity) {
      Report(ViolationCode::kArityMismatch,
             "filter output arity " + std::to_string(p.columns.size()) +
                 " differs from its input arity " + std::to_string(arity),
             &p);
    }
    if (p.predicate) {
      CheckExprSlots(*p.predicate, arity, &p, "filter predicate");
      VerifyExprSubplans(*p.predicate, arity);
      if (TenantChecksOn()) ApplyPredicate(*p.predicate, &state);
    }
    return state;
  }

  /// Remap the child state through a node's output list: `forward(slot,
  /// &out)` finds where the node emits child slot `slot`. A pending ttid slot
  /// that no output forwards has been projected away unrestricted — no
  /// ancestor can ever restrict it, so that is the point of violation.
  template <typename Forward>
  TenantState RemapState(TenantState child, Forward forward) {
    TenantState out;
    for (TtidSlot& t : child.pending) {
      int mapped = 0;
      if (forward(t.slot, &mapped)) {
        t.slot = mapped;
        out.pending.push_back(std::move(t));
      } else {
        ReportPending(t);
      }
    }
    for (int r : child.restricted) {
      int mapped = 0;
      if (forward(r, &mapped)) out.restricted.push_back(mapped);
    }
    return out;
  }

  /// Through a projection list: an output expression that is a plain slot
  /// forwards the child slot.
  TenantState RemapThroughExprs(TenantState child,
                                const std::vector<BoundExprPtr>& exprs) {
    return RemapState(std::move(child), [&exprs](int slot, int* out) {
      for (size_t i = 0; i < exprs.size(); ++i) {
        if (exprs[i] && exprs[i]->kind == BoundExpr::Kind::kSlot &&
            exprs[i]->slot == slot) {
          *out = static_cast<int>(i);
          return true;
        }
      }
      return false;
    });
  }

  /// Through an emitted-slot list (Plan::emit) over the node's natural row.
  TenantState RemapThroughEmit(TenantState child,
                               const std::vector<int>& emit) {
    return RemapState(std::move(child), [&emit](int slot, int* out) {
      auto it = std::find(emit.begin(), emit.end(), slot);
      if (it == emit.end()) return false;
      *out = static_cast<int>(it - emit.begin());
      return true;
    });
  }

  TenantState VerifyProject(const Plan& p) {
    CheckParallelSafety(p);
    if (p.left == nullptr) {
      Report(ViolationCode::kArityMismatch, "projection has no input", &p);
      return TenantState();
    }
    TenantState child = VerifyNode(*p.left);
    size_t arity = p.left->columns.size();
    if (p.columns.size() != p.exprs.size()) {
      Report(ViolationCode::kArityMismatch,
             "projection outputs " + std::to_string(p.columns.size()) +
                 " columns from " + std::to_string(p.exprs.size()) +
                 " expressions",
             &p);
    }
    for (const auto& e : p.exprs) {
      if (!e) continue;
      CheckExprSlots(*e, arity, &p, "projection expression");
      VerifyExprSubplans(*e, arity);
    }
    return RemapThroughExprs(std::move(child), p.exprs);
  }

  TenantState VerifyAggregate(const Plan& p) {
    CheckParallelSafety(p);
    if (p.left == nullptr) {
      Report(ViolationCode::kArityMismatch, "aggregate has no input", &p);
      return TenantState();
    }
    TenantState child = VerifyNode(*p.left);
    size_t arity = p.left->columns.size();
    if (p.columns.size() != p.exprs.size() + p.aggs.size()) {
      Report(ViolationCode::kArityMismatch,
             "aggregate outputs " + std::to_string(p.columns.size()) +
                 " columns but has " + std::to_string(p.exprs.size()) +
                 " group keys and " + std::to_string(p.aggs.size()) +
                 " aggregates",
             &p);
    }
    for (const auto& e : p.exprs) {
      if (!e) continue;
      CheckExprSlots(*e, arity, &p, "group key");
      VerifyExprSubplans(*e, arity);
    }
    for (const auto& a : p.aggs) {
      if (!a.arg) continue;
      CheckExprSlots(*a.arg, arity, &p, "aggregate argument");
      VerifyExprSubplans(*a.arg, arity);
    }
    // Group keys project like expressions (output slots [0, exprs)); the
    // aggregate outputs never forward a ttid column.
    return RemapThroughExprs(std::move(child), p.exprs);
  }

  TenantState VerifyJoin(const Plan& p) {
    CheckParallelSafety(p);
    if (p.left == nullptr || p.right == nullptr) {
      Report(ViolationCode::kArityMismatch, "join is missing an input", &p);
      return TenantState();
    }
    TenantState left = VerifyNode(*p.left);
    TenantState right = VerifyNode(*p.right);
    size_t larity = p.left->columns.size();
    size_t rarity = p.right->columns.size();

    if (p.left_keys.size() != p.right_keys.size()) {
      Report(ViolationCode::kJoinKeyMismatch,
             "join has " + std::to_string(p.left_keys.size()) +
                 " left keys and " + std::to_string(p.right_keys.size()) +
                 " right keys",
             &p);
    }
    if (p.naaj_in_keys > std::min(p.left_keys.size(), p.right_keys.size())) {
      Report(ViolationCode::kJoinKeyMismatch,
             "null-aware key prefix " + std::to_string(p.naaj_in_keys) +
                 " exceeds the join key count",
             &p);
    }
    for (const auto& k : p.left_keys) {
      CheckExprSlots(*k, larity, &p, "left join key");
      VerifyExprSubplans(*k, larity);
    }
    for (const auto& k : p.right_keys) {
      CheckExprSlots(*k, rarity, &p, "right join key");
      VerifyExprSubplans(*k, rarity);
    }
    if (p.residual) {
      CheckExprSlots(*p.residual, larity + rarity, &p, "join residual");
      VerifyExprSubplans(*p.residual, larity + rarity);
    }

    bool concat_output =
        p.join_kind == JoinKind::kInner || p.join_kind == JoinKind::kLeft;
    const size_t natural = concat_output ? larity + rarity : larity;
    if (p.emit) CheckEmitSlots(p, natural, "join");
    const size_t expect = p.emit ? p.emit->size() : natural;
    if (p.columns.size() != expect) {
      Report(ViolationCode::kArityMismatch,
             "join outputs " + std::to_string(p.columns.size()) +
                 " columns, expected " + std::to_string(expect),
             &p);
    }

    if (!TenantChecksOn()) return TenantState();

    // Work in the concat layout first: the residual and the key transfer
    // both see left and right columns, whatever the output shape is.
    TenantState concat;
    AppendOffset(std::move(left), 0, &concat);
    AppendOffset(std::move(right), static_cast<int>(larity), &concat);
    if (p.residual) {
      // What the residual may restrict depends on the join's semantics:
      // INNER/SEMI output rows all satisfied it (either side); a LEFT
      // join's unmatched left rows survive the ON clause, so only the
      // emitted right columns are restricted (unmatched rows null them
      // out — nothing is exposed); ANTI output rows are precisely the
      // ones where the condition found no match, so it restricts nothing.
      if (p.join_kind == JoinKind::kInner || p.join_kind == JoinKind::kSemi) {
        ApplyPredicate(*p.residual, &concat);
      } else if (p.join_kind == JoinKind::kLeft) {
        TenantState right_side;
        std::vector<TtidSlot> left_pending;
        for (TtidSlot& t : concat.pending) {
          if (static_cast<size_t>(t.slot) >= larity) {
            right_side.pending.push_back(std::move(t));
          } else {
            left_pending.push_back(std::move(t));
          }
        }
        right_side.restricted = std::move(concat.restricted);
        ApplyPredicate(*p.residual, &right_side);
        concat.pending = std::move(left_pending);
        concat.pending.insert(concat.pending.end(),
                              std::make_move_iterator(right_side.pending.begin()),
                              std::make_move_iterator(right_side.pending.end()));
        concat.restricted = std::move(right_side.restricted);
      }
    }

    // Equi-key transfer: ttid_pending = ttid_restricted propagates the
    // restriction across the join. Sound for INNER and SEMI joins (rows
    // surviving the join satisfy the equality) and for the emitted right
    // rows of a LEFT join; never for a LEFT join's left side (unmatched
    // rows survive) or for ANTI joins (output rows are exactly the ones
    // where no equality held).
    size_t npairs = std::min(p.left_keys.size(), p.right_keys.size());
    for (size_t i = 0; i < npairs; ++i) {
      const BoundExpr& lk = *p.left_keys[i];
      const BoundExpr& rk = *p.right_keys[i];
      if (lk.kind != BoundExpr::Kind::kSlot ||
          rk.kind != BoundExpr::Kind::kSlot) {
        continue;
      }
      int lslot = lk.slot;
      int rslot = rk.slot + static_cast<int>(larity);
      auto restricted = [&concat](int slot) {
        return std::find(concat.restricted.begin(), concat.restricted.end(),
                         slot) != concat.restricted.end();
      };
      auto transfer = [&concat, &restricted](int from, int to) {
        if (!restricted(from)) return;
        for (auto it = concat.pending.begin(); it != concat.pending.end();) {
          if (it->slot == to) {
            concat.restricted.push_back(to);
            it = concat.pending.erase(it);
          } else {
            ++it;
          }
        }
      };
      if (p.join_kind == JoinKind::kInner || p.join_kind == JoinKind::kSemi) {
        transfer(lslot, rslot);
        transfer(rslot, lslot);
      } else if (p.join_kind == JoinKind::kLeft) {
        transfer(lslot, rslot);
      }
    }

    TenantState out;
    if (concat_output) {
      out = std::move(concat);
    } else {
      // Semi/anti output carries left columns only: right-side pending
      // slots are dropped here, beyond any ancestor's reach.
      for (TtidSlot& t : concat.pending) {
        if (static_cast<size_t>(t.slot) < larity) {
          out.pending.push_back(std::move(t));
        } else {
          ReportPending(t);
        }
      }
      for (int r : concat.restricted) {
        if (static_cast<size_t>(r) < larity) out.restricted.push_back(r);
      }
    }
    // Natural slots the join does not emit are likewise beyond reach.
    return p.emit ? RemapThroughEmit(std::move(out), *p.emit) : out;
  }

  TenantState VerifySort(const Plan& p) {
    CheckParallelSafety(p);
    if (p.left == nullptr) {
      Report(ViolationCode::kArityMismatch, "sort has no input", &p);
      return TenantState();
    }
    TenantState state = VerifyNode(*p.left);
    size_t arity = p.left->columns.size();
    if (p.columns.size() != arity) {
      Report(ViolationCode::kArityMismatch,
             "sort output arity " + std::to_string(p.columns.size()) +
                 " differs from its input arity " + std::to_string(arity),
             &p);
    }
    for (const auto& [slot, desc] : p.sort_keys) {
      (void)desc;
      if (slot < 0 || static_cast<size_t>(slot) >= arity) {
        Report(ViolationCode::kSortKeyOutOfRange,
               "sort key slot " + std::to_string(slot) +
                   " lies outside the input layout of " +
                   std::to_string(arity) + " columns",
               &p);
      }
    }
    if (p.kind == Plan::Kind::kTopN && (p.limit < 0 || p.offset < 0)) {
      Report(ViolationCode::kNegativeLimit,
             "top-N carries limit " + std::to_string(p.limit) + " offset " +
                 std::to_string(p.offset),
             &p);
    }
    return state;
  }

  TenantState VerifyPassThrough(const Plan& p) {
    CheckParallelSafety(p);
    if (p.left == nullptr) {
      Report(ViolationCode::kArityMismatch, "operator has no input", &p);
      return TenantState();
    }
    TenantState state = VerifyNode(*p.left);
    if (p.columns.size() != p.left->columns.size()) {
      Report(ViolationCode::kArityMismatch,
             "operator output arity " + std::to_string(p.columns.size()) +
                 " differs from its input arity " +
                 std::to_string(p.left->columns.size()),
             &p);
    }
    if (p.kind == Plan::Kind::kLimit && (p.limit < 0 || p.offset < 0)) {
      Report(ViolationCode::kNegativeLimit,
             "limit operator carries limit " + std::to_string(p.limit) +
                 " offset " + std::to_string(p.offset),
             &p);
    }
    return state;
  }

  const VerifyContext* ctx_;
  std::vector<int64_t> expected_sorted_;
  VerifyResult result_;
  /// Enclosing input layouts for kOuterSlot bounds checks (back = depth 1).
  std::vector<size_t> outer_arities_;
  /// UDF body plans already verified under this statement (bodies are shared
  /// and may be called from many sites).
  std::set<const Plan*> verified_bodies_;
};

}  // namespace

VerifyResult PlanVerifier::Verify(const Plan& plan) const {
  VerifierImpl impl(ctx_);
  return impl.Run(plan);
}

}  // namespace verify
}  // namespace engine
}  // namespace mtbase
