#include "engine/verify/mutators.h"

#include <utility>
#include <vector>

#include "common/str_util.h"
#include "engine/catalog.h"

namespace mtbase {
namespace engine {
namespace verify {

namespace {

bool IsTtidSlotRef(const BoundExpr& e, const std::vector<ColumnMeta>& layout,
                   const std::string& ttid_column) {
  return e.kind == BoundExpr::Kind::kSlot && e.slot >= 0 &&
         static_cast<size_t>(e.slot) < layout.size() &&
         EqualsIgnoreCase(layout[static_cast<size_t>(e.slot)].name,
                          ttid_column);
}

/// A D-filter-shaped conjunct: `ttid IN (...)` or `ttid = x` / `x = ttid`.
bool IsTenantConjunct(const BoundExpr& e, const std::vector<ColumnMeta>& layout,
                      const std::string& ttid_column) {
  if (e.kind == BoundExpr::Kind::kInList && !e.args.empty()) {
    return IsTtidSlotRef(*e.args[0], layout, ttid_column);
  }
  if (e.kind == BoundExpr::Kind::kBinary && e.bin_op == BinOp::kEq &&
      e.args.size() == 2) {
    return IsTtidSlotRef(*e.args[0], layout, ttid_column) ||
           IsTtidSlotRef(*e.args[1], layout, ttid_column);
  }
  return false;
}

/// Rebuild the AND-conjunct tree without tenant conjuncts; null when nothing
/// survives.
BoundExprPtr Strip(BoundExprPtr e, const std::vector<ColumnMeta>& layout,
                   const std::string& ttid_column, int* stripped) {
  if (!e) return nullptr;
  if (e->kind == BoundExpr::Kind::kBinary && e->bin_op == BinOp::kAnd &&
      e->args.size() == 2) {
    BoundExprPtr l =
        Strip(std::move(e->args[0]), layout, ttid_column, stripped);
    BoundExprPtr r =
        Strip(std::move(e->args[1]), layout, ttid_column, stripped);
    if (l && r) {
      e->args[0] = std::move(l);
      e->args[1] = std::move(r);
      return e;
    }
    return l ? std::move(l) : std::move(r);
  }
  if (IsTenantConjunct(*e, layout, ttid_column)) {
    ++*stripped;
    return nullptr;
  }
  return e;
}

std::vector<ColumnMeta> ConcatLayout(const Plan& p) {
  std::vector<ColumnMeta> layout;
  if (p.left) layout = p.left->columns;
  if (p.right) {
    layout.insert(layout.end(), p.right->columns.begin(),
                  p.right->columns.end());
  }
  return layout;
}

int StripNode(Plan* p, const std::string& ttid_column) {
  int stripped = 0;
  if (p->scan_filter) {
    // Scan filters are bound over the table's schema row, whatever the scan
    // emits (Plan::emit).
    std::vector<ColumnMeta> schema_row = p->columns;
    if (p->table != nullptr) {
      schema_row.clear();
      for (const auto& c : p->table->schema().columns) {
        schema_row.push_back({"", c.name});
      }
    }
    p->scan_filter =
        Strip(std::move(p->scan_filter), schema_row, ttid_column, &stripped);
  }
  if (p->predicate && p->left) {
    p->predicate = Strip(std::move(p->predicate), p->left->columns,
                         ttid_column, &stripped);
  }
  if (p->residual) {
    p->residual =
        Strip(std::move(p->residual), ConcatLayout(*p), ttid_column, &stripped);
  }
  if (p->left) stripped += StripNode(p->left.get(), ttid_column);
  if (p->right) stripped += StripNode(p->right.get(), ttid_column);
  return stripped;
}

}  // namespace

int StripTenantPredicates(Plan* plan, const std::string& ttid_column) {
  return StripNode(plan, ttid_column);
}

bool MislabelFirstSerialNode(Plan* plan) {
  if (!plan->parallel_safe) {
    plan->parallel_safe = true;
    return true;
  }
  if (plan->left && MislabelFirstSerialNode(plan->left.get())) return true;
  if (plan->right && MislabelFirstSerialNode(plan->right.get())) return true;
  return false;
}

bool WidenPartitionPruning(Plan* plan) {
  if (plan->kind == Plan::Kind::kScan && plan->pruned &&
      plan->table != nullptr) {
    int64_t count = plan->table->partition().Count();
    plan->partitions.clear();
    for (int64_t i = 0; i < count; ++i) {
      plan->partitions.push_back(static_cast<uint32_t>(i));
    }
    return true;
  }
  if (plan->left && WidenPartitionPruning(plan->left.get())) return true;
  if (plan->right && WidenPartitionPruning(plan->right.get())) return true;
  return false;
}

bool BreakFirstSortKey(Plan* plan) {
  if ((plan->kind == Plan::Kind::kSort || plan->kind == Plan::Kind::kTopN) &&
      !plan->sort_keys.empty() && plan->left) {
    plan->sort_keys[0].first = static_cast<int>(plan->left->columns.size());
    return true;
  }
  if (plan->left && BreakFirstSortKey(plan->left.get())) return true;
  if (plan->right && BreakFirstSortKey(plan->right.get())) return true;
  return false;
}

}  // namespace verify
}  // namespace engine
}  // namespace mtbase
