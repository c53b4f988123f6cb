// Test-only plan mutations: deliberately break a bound plan's invariants so
// the negative suites can prove PlanVerifier detects each violation class.
// Installed through Database::set_plan_mutation_hook_for_testing(); never
// called on a production path.
#ifndef MTBASE_ENGINE_VERIFY_MUTATORS_H_
#define MTBASE_ENGINE_VERIFY_MUTATORS_H_

#include <string>

#include "engine/bound.h"

namespace mtbase {
namespace engine {
namespace verify {

/// Remove every conjunct that restricts a column named `ttid_column` (IN-list
/// or equality against literals) from scan filters (read in schema space),
/// filter predicates and join residuals, recursively — simulating a
/// rewriter that forgot its D-filters. Returns the number of conjuncts stripped (0 means the plan had
/// no tenant predicates to lose, e.g. at o1 with a full dataset).
int StripTenantPredicates(Plan* plan, const std::string& ttid_column);

/// Flip the first node the planner left serial to parallel_safe — simulating
/// marking-logic drift. Returns false when every node was already safe.
bool MislabelFirstSerialNode(Plan* plan);

/// Point the first sort/top-N key at a slot one past the child layout —
/// simulating a planner slot-bookkeeping bug. Returns false when the plan
/// has no sort keys.
bool BreakFirstSortKey(Plan* plan);

/// Widen the first pruned scan's partition set to every partition of its
/// table — simulating a pruning pass whose superset cut drifted past the
/// D-filter's tenant image. Returns false when no scan was pruned.
bool WidenPartitionPruning(Plan* plan);

}  // namespace verify
}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_VERIFY_MUTATORS_H_
