// Planner: turns a parsed SELECT into a physical plan.
//
// Features: filter pushdown into scans, left-deep hash joins in FROM order,
// view expansion, and sub-query unnesting (EXISTS/NOT EXISTS and correlated
// IN into semi/anti joins, equality-correlated scalar aggregates into
// group-by + outer join). Anything not unnestable falls back to correct
// per-row evaluation. See DESIGN.md section 5 for why this mirrors the
// sub-query policy of real systems. Two post-passes follow: tenant-aware
// access paths (partition pruning, ordered-index scans) and column pruning,
// which makes scans, joins and Projects below the root carry only the
// columns the query reads (Plan::emit; docs/ARCHITECTURE.md "Column
// pruning").
#ifndef MTBASE_ENGINE_PLANNER_H_
#define MTBASE_ENGINE_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/bound.h"
#include "engine/catalog.h"
#include "engine/udf.h"
#include "sql/ast.h"

namespace mtbase {
namespace engine {

struct PlannerOptions {
  /// Rewrite correlated equality-EXISTS/NOT EXISTS/IN sub-queries into hash
  /// semi-/anti-joins. Off forces the per-row fallback everywhere — the
  /// O(outer rows) baseline that regression tests and benchmarks compare
  /// against.
  bool decorrelate_subqueries = true;

  /// Intra-query parallelism budget: the number of workers a statement's
  /// execution may use for morsel-driven scans, hash joins and
  /// parallel aggregation. 0 = auto (MTBASE_THREADS env, else
  /// hardware_concurrency); 1 forces serial execution. Parallel and serial
  /// runs produce byte-identical results, so this is purely a perf knob.
  int max_threads = 0;

  /// Operators whose input has fewer rows than this always run serially
  /// (parallelism overhead dominates on small inputs). Tests lower it to
  /// force the parallel path on small data sets.
  size_t min_parallel_rows = 4096;

  /// Use tenant-aware physical access paths: partition pruning on scans of
  /// partitioned tables whose pushed filter pins the partition column to an
  /// integer equality/IN set, and ordered-index scans when a leading index
  /// column is pinned the same way. Results are byte-identical either way;
  /// off forces full scans, which regression tests and the bench compare
  /// against. Toggling recompiles prepared statements (options version).
  bool physical_access_paths = true;

  /// Fuse an ORDER BY directly under a LIMIT into a bounded top-N operator
  /// (per-worker heaps keep only limit + offset candidates instead of
  /// sorting the full input). Output is byte-identical to full-sort +
  /// LIMIT/OFFSET; off forces the full sort, which regression tests compare
  /// against. Toggling recompiles prepared statements (options version).
  bool topn_pushdown = true;
};

class Planner {
 public:
  Planner(const Catalog* catalog, const UdfRegistry* udfs,
          const PlannerOptions& options = PlannerOptions())
      : catalog_(catalog), udfs_(udfs), options_(options) {}

  /// Plan a top-level SELECT.
  Result<PlanPtr> PlanSelect(const sql::SelectStmt& sel) const;

  /// Plan the target of an UPDATE or DELETE: a Scan (or IndexScan) of
  /// `table` with `where` (null = every row) placed as for `SELECT * FROM
  /// table WHERE ...` — partition pruning and index selection included —
  /// under a Filter for each correlated sub-query conjunct, which is never
  /// unnested. So every row the plan keeps is one table row, by id.
  Result<PlanPtr> PlanDmlTarget(const std::string& table,
                                const sql::Expr* where) const;

  /// Bind a scalar expression against a fixed row layout (used for UPDATE
  /// assignments and database-level check constraints).
  Result<BoundExprPtr> BindExpr(const sql::Expr& e,
                                const std::vector<ColumnMeta>& layout) const;

 private:
  const Catalog* catalog_;
  const UdfRegistry* udfs_;
  PlannerOptions options_;
};

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_PLANNER_H_
