// EXPLAIN support: human-readable rendering of physical plans.
#ifndef MTBASE_ENGINE_EXPLAIN_H_
#define MTBASE_ENGINE_EXPLAIN_H_

#include <string>

#include "common/result.h"
#include "engine/bound.h"
#include "engine/catalog.h"
#include "engine/planner.h"
#include "engine/udf.h"
#include "engine/verify/verifier.h"
#include "sql/ast.h"

namespace mtbase {

namespace obs {
class PlanProfiler;
}  // namespace obs

namespace engine {

/// Render a physical plan as an indented operator tree, e.g.
///   Sort (keys: 1 DESC)
///     Aggregate (groups: 1, aggs: SUM, COUNT)
///       HashJoin INNER (2 keys) [parallel: 4 threads]
///         Scan lineitem (filtered) [parallel: 4 threads]
///         Scan orders
///
/// The full line grammar — operator subjects, (details), and the bracketed
/// annotations [nested-loop] / [decorrelated ...] / [udf: ...] /
/// [parallel: ...], with worked examples — is documented in docs/explain.md.
///
/// With `profiles` set — the EXPLAIN (ANALYZE) surface, filled by an
/// instrumented execution of this exact plan tree — every operator line gets
/// a trailing `[actual: ...]` annotation (docs/observability.md).
std::string ExplainPlan(const Plan& plan, const PlannerOptions* options = nullptr,
                        const obs::PlanProfiler* profiles = nullptr);

/// Plan a SELECT against the catalog and explain it (parallel annotations
/// reflect `options`). With `verify_ctx` set — the EXPLAIN (VERIFY) surface —
/// the plan additionally runs through PlanVerifier (regardless of whether
/// enforcement is on) and a final `[verify: ok]` or `[verify: FAILED <codes>]`
/// line is appended; see docs/explain.md.
Result<std::string> ExplainSelect(const Catalog* catalog,
                                  const UdfRegistry* udfs,
                                  const sql::SelectStmt& sel,
                                  const PlannerOptions& options = {},
                                  const verify::VerifyContext* verify_ctx =
                                      nullptr);

/// EXPLAIN of an UPDATE or DELETE: an `Update <table>` or `Delete <table>`
/// line over its target plan (Planner::PlanDmlTarget), rendered as
/// ExplainPlan does, one level deeper. `verify_ctx` appends the verify
/// footer as for ExplainSelect.
Result<std::string> ExplainDml(const Catalog* catalog, const UdfRegistry* udfs,
                               const sql::Stmt& stmt,
                               const PlannerOptions& options = {},
                               const verify::VerifyContext* verify_ctx =
                                   nullptr);

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_EXPLAIN_H_
