#include "engine/explain.h"

#include <cstdio>

#include "engine/obs/profile.h"
#include "engine/parallel/parallel.h"
#include "engine/planner.h"
#include "engine/udf.h"

namespace mtbase {
namespace engine {

namespace {

/// Rendering context for the parallel and [actual: ...] annotations
/// (null = omit them all).
struct ExplainCtx {
  int threads = 1;
  size_t min_rows = 0;
  /// Profiles from an instrumented execution (EXPLAIN (ANALYZE));
  /// null = no actuals.
  const obs::PlanProfiler* profiles = nullptr;
};

/// Append " [parallel: N threads]" when the operator is parallel-safe and
/// its static input estimate clears the min_parallel_rows gate — i.e. it
/// would plausibly run morsel-parallel at execution time.
void AppendParallel(const Plan& p, const ExplainCtx* ctx, std::string* out) {
  if (ctx == nullptr || ctx->threads <= 1 || !p.parallel_safe) return;
  if (parallel::EstimatePlanRows(p) < ctx->min_rows) return;
  *out += " [parallel: " + std::to_string(ctx->threads) + " threads]";
}

/// Sort/top-N variant of the annotation: " [parallel sort: N threads]" when
/// the run-sort + merge path would plausibly engage (sort.cc).
void AppendParallelSort(const Plan& p, const ExplainCtx* ctx,
                        std::string* out) {
  if (ctx == nullptr || ctx->threads <= 1 || !p.parallel_safe) return;
  if (parallel::EstimatePlanRows(p) < ctx->min_rows) return;
  *out += " [parallel sort: " + std::to_string(ctx->threads) + " threads]";
}

std::string FormatMs(uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(nanos) / 1e6);
  return buf;
}

/// Immediate plan children of a node: left/right inputs plus the sub-plans
/// hanging off its own expressions (SubPlan/InitPlan). Used to turn the
/// profiler's inclusive counter deltas into per-node exclusive figures.
void CollectExprSubplans(const BoundExpr& e, std::vector<const Plan*>* out) {
  if (e.subplan) out->push_back(e.subplan.get());
  ForEachExprChild(e,
                   [out](const BoundExpr& c) { CollectExprSubplans(c, out); });
}

std::vector<const Plan*> ImmediateChildren(const Plan& p) {
  std::vector<const Plan*> children;
  if (p.left) children.push_back(p.left.get());
  if (p.right) children.push_back(p.right.get());
  ForEachPlanExpr(p, [&children](const BoundExpr& e) {
    CollectExprSubplans(e, &children);
  });
  return children;
}

/// Append the EXPLAIN (ANALYZE) annotation: " [actual: rows=N ...]" from the
/// node's OpProfile, or " [actual: never executed]" for nodes the execution
/// skipped (e.g. a sub-plan behind a short-circuited predicate). rows/time/
/// cpu are inclusive of the subtree; morsels and udf/hit are exclusive (the
/// immediate children's inclusive deltas are subtracted) so per-operator
/// attribution reads directly. loops appears when the node executed more
/// than once (per-row sub-plans); workers when a parallel region engaged;
/// removed (the node's own) on filtered scans and Filters.
void AppendActual(const Plan& p, const ExplainCtx* ctx, std::string* out) {
  if (ctx == nullptr || ctx->profiles == nullptr) return;
  const obs::OpProfile* prof = ctx->profiles->Find(&p);
  if (prof == nullptr) {
    *out += " [actual: never executed]";
    return;
  }
  uint64_t child_morsels = 0;
  uint64_t child_udf = 0;
  uint64_t child_hits = 0;
  for (const Plan* c : ImmediateChildren(p)) {
    const obs::OpProfile* cp = ctx->profiles->Find(c);
    if (cp == nullptr) continue;
    child_morsels += cp->morsels;
    child_udf += cp->udf_calls;
    child_hits += cp->udf_cache_hits;
  }
  const uint64_t morsels =
      prof->morsels > child_morsels ? prof->morsels - child_morsels : 0;
  const uint64_t udf =
      prof->udf_calls > child_udf ? prof->udf_calls - child_udf : 0;
  const uint64_t hits =
      prof->udf_cache_hits > child_hits ? prof->udf_cache_hits - child_hits
                                        : 0;
  *out += " [actual: rows=" + std::to_string(prof->rows_out);
  if (prof->executions > 1) {
    *out += " loops=" + std::to_string(prof->executions);
  }
  *out += " time=" + FormatMs(prof->wall_nanos) + "ms";
  *out += " cpu=" + FormatMs(prof->cpu_nanos) + "ms";
  if (prof->workers > 1) {
    *out += " workers=" + std::to_string(prof->workers);
  }
  if (morsels > 0) *out += " morsels=" + std::to_string(morsels);
  if (udf > 0 || hits > 0) {
    *out += " udf=" + std::to_string(udf) + " hit=" + std::to_string(hits);
  }
  // Rows removed by a predicate, last in the bracket: a filtered scan or
  // index scan, and every Filter.
  if (p.scan_filter || p.kind == Plan::Kind::kFilter) {
    *out += " removed=" + std::to_string(prof->rows_removed);
  }
  *out += "]";
}

const char* JoinKindName(JoinKind k) {
  switch (k) {
    case JoinKind::kInner:
      return "INNER";
    case JoinKind::kLeft:
      return "LEFT";
    case JoinKind::kSemi:
      return "SEMI";
    case JoinKind::kAnti:
      return "ANTI";
  }
  return "?";
}

const char* AggName(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
      return "COUNT(*)";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

const char* OriginName(SubqueryOrigin o) {
  switch (o) {
    case SubqueryOrigin::kNone:
      return "";
    case SubqueryOrigin::kExists:
      return "EXISTS";
    case SubqueryOrigin::kNotExists:
      return "NOT EXISTS";
    case SubqueryOrigin::kIn:
      return "IN";
    case SubqueryOrigin::kNotIn:
      return "NOT IN";
    case SubqueryOrigin::kScalarAgg:
      return "scalar agg";
  }
  return "";
}

/// UDF calls found in an operator's own expressions, for the trailing
/// [udf: ...] annotation (docs/explain.md) — the single marker for UDF
/// presence and volatility. The operator's effective class is the weakest
/// one called: one volatile call keeps it serial and uncached.
struct UdfSummary {
  bool any = false;
  sql::Volatility weakest = sql::Volatility::kImmutable;
};

void CollectUdfs(const BoundExpr& e, UdfSummary* s) {
  if (e.kind == BoundExpr::Kind::kUdfCall) {
    s->any = true;
    sql::Volatility v =
        e.udf != nullptr ? e.udf->volatility : sql::Volatility::kVolatile;
    if (v < s->weakest) s->weakest = v;
  }
  ForEachExprChild(e, [s](const BoundExpr& c) { CollectUdfs(c, s); });
}

/// Append the operator's effective UDF class: " [udf: immutable, cached]"
/// (results served from the per-statement/shared caches, parallel-eligible),
/// " [udf: stable, statement-cached]" (cached within one statement, serial)
/// or " [udf: volatile]" (every evaluation may run the body, serial).
void AppendUdf(const Plan& p, std::string* out) {
  UdfSummary s;
  ForEachPlanExpr(p, [&s](const BoundExpr& e) { CollectUdfs(e, &s); });
  if (!s.any) return;
  switch (s.weakest) {
    case sql::Volatility::kImmutable:
      *out += " [udf: immutable, cached]";
      break;
    case sql::Volatility::kStable:
      *out += " [udf: stable, statement-cached]";
      break;
    case sql::Volatility::kVolatile:
      *out += " [udf: volatile]";
      break;
  }
}

void Render(const Plan& p, int depth, const ExplainCtx* ctx, std::string* out);

/// Render the sub-plans reachable from an expression. Correlated sub-queries
/// that escaped decorrelation execute once per input row ("SubPlan");
/// uncorrelated ones execute once and are cached ("InitPlan"). Together with
/// the join annotations this makes the chosen sub-query strategy visible.
void RenderExprSubplans(const BoundExpr& e, int depth, const ExplainCtx* ctx,
                        std::string* out) {
  if (e.subplan) {
    out->append(static_cast<size_t>(depth) * 2, ' ');
    const char* what = "scalar";
    if (e.kind == BoundExpr::Kind::kExistsSub) {
      what = e.negated ? "NOT EXISTS" : "EXISTS";
    } else if (e.kind == BoundExpr::Kind::kInSet) {
      what = e.negated ? "NOT IN" : "IN";
    }
    if (e.correlated) {
      *out += std::string("SubPlan (") + what + ", per-row)\n";
    } else {
      *out += std::string("InitPlan (") + what + ", cached)\n";
    }
    Render(*e.subplan, depth + 1, ctx, out);
  }
  ForEachExprChild(e, [&](const BoundExpr& c) {
    RenderExprSubplans(c, depth, ctx, out);
  });
}

void RenderPlanSubplans(const Plan& p, int depth, const ExplainCtx* ctx,
                        std::string* out) {
  ForEachPlanExpr(p, [&](const BoundExpr& e) {
    RenderExprSubplans(e, depth, ctx, out);
  });
}

void Render(const Plan& p, int depth, const ExplainCtx* ctx,
            std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  switch (p.kind) {
    case Plan::Kind::kScan:
      *out += "Scan ";
      *out += p.table != nullptr ? p.table->schema().name : "<dual>";
      if (p.scan_filter) *out += " (filtered)";
      if (p.pruned && p.table != nullptr) {
        const int total = p.table->partition().Count();
        const int kept = static_cast<int>(p.partitions.size());
        *out += " [partitions: " + std::to_string(total - kept) + "/" +
                std::to_string(total) + " pruned]";
      }
      AppendUdf(p, out);
      AppendParallel(p, ctx, out);
      AppendActual(p, ctx, out);
      *out += "\n";
      RenderPlanSubplans(p, depth + 1, ctx, out);
      return;
    case Plan::Kind::kIndexScan: {
      *out += "IndexScan ";
      *out += p.table != nullptr ? p.table->schema().name : "<dual>";
      if (p.scan_filter) *out += " (filtered)";
      const TableIndex* ix =
          p.table != nullptr ? p.table->FindIndex(p.index_name) : nullptr;
      const std::string col =
          ix != nullptr && !ix->columns.empty() ? ix->columns[0] : "?";
      *out += " [index scan: " + p.index_name + ", " + col;
      if (p.index_keys.size() == 1) {
        *out += " = " + std::to_string(p.index_keys[0]);
      } else {
        *out += " IN (";
        for (size_t i = 0; i < p.index_keys.size(); ++i) {
          if (i) *out += ", ";
          *out += std::to_string(p.index_keys[i]);
        }
        *out += ")";
      }
      *out += "]";
      AppendUdf(p, out);
      AppendActual(p, ctx, out);
      *out += "\n";
      RenderPlanSubplans(p, depth + 1, ctx, out);
      return;
    }
    case Plan::Kind::kJoin:
      *out += "HashJoin ";
      *out += JoinKindName(p.join_kind);
      *out += " (" + std::to_string(p.left_keys.size()) + " keys";
      if (p.residual) *out += ", residual";
      *out += ")";
      if (p.left_keys.empty()) *out += " [nested-loop]";
      if (p.decorrelated_from != SubqueryOrigin::kNone) {
        *out += std::string(" [decorrelated ") + OriginName(p.decorrelated_from);
        if (p.null_aware) *out += ", null-aware";
        *out += "]";
      }
      AppendUdf(p, out);
      AppendParallel(p, ctx, out);
      AppendActual(p, ctx, out);
      *out += "\n";
      RenderPlanSubplans(p, depth + 1, ctx, out);
      Render(*p.left, depth + 1, ctx, out);
      Render(*p.right, depth + 1, ctx, out);
      return;
    case Plan::Kind::kFilter:
      *out += "Filter";
      AppendUdf(p, out);
      AppendParallel(p, ctx, out);
      AppendActual(p, ctx, out);
      *out += "\n";
      break;
    case Plan::Kind::kProject:
      *out += "Project (" + std::to_string(p.exprs.size()) + " columns)";
      AppendUdf(p, out);
      AppendParallel(p, ctx, out);
      AppendActual(p, ctx, out);
      *out += "\n";
      break;
    case Plan::Kind::kAggregate: {
      *out += "Aggregate (groups: " + std::to_string(p.exprs.size()) +
              ", aggs:";
      for (const auto& a : p.aggs) {
        *out += " ";
        *out += AggName(a.func);
        if (a.distinct) *out += " DISTINCT";
      }
      *out += ")";
      AppendUdf(p, out);
      AppendParallel(p, ctx, out);
      AppendActual(p, ctx, out);
      *out += "\n";
      break;
    }
    case Plan::Kind::kSort: {
      *out += "Sort (keys:";
      for (const auto& [slot, desc] : p.sort_keys) {
        *out += " " + std::to_string(slot) + (desc ? " DESC" : "");
      }
      *out += ")";
      AppendParallelSort(p, ctx, out);
      AppendActual(p, ctx, out);
      *out += "\n";
      break;
    }
    case Plan::Kind::kTopN: {
      *out += "TopN (keys:";
      for (const auto& [slot, desc] : p.sort_keys) {
        *out += " " + std::to_string(slot) + (desc ? " DESC" : "");
      }
      *out += ") [top-n: " + std::to_string(p.limit);
      if (p.offset > 0) *out += ", offset " + std::to_string(p.offset);
      *out += "]";
      AppendParallelSort(p, ctx, out);
      AppendActual(p, ctx, out);
      *out += "\n";
      break;
    }
    case Plan::Kind::kLimit:
      *out += "Limit " + std::to_string(p.limit);
      if (p.offset > 0) *out += " OFFSET " + std::to_string(p.offset);
      AppendActual(p, ctx, out);
      *out += "\n";
      break;
    case Plan::Kind::kDistinct:
      *out += "Distinct";
      AppendActual(p, ctx, out);
      *out += "\n";
      break;
  }
  RenderPlanSubplans(p, depth + 1, ctx, out);
  if (p.left) Render(*p.left, depth + 1, ctx, out);
}

}  // namespace

std::string ExplainPlan(const Plan& plan, const PlannerOptions* options,
                        const obs::PlanProfiler* profiles) {
  std::string out;
  if (options != nullptr || profiles != nullptr) {
    ExplainCtx ctx;
    if (options != nullptr) {
      ctx.threads = parallel::ResolveMaxThreads(options->max_threads);
      ctx.min_rows = options->min_parallel_rows;
    }
    ctx.profiles = profiles;
    Render(plan, 0, &ctx, &out);
  } else {
    Render(plan, 0, nullptr, &out);
  }
  return out;
}

Result<std::string> ExplainSelect(const Catalog* catalog,
                                  const UdfRegistry* udfs,
                                  const sql::SelectStmt& sel,
                                  const PlannerOptions& options,
                                  const verify::VerifyContext* verify_ctx) {
  Planner planner(catalog, udfs, options);
  MTB_ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanSelect(sel));
  std::string out = ExplainPlan(*plan, &options);
  if (verify_ctx != nullptr) {
    verify::PlanVerifier verifier(verify_ctx);
    out += "[verify: " + verifier.Verify(*plan).Summary() + "]\n";
  }
  return out;
}

Result<std::string> ExplainDml(const Catalog* catalog, const UdfRegistry* udfs,
                               const sql::Stmt& stmt,
                               const PlannerOptions& options,
                               const verify::VerifyContext* verify_ctx) {
  const bool update = stmt.kind == sql::Stmt::Kind::kUpdate;
  if (!update && stmt.kind != sql::Stmt::Kind::kDelete) {
    return Status::InvalidArgument("EXPLAIN of DML needs UPDATE or DELETE");
  }
  const std::string& table = update ? stmt.update->table : stmt.del->table;
  if (catalog->FindTable(table) == nullptr) {
    return Status::NotFound("table " + table + " does not exist");
  }
  Planner planner(catalog, udfs, options);
  MTB_ASSIGN_OR_RETURN(
      PlanPtr plan,
      planner.PlanDmlTarget(table, update ? stmt.update->where.get()
                                          : stmt.del->where.get()));
  std::string out = (update ? "Update " : "Delete ") + table + "\n";
  const std::string body = ExplainPlan(*plan, &options);
  for (size_t at = 0; at < body.size();) {
    const size_t eol = body.find('\n', at);
    out += "  " + body.substr(at, eol + 1 - at);
    at = eol + 1;
  }
  if (verify_ctx != nullptr) {
    verify::PlanVerifier verifier(verify_ctx);
    out += "[verify: " + verifier.Verify(*plan).Summary() + "]\n";
  }
  return out;
}

}  // namespace engine
}  // namespace mtbase
