// Execution statistics.
//
// Besides profiling, the MT layer's tests use these counters for
// timing-independent assertions about the optimizations (e.g. aggregation
// distribution performs exactly T+1 conversions, paper section 4.2.2).
//
// MTBASE_EXEC_STATS_FIELDS below is the only place to add a counter. The
// struct's members, operator-, Merge, the trace-span JSON
// (obs/trace.cc), the per-layer statement metrics (obs/statement.cc), the
// trace schema check (tools/check_trace_schema.py) and the tests'
// field-wise comparisons are all generated from it.
#ifndef MTBASE_ENGINE_STATS_H_
#define MTBASE_ENGINE_STATS_H_

#include <algorithm>
#include <cstdint>

namespace mtbase {
namespace engine {

// X(field, layer), in declaration order. `layer` names the statement shell
// (obs::StatementShell) that exports the field's per-statement delta as the
// counter mtbase_<layer>_<field>_total: engine, session, or none.
#define MTBASE_EXEC_STATS_FIELDS(X)                                         \
  X(rows_scanned, none)                                                     \
  X(rows_joined, none)                                                      \
  /* UDF invocations that executed the body. */                             \
  X(udf_calls, engine)                                                      \
  /* Invocations answered from a result cache: the per-statement cache or   \
     the shared dictionary cache (udf_shared_cache_hits counts the subset   \
     answered by the latter). */                                            \
  X(udf_cache_hits, engine)                                                 \
  X(udf_shared_cache_hits, none)                                            \
  /* Cacheable invocations that found neither cache populated and had to    \
     execute the body (volatile UDFs never count: they are not cacheable). */ \
  X(udf_cache_misses, engine)                                               \
  /* Body executions performed from a morsel worker thread (immutable UDFs  \
     only; volatile/stable UDFs keep their plans serial). */                \
  X(udf_parallel_evals, none)                                               \
  X(subquery_execs, none)     /* per-row (correlated) sub-query runs */     \
  X(initplan_execs, none)     /* one-off sub-query executions */            \
  X(decorrelated_execs, none) /* decorrelated sub-query joins executed */   \
  /* Prepared-statement compilation counters. Tests assert O(1)             \
     compilation timing-independently: re-executing a prepared statement    \
     under an unchanged fingerprint must leave the first four at zero and   \
     only bump the cache hits. */                                           \
  X(statements_parsed, none)    /* SQL/MTSQL texts run through the parser */ \
  X(statements_rewritten, none) /* MTSQL-to-SQL rewriter invocations */     \
  /* Statement compilations: SELECT plans and DML binds. */                 \
  X(statements_planned, none)                                               \
  X(prepare_count, none) /* compilations by PreparedPlan (CompileLocked) */ \
  /* Prepared executions that reused an earlier compilation (the first      \
     execution after each compile amortizes it and is not a hit). */        \
  X(plan_cache_hits, engine)                                                \
  X(rewrite_cache_hits, session) /* executions reusing a cached rewrite */  \
  /* Morsel-driven parallel execution (src/engine/parallel/). */            \
  X(parallel_morsels, none) /* morsels processed by parallel operators */   \
  X(parallel_joins, none)   /* hash joins executed with > 1 worker */       \
  /* Sort/top-N regions executed with > 1 worker (run-sort + merge). */     \
  X(parallel_sorts, none)                                                   \
  /* Executions of a fused Sort+Limit (top-N) operator, serial or           \
     parallel. */                                                           \
  X(topn_pushdowns, none)                                                   \
  /* Rows a top-N operator discarded via its bounded heaps instead of       \
     materializing them into a full sorted result. */                       \
  X(topn_rows_pruned, none)                                                 \
  /* Tenant-aware physical design (partition pruning + index scans). */     \
  X(partitions_pruned, none)  /* partitions skipped by pruned scans */      \
  X(index_scans, none)        /* kIndexScan operator executions */          \
  X(index_rows_skipped, none) /* rows an index lookup never visited */      \
  /* UPDATE / DELETE (Database::ExecuteBoundUpdate/Delete): rows their      \
     target scan's filter evaluated, and rows deep-copied into new storage  \
     chunks by DML publishes (an INSERT copies a pinned last chunk). */     \
  X(dml_rows_examined, engine)                                              \
  X(dml_rows_copied, engine)                                                \
  /* High-water mark of workers used by any parallel region: the one       \
     gauge. operator- and Merge take the max of the two sides instead of    \
     subtracting or adding. */                                              \
  X(threads_used, none)                                                     \
  /* Static plan verification (src/engine/verify/). It runs at compile      \
     time, so re-executing a prepared statement under an unchanged          \
     fingerprint moves neither counter. */                                  \
  X(plans_verified, engine)   /* plans run through PlanVerifier */          \
  X(verify_violations, none)  /* invariant violations (0 = clean) */        \
  /* Static rewrite auditing (src/mt/audit/); compile time like             \
     verification. */                                                       \
  X(rewrites_audited, none) /* rewritten statements audited */              \
  X(audit_violations, none) /* audit violations reported (0 = clean) */

struct ExecStats {
#define MTBASE_EXEC_STATS_DECLARE(field, layer) uint64_t field = 0;
  MTBASE_EXEC_STATS_FIELDS(MTBASE_EXEC_STATS_DECLARE)
#undef MTBASE_EXEC_STATS_DECLARE

  void Reset() { *this = ExecStats(); }
  uint64_t total_udf_invocations() const { return udf_calls + udf_cache_hits; }

  /// Field-wise difference (counters are monotonic; use via StatsScope).
  /// The threads_used gauge reports the higher watermark of the two
  /// snapshots rather than a meaningless subtraction.
  ExecStats operator-(const ExecStats& o) const {
    ExecStats d;
#define MTBASE_EXEC_STATS_SUB(field, layer) d.field = field - o.field;
    MTBASE_EXEC_STATS_FIELDS(MTBASE_EXEC_STATS_SUB)
#undef MTBASE_EXEC_STATS_SUB
    d.threads_used = std::max(threads_used, o.threads_used);
    return d;
  }

  /// Fold another frame's counters into this one: a morsel worker's
  /// thread-local counters after its parallel region, or a statement's
  /// private frame into the database totals. Counters add; the
  /// threads_used gauge keeps the max.
  void Merge(const ExecStats& s) {
    const uint64_t peak = std::max(threads_used, s.threads_used);
#define MTBASE_EXEC_STATS_ADD(field, layer) field += s.field;
    MTBASE_EXEC_STATS_FIELDS(MTBASE_EXEC_STATS_ADD)
#undef MTBASE_EXEC_STATS_ADD
    threads_used = peak;
  }
};

/// Calls f(name, member) for every ExecStats field, in declaration order;
/// `member` is a pointer to member (`stats.*member` reads the field).
template <typename F>
void ForEachExecStatsField(F&& f) {
#define MTBASE_EXEC_STATS_VISIT(field, layer) f(#field, &ExecStats::field);
  MTBASE_EXEC_STATS_FIELDS(MTBASE_EXEC_STATS_VISIT)
#undef MTBASE_EXEC_STATS_VISIT
}

/// RAII counter snapshot: scopes ExecStats deltas to a region of code without
/// resetting the live (cumulative) counters, so independent measurements can
/// nest and interleave.
///
///   StatsScope scope(db.stats());
///   ... run statements ...
///   ExecStats d = scope.Delta();
class StatsScope {
 public:
  explicit StatsScope(const ExecStats* live) : live_(live), start_(*live) {}
  ExecStats Delta() const { return *live_ - start_; }
  /// Re-anchor the snapshot to the current counter values.
  void Restart() { start_ = *live_; }

 private:
  const ExecStats* live_;
  ExecStats start_;
};

/// Which DBMS the engine impersonates (DESIGN.md section 2).
enum class DbmsProfile {
  /// PostgreSQL-like: results of IMMUTABLE UDFs are cached per statement,
  /// keyed by argument values.
  kPostgres,
  /// "System C"-like: UDFs cannot be declared deterministic, every call
  /// executes the body (paper Appendix C).
  kSystemC,
};

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_STATS_H_
