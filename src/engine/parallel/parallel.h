// Morsel-driven parallel execution (the engine's intra-query parallelism).
//
// Design (after Leis et al., "Morsel-Driven Parallelism", and the scale-out
// serving systems cited in the roadmap): operator inputs are split into
// fixed-size morsels pulled from an atomic counter by a small worker set
// (TaskPool). Rows flow between operators as flat RowBatches (exec.h): one
// contiguous value array per batch, so no operator allocates per row. Each
// worker evaluates into a per-morsel output batch with a thread-local
// ExecContext/ExecStats; the region concatenates the batches in morsel order,
// moving each value once, and folds worker counters back, so the observable
// behavior — row order, error choice, statistics totals — is byte-identical
// to the serial executor. Filters compact their input in place instead.
// Every hashed operator keys on one KeyIndex (key_index.h). Hash joins
// evaluate and hash build keys per worker over contiguous chunks, index them
// in one serial pass that chains each key's rows in build order, and probe
// in morsels; aggregation indexes each chunk's groups next to a flat
// accumulator array and folds the chunks in chunk order, so group ids stay
// in first-appearance order. Chunk-ordered merging is exact for INT/DECIMAL
// arithmetic; only SUM/AVG over DOUBLE re-associates floating-point addition
// and may differ from the serial left-fold in the last bits (deterministic
// for a fixed thread count). Sort and top-N (sort.cc) order row indices, not
// rows, and gather once: per-worker stable-sorted runs merge pairwise with
// earlier-run-wins ties, and top-N's bounded heaps order by (sort keys,
// input index), so both reproduce the serial stable sort byte-for-byte.
//
// Safety: a plan node may only run parallel when the planner marked it
// parallel-safe — its own expressions contain no outer references, no
// sub-plans (their per-statement InitPlan caches are serial state) and no
// volatile/stable UDF calls (those bodies may be nondeterministic or
// statement-scoped). IMMUTABLE UDF calls are admitted: their pre-planned,
// read-only bodies evaluate against the worker's own context with a
// per-worker memoization cache, so conversion-heavy canonical-level plans
// parallelize (docs/ARCHITECTURE.md). Everything else falls back to the
// serial path, which remains the single source of truth for semantics: the
// same per-row code runs with workers == 1.
#ifndef MTBASE_ENGINE_PARALLEL_PARALLEL_H_
#define MTBASE_ENGINE_PARALLEL_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "engine/exec.h"

namespace mtbase {
namespace engine {
namespace parallel {

/// Rows per morsel. The min_parallel_rows knob (default 4096) keeps inputs
/// below a few morsels serial.
inline constexpr size_t kMorselRows = 1024;

/// Resolve the PlannerOptions::max_threads knob: > 0 is taken as-is, 0 means
/// the MTBASE_THREADS environment variable, else hardware_concurrency.
/// Always returns >= 1.
int ResolveMaxThreads(int configured);

/// Recursively mark every node of `plan` (including sub-plans reachable from
/// its expressions) with Plan::parallel_safe. Called by the planner on every
/// freshly built plan.
void MarkParallelSafe(Plan* plan);

/// Workers an operator should use for an input of `input_rows` (1 = serial):
/// gated on the node's parallel_safe flag, the context's thread budget and
/// min_parallel_rows, then capped by the morsel count.
int PlanWorkers(const Plan& plan, size_t input_rows, const ExecContext& ctx);

/// Static upper-bound row estimate (sum of descendant base-table sizes).
/// EXPLAIN uses it to decide whether an operator would plausibly clear the
/// min_parallel_rows gate at runtime.
size_t EstimatePlanRows(const Plan& plan);

/// TaskPool::Run with EXPLAIN (ANALYZE) CPU accounting: when `ctx` is being
/// profiled, each pool worker's thread-CPU delta is summed into
/// ctx->child_cpu_nanos after the region (worker 0 runs on the calling
/// thread and is excluded — its CPU is already in the statement thread's
/// own delta). Without a profiler this is exactly TaskPool::Run. Every
/// parallel region — morsel plumbing and the raw sort/join pool sites —
/// must launch through here so instrumented CPU totals stay complete.
void RunPoolProfiled(ExecContext* ctx, int workers,
                     const std::function<void(int)>& fn);

// Unified operator implementations: with workers == 1 they run the exact
// serial loops the executor always had; with workers > 1 the same per-row
// code runs inside morsel workers. exec.cc dispatches here. Every operator
// consumes and produces RowBatches (exec.h): flat, one value array per
// batch, never one heap row per output row.
/// `candidates` (optional) restricts the scan to the given row ids of the
/// statement's pinned version of p.table, in the given order — exec.cc
/// passes the ascending (insertion-order) survivor list of partition pruning
/// or an index lookup, so pruned and full scans emit rows in the same order.
/// rows_scanned counts candidates only, identically for serial and parallel
/// execution.
Result<RowBatch> ScanExec(const Plan& p, ExecContext* ctx, int workers,
                          const std::vector<uint32_t>* candidates = nullptr);
/// The rows of table scan `p` (candidates as for ScanExec) that its filter
/// keeps, selected over the same morsels as ScanExec and counted the same
/// way (rows_scanned, the rows removed) but copied nowhere: fills `kept`
/// with their ids in scan order and returns it, or returns `candidates`
/// (null = every row of the pinned version) when the scan has no filter.
Result<const std::vector<uint32_t>*> SelectScanRows(
    const Plan& p, ExecContext* ctx, int workers,
    const std::vector<uint32_t>* candidates, std::vector<uint32_t>* kept);
/// Compacts the surviving rows in place: no new batch, serial or parallel.
Result<RowBatch> FilterExec(const Plan& p, ExecContext* ctx, RowBatch input,
                            int workers);
Result<RowBatch> ProjectExec(const Plan& p, ExecContext* ctx, RowBatch input,
                             int workers);
/// Equi-key hash join (inner/left/semi/anti; the null-aware anti join and
/// the key-less nested loop stay in exec.cc).
Result<RowBatch> HashJoinExec(const Plan& p, ExecContext* ctx,
                              RowBatch left_rows, RowBatch right_rows,
                              int workers);
/// The rows an Aggregate folds: its input's batch, or — when it aggregates
/// a scan in place (AggregatesScanInPlace) — the scan's kept rows read where
/// they lie in the statement's pinned table version: rows[(*ids)[i]], or
/// rows[i] when `ids` is null.
struct AggInput {
  const RowBatch* batch = nullptr;
  const VersionRows* rows = nullptr;
  const std::vector<uint32_t>* ids = nullptr;

  size_t size() const {
    if (batch != nullptr) return batch->size();
    return ids != nullptr ? ids->size() : rows->size();
  }
  RowView operator[](size_t i) const {
    if (batch != nullptr) return (*batch)[i];
    return (*rows)[ids != nullptr ? (*ids)[i] : i];
  }
};
/// Hash aggregation over either kind of input, by one kernel: serially, or
/// in one contiguous chunk per worker whose partials fold in chunk order, so
/// group order and partial-sum order do not depend on the input's kind.
Result<RowBatch> AggregateExec(const Plan& p, ExecContext* ctx,
                               const AggInput& input, int workers);

/// ORDER BY (sort.cc): orders an index permutation of the input, then
/// gathers the rows once. With workers == 1 a single std::stable_sort; with
/// workers > 1 per-worker stable-sorted runs merged pairwise in parallel
/// passes. Ties take the earlier run, so the parallel order is byte-identical
/// to the serial stable sort. Counted in ExecStats::parallel_sorts when
/// workers > 1.
Result<RowBatch> SortExec(const Plan& p, ExecContext* ctx, RowBatch input,
                          int workers);

/// Fused Sort + Limit (Plan::Kind::kTopN, sort.cc): per-worker bounded
/// max-heaps of row indices ordered by (sort keys, input index) keep at most
/// limit + offset candidates each; the merged union sorts and gathers rows
/// [offset, offset + limit) — byte-identical to a full sort followed by
/// OFFSET/LIMIT. Counted in ExecStats::topn_pushdowns; discarded rows in
/// ExecStats::topn_rows_pruned.
Result<RowBatch> TopNExec(const Plan& p, ExecContext* ctx, RowBatch input,
                          int workers);

}  // namespace parallel
}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_PARALLEL_PARALLEL_H_
