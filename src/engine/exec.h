// Plan execution and expression evaluation.
#ifndef MTBASE_ENGINE_EXEC_H_
#define MTBASE_ENGINE_EXEC_H_

#include <cassert>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "engine/bound.h"
#include "engine/key_index.h"
#include "engine/stats.h"
#include "engine/udf_cache.h"

namespace mtbase {

namespace obs {
class PlanProfiler;
struct OpProfile;
}  // namespace obs

namespace engine {

class Table;
class TableVersion;

/// Non-owning view of one row: size() contiguous values. Converts implicitly
/// from a table Row. A view into a RowBatch is valid only until that batch is
/// next modified (an append may reallocate its storage).
class RowView {
 public:
  RowView(const Value* values, size_t width) : values_(values), width_(width) {}
  RowView(const Row& row) : values_(row.data()), width_(row.size()) {}

  const Value& operator[](size_t i) const { return values_[i]; }
  size_t size() const { return width_; }
  const Value* begin() const { return values_; }
  const Value* end() const { return values_ + width_; }

 private:
  const Value* values_ = nullptr;
  size_t width_ = 0;
};

/// The rows an operator produces: width() values per row, stored back to
/// back in one contiguous array, plus an explicit row count — so width-0 rows
/// (a COUNT(*) scan or join that emits no column) still count. Rows are built
/// in place (Append, AppendMoved, or Push × width() then EndRow), never as
/// one heap Row each.
class RowBatch {
 public:
  explicit RowBatch(size_t width = 0) : width_(width) {}

  size_t width() const { return width_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  RowView operator[](size_t i) const {
    return RowView(values_.data() + i * width_, width_);
  }
  /// The width() mutable values of row `i`.
  Value* row_data(size_t i) { return values_.data() + i * width_; }

  void Reserve(size_t rows) { values_.reserve(rows * width_); }
  /// Append a copy of `row`, which must hold width() values.
  void Append(RowView row) {
    assert(row.size() == width_);
    values_.insert(values_.end(), row.begin(), row.end());
    ++rows_;
  }
  /// Append width() values moved out of `row`.
  void AppendMoved(Value* row) {
    values_.insert(values_.end(), std::make_move_iterator(row),
                   std::make_move_iterator(row + width_));
    ++rows_;
  }
  /// Build a row value by value: width() Push calls, then EndRow.
  void Push(const Value& v) { values_.push_back(v); }
  void Push(Value&& v) { values_.push_back(std::move(v)); }
  void EndRow() {
    ++rows_;
    assert(values_.size() == rows_ * width_);
  }
  /// Append every row of `other` (same width), moving each value once.
  void AppendBatch(RowBatch&& other);
  /// Keep only the first `rows` rows (no-op when already shorter).
  void Truncate(size_t rows);
  /// Keep rows [offset, offset + limit) — LIMIT/OFFSET, clamped to size().
  void Slice(size_t offset, size_t limit);
  /// Every row as a table Row (the statement root, INSERT ... SELECT).
  std::vector<Row> TakeRows();

 private:
  size_t width_;
  size_t rows_ = 0;
  std::vector<Value> values_;  // rows_ * width_, row-major
};

/// Per-statement table snapshot pins. The first scan of each table pins its
/// current TableVersion here; every later access within the same statement
/// (including from morsel workers, which share the set via WorkerContext)
/// reads the same pinned version — its rows, partition lists and index
/// orders — so one statement never sees two different versions of a table
/// even while concurrent DML publishes new ones.
class TableSnapshots {
 public:
  /// Returns the pinned version of `t`, pinning the current one on first
  /// use. The reference stays valid for the lifetime of this set.
  const TableVersion& Pin(const Table& t);

 private:
  std::mutex mu_;
  std::unordered_map<const Table*, std::shared_ptr<const TableVersion>>
      pinned_;
};

/// Per-statement execution state. Sub-query / UDF caches live here, so their
/// lifetime matches one top-level statement (like PostgreSQL's per-query
/// caching of IMMUTABLE function results, paper section 4.2.1).
struct ExecContext {
  ExecStats* stats = nullptr;
  DbmsProfile profile = DbmsProfile::kPostgres;

  /// Resolved intra-query thread budget (PlannerOptions::max_threads with
  /// 0 = auto already resolved via MTBASE_THREADS / hardware_concurrency).
  /// 1 = serial. Worker contexts always carry 1: parallel regions never nest.
  int max_threads = 1;
  /// Inputs smaller than this never parallelize (PlannerOptions knob).
  size_t min_parallel_rows = 4096;

  /// True inside a morsel worker's context: body executions performed here
  /// count as ExecStats::udf_parallel_evals.
  bool in_parallel_worker = false;

  /// Cross-statement dictionary-conversion cache (null = disabled, the
  /// engine default; the MT middleware enables it on its Database). Consulted
  /// for immutable UDFs after the per-statement/per-worker cache misses.
  SharedUdfCache* shared_udf_cache = nullptr;
  /// The statement's validity token for shared entries. Compilation and
  /// external components are captured at statement start. At its first
  /// shared-cache access the statement pins every table of
  /// `udf_read_tables` (the tables UDF bodies read; null = keep the captured
  /// data component) and folds the pinned versions into the data component.
  /// So every entry it reads or writes matches the dictionary versions its
  /// own UDF bodies scan, and statements that call no UDF pin nothing.
  UdfCacheEpoch shared_udf_epoch;
  bool shared_udf_epoch_pinned = false;
  const std::vector<const Table*>* udf_read_tables = nullptr;

  /// Pinned per-statement table snapshots (see TableSnapshots). Shared with
  /// worker contexts so parallel morsels scan the same pinned versions.
  /// Database::MakeContext sets it; a context built without one gets a set
  /// of its own at its first pin.
  std::shared_ptr<TableSnapshots> snapshots;

  /// EXPLAIN (ANALYZE) instrumentation (null = off, the plain hot path).
  /// Statement-thread only: WorkerContext deliberately never copies these
  /// (see parallel_exec.cc), so the profile map needs no locking; worker
  /// counters reach the profiler through the Merge fold.
  obs::PlanProfiler* profiler = nullptr;
  /// Profile of the plan node currently executing — parallel regions report
  /// their worker counts here (null when not profiling).
  obs::OpProfile* current_op = nullptr;
  /// Pool-worker thread CPU (nanoseconds) accumulated by RunPoolProfiled
  /// while profiling. Worker 0 of every region runs on this thread and is
  /// excluded: its CPU is already in the statement thread's own delta.
  uint64_t child_cpu_nanos = 0;

  /// Rows of enclosing queries for correlated sub-query evaluation;
  /// OuterSlot(depth = 1) reads the innermost enclosing row.
  std::vector<RowView> outer_stack;

  /// $n parameters of the UDF body currently being executed.
  const std::vector<Value>* params = nullptr;

  /// An IN sub-query's result: its tuples without a NULL component in a
  /// KeyIndex of the sub-query's width, and those with one back to back
  /// beside it (a miss is NULL only if one of them could equal the needle).
  struct InSetCache {
    KeyIndex set;
    std::vector<Value> null_tuples;
  };
  std::unordered_map<const Plan*, Value> scalar_cache;   // InitPlan results
  std::unordered_map<const Plan*, InSetCache> inset_cache;
  // Non-volatile UDF results, keyed by EncodeUdfCallKey (function, args). Per
  // statement in serial execution, per worker under parallel execution.
  std::unordered_map<std::string, Value> udf_cache;
  // Reused buffer for the key of the UDF call being looked up.
  std::string udf_key;
};

/// Execute a plan to a fully materialized row batch.
Result<RowBatch> ExecutePlan(const Plan& plan, ExecContext* ctx);

/// The statement's pinned version of `t` (pinning on first use).
const TableVersion& PinnedVersion(ExecContext* ctx, const Table& t);

/// Evaluate a bound expression against `row` (layout as bound).
Result<Value> EvalExpr(const BoundExpr& e, RowView row, ExecContext* ctx);

/// The value of operand `e` over `row`, read where it lives for a slot,
/// literal, $n or outer slot; any other expression is evaluated into `*tmp`.
/// The pointer is valid while `row`, the plan, `ctx`'s parameters and outer
/// rows, and `*tmp` are.
Result<const Value*> EvalOperand(const BoundExpr& e, RowView row,
                                 ExecContext* ctx, Value* tmp);

/// Evaluate `e` over `row` into `*out`; a slot, literal, $n or outer slot is
/// copied straight from where it lives.
Status EvalInto(const BoundExpr& e, RowView row, ExecContext* ctx, Value* out);

/// Evaluate the `n` key expressions at `keys` over `row` into `out`; returns
/// whether any key is NULL.
Result<bool> EvalKeys(const BoundExprPtr* keys, size_t n, RowView row,
                      ExecContext* ctx, Value* out);

/// Width of a join's output rows given its inputs' widths: the emitted slots
/// (Plan::emit), else concat(left, right) for inner/left joins and the left
/// row for semi/anti joins.
size_t JoinOutputWidth(const Plan& p, size_t left_width, size_t right_width);

/// One candidate pair of a join (hash-key match or nested-loop pair):
/// evaluate the residual over concat(l, r) — built in `scratch`, which the
/// calling loop reuses across pairs — and, for inner/left joins, append the
/// output row (the join's emitted slots only) to `out`. Returns whether the
/// pair matched. Counts ExecStats::rows_joined.
Result<bool> JoinPair(const Plan& p, RowView l, RowView r, ExecContext* ctx,
                      Row* scratch, RowBatch* out);

/// After a left row's candidates: append its left-only output row where the
/// join kind keeps one (LEFT unmatched, NULL-padded; SEMI matched; ANTI
/// unmatched).
void JoinFinishLeft(const Plan& p, RowView l, bool matched, RowBatch* out);

/// SQL three-valued logic helper: value is BOOL true (not NULL, not false).
bool IsTrue(const Value& v);

/// NULL-aware three-way comparison for ORDER BY: NULLs compare greater than
/// every value (so they sort last ascending, first descending — the key
/// direction negates the result). Shared by the serial executor and the
/// parallel sort/top-N implementations so their orders agree byte-for-byte.
int SortCompare(const Value& a, const Value& b);

/// Numeric helpers shared by the evaluator and aggregation.
Result<Value> NumericAdd(const Value& a, const Value& b);
Result<Value> NumericSub(const Value& a, const Value& b);
Result<Value> NumericMul(const Value& a, const Value& b);
Result<Value> NumericDiv(const Value& a, const Value& b);

/// True if the plan (including nested sub-plans) reads enclosing rows.
bool PlanHasOuterRefs(const Plan& plan);

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_EXEC_H_
