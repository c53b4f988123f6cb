#include "engine/parallel/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "engine/catalog.h"
#include "engine/exec.h"
#include "engine/filter.h"
#include "engine/key_index.h"
#include "engine/obs/profile.h"
#include "engine/parallel/task_pool.h"
#include "engine/udf.h"

namespace mtbase {
namespace engine {
namespace parallel {

// ---------------------------------------------------------------------------
// Knob resolution and plan marking
// ---------------------------------------------------------------------------

int ResolveMaxThreads(int configured) {
  if (configured > 0) return configured;
  static const int auto_threads = [] {
    if (const char* env = std::getenv("MTBASE_THREADS")) {
      int v = std::atoi(env);
      if (v > 0) return v;
    }
    unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
  }();
  return auto_threads;
}

namespace {

bool ExprParallelSafe(const BoundExpr& e) {
  if (e.subplan != nullptr) return false;  // InitPlan caches are serial state
  if (e.kind == BoundExpr::Kind::kUdfCall) {
    // Immutable UDFs may evaluate from workers: their (pre-planned, read-only)
    // body runs against the worker's own context — per-worker result cache,
    // worker-local params/stats, max_threads pinned to 1 — so workers never
    // share mutable state. Volatile/stable bodies may be nondeterministic or
    // statement-scoped, so their plans stay serial.
    if (e.udf == nullptr || !e.udf->immutable()) return false;
  }
  if (e.kind == BoundExpr::Kind::kOuterSlot) return false;
  bool safe = true;
  ForEachExprChild(e, [&safe](const BoundExpr& c) {
    safe = safe && ExprParallelSafe(c);
  });
  return safe;
}

bool SafeOrNull(const BoundExprPtr& e) { return !e || ExprParallelSafe(*e); }

bool AllSafe(const std::vector<BoundExprPtr>& exprs) {
  for (const auto& e : exprs) {
    if (!SafeOrNull(e)) return false;
  }
  return true;
}

/// Sub-plans hang off expressions as shared_ptr<const Plan>; marking happens
/// while the planner still exclusively owns the freshly built tree, so the
/// const_cast cannot race with execution.
void MarkExprSubplans(const BoundExpr& e) {
  if (e.subplan != nullptr) MarkParallelSafe(const_cast<Plan*>(e.subplan.get()));
  ForEachExprChild(e, [](const BoundExpr& c) { MarkExprSubplans(c); });
}

}  // namespace

void MarkParallelSafe(Plan* p) {
  if (p == nullptr) return;
  MarkParallelSafe(p->left.get());
  MarkParallelSafe(p->right.get());
  ForEachPlanExpr(*p, [](const BoundExpr& e) { MarkExprSubplans(e); });

  bool safe = false;
  switch (p->kind) {
    case Plan::Kind::kScan:
      safe = p->table != nullptr && SafeOrNull(p->scan_filter);
      break;
    case Plan::Kind::kIndexScan:
      // The ordered-index lookup is a serial binary search; partition-pruned
      // scans (kScan) carry the morsel parallelism story instead.
      safe = false;
      break;
    case Plan::Kind::kJoin:
      // Hash joins only; the nested loop and the null-aware anti join keep
      // their serial implementations.
      safe = !p->left_keys.empty() && !p->null_aware &&
             AllSafe(p->left_keys) && AllSafe(p->right_keys) &&
             SafeOrNull(p->residual);
      break;
    case Plan::Kind::kFilter:
      safe = SafeOrNull(p->predicate);
      break;
    case Plan::Kind::kProject:
      safe = AllSafe(p->exprs);
      break;
    case Plan::Kind::kAggregate: {
      safe = AllSafe(p->exprs);
      for (const auto& a : p->aggs) {
        // DISTINCT partials cannot be merged without recomputing from the
        // value sets; those aggregations stay serial.
        safe = safe && !a.distinct && SafeOrNull(a.arg);
      }
      break;
    }
    case Plan::Kind::kSort:
    case Plan::Kind::kTopN:
      // Sort keys are plain slot indices (no expressions to evaluate), and
      // the run-sort + merge / bounded-heap implementations reproduce the
      // serial stable order exactly (sort.cc).
      safe = true;
      break;
    case Plan::Kind::kLimit:
    case Plan::Kind::kDistinct:
      safe = false;  // trivially serial / state-sequential operators
      break;
  }
  p->parallel_safe = safe;
}

size_t EstimatePlanRows(const Plan& p) {
  if (p.kind == Plan::Kind::kScan || p.kind == Plan::Kind::kIndexScan) {
    return p.table != nullptr ? p.table->row_count() : 1;
  }
  size_t n = 0;
  if (p.left) n += EstimatePlanRows(*p.left);
  if (p.right) n += EstimatePlanRows(*p.right);
  return n;
}

namespace {

/// Morsel size shrinks with the min_parallel_rows knob so tests that lower
/// the gate still split small inputs into enough morsels to parallelize.
/// Boundaries never affect results: outputs concatenate in morsel order.
size_t MorselSize(const ExecContext& ctx) {
  return std::max<size_t>(1, std::min(kMorselRows, ctx.min_parallel_rows / 2));
}

}  // namespace

int PlanWorkers(const Plan& plan, size_t input_rows, const ExecContext& ctx) {
  if (!plan.parallel_safe || ctx.max_threads <= 1) return 1;
  if (input_rows < ctx.min_parallel_rows) return 1;
  size_t msize = MorselSize(ctx);
  size_t morsels = (input_rows + msize - 1) / msize;
  size_t w = std::min(static_cast<size_t>(ctx.max_threads), morsels);
  return w < 2 ? 1 : static_cast<int>(w);
}

// ---------------------------------------------------------------------------
// Parallel region plumbing
// ---------------------------------------------------------------------------

void RunPoolProfiled(ExecContext* ctx, int workers,
                     const std::function<void(int)>& fn) {
  if (ctx->profiler == nullptr) {
    TaskPool::Global()->Run(workers, fn);
    return;
  }
  std::vector<uint64_t> cpu(static_cast<size_t>(workers), 0);
  TaskPool::Global()->Run(workers, [&](int w) {
    if (w == 0) {
      // Worker 0 runs on the calling (statement) thread: its CPU is already
      // part of the statement thread's own thread-CPU delta.
      fn(w);
      return;
    }
    const uint64_t before = obs::ThreadCpuNanos();
    fn(w);
    cpu[static_cast<size_t>(w)] = obs::ThreadCpuNanos() - before;
  });
  for (uint64_t c : cpu) ctx->child_cpu_nanos += c;
}

namespace {

ExecContext WorkerContext(const ExecContext& parent, ExecStats* stats) {
  ExecContext c;
  c.stats = stats;
  c.profile = parent.profile;
  c.max_threads = 1;  // parallel regions never nest
  c.min_parallel_rows = parent.min_parallel_rows;
  c.outer_stack = parent.outer_stack;
  c.params = parent.params;
  c.in_parallel_worker = true;
  // Workers start with an empty per-worker UDF cache (c.udf_cache) that
  // lives for the whole region — repeated immutable-UDF calls stay
  // lock-free — and fall back to the shared dictionary cache (one lock per
  // distinct key per worker) before executing a body.
  c.shared_udf_cache = parent.shared_udf_cache;
  c.shared_udf_epoch = parent.shared_udf_epoch;
  c.shared_udf_epoch_pinned = parent.shared_udf_epoch_pinned;
  c.udf_read_tables = parent.udf_read_tables;
  // Workers share the statement's pinned table snapshots so every morsel
  // scans the same row versions the statement thread pinned.
  c.snapshots = parent.snapshots;
  // parent.profiler / parent.current_op are deliberately NOT copied: the
  // PlanProfiler map is statement-thread-only state. Worker counters reach
  // it via the Merge fold below; worker CPU via RunPoolProfiled.
  return c;
}

/// First-error-in-input-order selection: among failing work units, the one
/// with the lowest index wins, mirroring the serial executor's first error.
struct RegionError {
  std::mutex mu;
  std::atomic<bool> failed{false};
  size_t index = SIZE_MAX;
  Status status = Status::OK();

  void Record(size_t idx, Status s) {
    std::lock_guard<std::mutex> lock(mu);
    if (idx < index) {
      index = idx;
      status = std::move(s);
    }
    failed.store(true, std::memory_order_relaxed);
  }
};

/// Run fn(worker, worker_ctx, err) on `workers` workers: thread-local
/// ExecStats fold back into ctx->stats afterwards (so counter totals match
/// the serial pass), the threads_used high-water mark is updated on success,
/// and the lowest-index recorded error wins. All parallel regions go through
/// here — it owns the subtle plumbing.
Status RunRegion(
    ExecContext* ctx, int workers,
    const std::function<void(int, ExecContext*, RegionError*)>& fn) {
  std::vector<ExecStats> worker_stats(static_cast<size_t>(workers));
  RegionError err;
  RunPoolProfiled(ctx, workers, [&](int w) {
    ExecContext wctx =
        WorkerContext(*ctx, &worker_stats[static_cast<size_t>(w)]);
    fn(w, &wctx, &err);
  });
  for (const ExecStats& ws : worker_stats) ctx->stats->Merge(ws);
  if (err.failed.load()) return err.status;
  ctx->stats->threads_used = std::max<uint64_t>(
      ctx->stats->threads_used, static_cast<uint64_t>(workers));
  // The region ran while ctx->current_op was the invoking plan node, so the
  // worker count attributes to exactly that node.
  if (ctx->current_op != nullptr && workers > ctx->current_op->workers) {
    ctx->current_op->workers = workers;
  }
  return Status::OK();
}

size_t MorselCount(const ExecContext& ctx, size_t n_rows) {
  const size_t msize = MorselSize(ctx);
  return (n_rows + msize - 1) / msize;
}

/// fn(morsel, begin, end, worker_ctx) over the fixed-size morsels of
/// [0, n_rows).
using MorselFn = std::function<Status(size_t, size_t, size_t, ExecContext*)>;

/// Run fn over every morsel on `workers` workers; the lowest failing
/// morsel's error wins.
Status ForEachMorsel(ExecContext* ctx, size_t n_rows, int workers,
                     const MorselFn& fn) {
  const size_t msize = MorselSize(*ctx);
  const size_t n_morsels = MorselCount(*ctx, n_rows);
  std::atomic<size_t> next{0};
  MTB_RETURN_IF_ERROR(
      RunRegion(ctx, workers, [&](int, ExecContext* wctx, RegionError* err) {
        for (;;) {
          // Check for failure BEFORE claiming, and always process a claimed
          // morsel: indices are handed out in ascending order, so every
          // morsel below a recorded error index is guaranteed to have been
          // claimed and thus evaluated — the lowest failing morsel's error
          // wins, matching the serial executor's first error.
          if (err->failed.load(std::memory_order_relaxed)) break;
          size_t m = next.fetch_add(1, std::memory_order_relaxed);
          if (m >= n_morsels) break;
          size_t begin = m * msize;
          size_t end = std::min(n_rows, begin + msize);
          Status s = fn(m, begin, end, wctx);
          if (!s.ok()) err->Record(m, std::move(s));
        }
      }));
  ctx->stats->parallel_morsels += n_morsels;
  return Status::OK();
}

using MorselOutFn =
    std::function<Status(size_t, size_t, ExecContext*, RowBatch*)>;

/// Run fn(begin, end, worker_ctx, out) over the morsels of [0, n_rows), each
/// writing its own batch of `width`; concatenate the batches in morsel order
/// (= input order), moving each value once.
Result<RowBatch> RunMorsels(ExecContext* ctx, size_t n_rows, size_t width,
                            int workers, const MorselOutFn& fn) {
  std::vector<RowBatch> outputs(MorselCount(*ctx, n_rows), RowBatch(width));
  MTB_RETURN_IF_ERROR(ForEachMorsel(
      ctx, n_rows, workers,
      [&](size_t m, size_t begin, size_t end, ExecContext* wctx) {
        return fn(begin, end, wctx, &outputs[m]);
      }));
  size_t total = 0;
  for (const auto& o : outputs) total += o.size();
  RowBatch out(width);
  out.Reserve(total);
  for (auto& o : outputs) out.AppendBatch(std::move(o));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scan / Filter / Project
// ---------------------------------------------------------------------------

namespace {

/// Scan candidates [begin, end): rows[cand[i]] when `cand` is given, else
/// rows[i]. The filter (if any) first selects the rows it keeps; then
/// exactly those rows are reserved and their emitted slots copied.
Status ScanRange(const Plan& p, const RowFilter* filter,
                 const VersionRows& rows,
                 const std::vector<uint32_t>* cand, size_t begin, size_t end,
                 ExecContext* ctx, RowBatch* out) {
  auto emit = [&p, out](RowView r) {
    if (!p.emit) {
      out->Append(r);
      return;
    }
    // Column pruning: copy only the slots the plan above reads.
    for (int slot : *p.emit) out->Push(r[static_cast<size_t>(slot)]);
    out->EndRow();
  };
  if (filter == nullptr) {
    out->Reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      emit(cand != nullptr ? rows[(*cand)[i]] : rows[i]);
    }
    return Status::OK();
  }
  std::vector<uint32_t> kept;
  MTB_RETURN_IF_ERROR(filter->Select(rows, cand, begin, end, ctx, &kept));
  out->Reserve(kept.size());
  for (uint32_t id : kept) emit(rows[id]);
  return Status::OK();
}

/// Record on the executing operator's profile (EXPLAIN (ANALYZE)) the rows
/// its predicate removed. Statement thread only, after the operator's
/// parallel region (if any) has finished.
void CountRemoved(ExecContext* ctx, size_t candidates, size_t kept) {
  if (ctx->current_op != nullptr) {
    ctx->current_op->rows_removed += candidates - kept;
  }
}

}  // namespace

Result<RowBatch> ScanExec(const Plan& p, ExecContext* ctx, int workers,
                          const std::vector<uint32_t>* candidates) {
  if (p.table == nullptr) {
    RowBatch dual;  // one width-0 row (SELECT without FROM, dummy input)
    dual.EndRow();
    return dual;
  }
  const size_t width =
      p.emit ? p.emit->size() : p.table->schema().columns.size();
  const VersionRows& rows = PinnedVersion(ctx, *p.table).rows();
  const size_t n = candidates != nullptr ? candidates->size() : rows.size();
  ctx->stats->rows_scanned += n;
  RowBatch out(width);
  if (p.scan_filter && RowFilter::KeepsNothing(*p.scan_filter)) return out;
  // Built from the verified plan's own filter at every execution.
  std::optional<RowFilter> filter;
  if (p.scan_filter) filter.emplace(*p.scan_filter);
  const RowFilter* f = filter ? &*filter : nullptr;
  if (workers <= 1) {
    MTB_RETURN_IF_ERROR(ScanRange(p, f, rows, candidates, 0, n, ctx, &out));
  } else {
    MTB_ASSIGN_OR_RETURN(
        out, RunMorsels(ctx, n, width, workers,
                        [&p, f, &rows, candidates](size_t b, size_t e,
                                                   ExecContext* wctx,
                                                   RowBatch* o) {
                          return ScanRange(p, f, rows, candidates, b, e, wctx,
                                           o);
                        }));
  }
  if (f != nullptr) CountRemoved(ctx, n, out.size());
  return out;
}

Result<const std::vector<uint32_t>*> SelectScanRows(
    const Plan& p, ExecContext* ctx, int workers,
    const std::vector<uint32_t>* candidates, std::vector<uint32_t>* kept) {
  const VersionRows& rows = PinnedVersion(ctx, *p.table).rows();
  const size_t n = candidates != nullptr ? candidates->size() : rows.size();
  ctx->stats->rows_scanned += n;
  if (!p.scan_filter) return candidates;
  if (RowFilter::KeepsNothing(*p.scan_filter)) return kept;
  // Built from the verified plan's own filter at every execution.
  const RowFilter filter(*p.scan_filter);
  if (workers <= 1) {
    MTB_RETURN_IF_ERROR(filter.Select(rows, candidates, 0, n, ctx, kept));
  } else {
    // The morsels ScanExec would copy, each selecting its own ids; joined
    // in morsel (= scan) order.
    std::vector<std::vector<uint32_t>> morsels(MorselCount(*ctx, n));
    MTB_RETURN_IF_ERROR(ForEachMorsel(
        ctx, n, workers,
        [&](size_t m, size_t b, size_t e, ExecContext* wctx) {
          return filter.Select(rows, candidates, b, e, wctx, &morsels[m]);
        }));
    size_t total = 0;
    for (const auto& m : morsels) total += m.size();
    kept->reserve(total);
    for (const auto& m : morsels) kept->insert(kept->end(), m.begin(), m.end());
  }
  CountRemoved(ctx, n, kept->size());
  return kept;
}

namespace {

/// Move row `from` of `rows` onto row `to`.
void MoveRow(RowBatch* rows, size_t from, size_t to) {
  Value* src = rows->row_data(from);
  std::move(src, src + rows->width(), rows->row_data(to));
}

/// Select the rows of [begin, end) the predicate keeps and compact them to
/// the front of the range; returns how many were kept.
Result<size_t> FilterRange(const RowFilter& filter, RowBatch* rows,
                           size_t begin, size_t end, ExecContext* ctx) {
  std::vector<uint32_t> kept;
  MTB_RETURN_IF_ERROR(filter.Select(*rows, begin, end, ctx, &kept));
  size_t to = begin;
  for (uint32_t i : kept) {
    if (to != i) MoveRow(rows, i, to);
    ++to;
  }
  return kept.size();
}

Status ProjectRange(const Plan& p, const RowBatch& rows, size_t begin,
                    size_t end, ExecContext* ctx, RowBatch* out) {
  Value tmp;
  for (size_t i = begin; i < end; ++i) {
    const RowView r = rows[i];
    for (const auto& e : p.exprs) {
      // A slot or literal is copied straight into the output row.
      MTB_ASSIGN_OR_RETURN(const Value* v, EvalOperand(*e, r, ctx, &tmp));
      if (v == &tmp) {
        out->Push(std::move(tmp));
      } else {
        out->Push(*v);
      }
    }
    out->EndRow();
  }
  return Status::OK();
}

}  // namespace

Result<RowBatch> FilterExec(const Plan& p, ExecContext* ctx, RowBatch input,
                            int workers) {
  const size_t n = input.size();
  // Built from the verified plan's own predicate at every execution.
  const RowFilter filter(*p.predicate);
  if (workers <= 1) {
    MTB_ASSIGN_OR_RETURN(size_t kept, FilterRange(filter, &input, 0, n, ctx));
    input.Truncate(kept);
    CountRemoved(ctx, n, kept);
    return input;
  }
  // Workers compact disjoint morsels of the shared input in place; one
  // serial pass then closes the gaps between morsels, in morsel order.
  std::vector<size_t> kept(MorselCount(*ctx, n));
  MTB_RETURN_IF_ERROR(ForEachMorsel(
      ctx, n, workers,
      [&](size_t m, size_t b, size_t e, ExecContext* wctx) -> Status {
        MTB_ASSIGN_OR_RETURN(kept[m], FilterRange(filter, &input, b, e, wctx));
        return Status::OK();
      }));
  const size_t msize = MorselSize(*ctx);
  size_t out = 0;
  for (size_t m = 0; m < kept.size(); ++m) {
    for (size_t i = m * msize; i < m * msize + kept[m]; ++i, ++out) {
      if (out != i) MoveRow(&input, i, out);
    }
  }
  input.Truncate(out);
  CountRemoved(ctx, n, out);
  return input;
}

Result<RowBatch> ProjectExec(const Plan& p, ExecContext* ctx, RowBatch input,
                             int workers) {
  // Output slot i is input slot i for every input slot (e.g. an EXISTS
  // side's SELECT * narrowed to the scan's emitted keys): rows pass through.
  bool identity = p.exprs.size() == input.width();
  for (size_t i = 0; identity && i < p.exprs.size(); ++i) {
    identity = p.exprs[i]->kind == BoundExpr::Kind::kSlot &&
               p.exprs[i]->slot == static_cast<int>(i);
  }
  if (identity) return input;
  if (workers <= 1) {
    RowBatch out(p.exprs.size());
    out.Reserve(input.size());
    MTB_RETURN_IF_ERROR(ProjectRange(p, input, 0, input.size(), ctx, &out));
    return out;
  }
  return RunMorsels(ctx, input.size(), p.exprs.size(), workers,
                    [&p, &input](size_t b, size_t e, ExecContext* wctx,
                                 RowBatch* o) {
                      return ProjectRange(p, input, b, e, wctx, o);
                    });
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

namespace {

/// The build (right) side of a hash join: the distinct key tuples of the
/// build rows in a KeyIndex, and per key id a chain of its rows in ascending
/// build-row order. Rows with a NULL key component join no chain (NULL
/// equals nothing). A probe finds its key's id and walks that chain, so it
/// meets exactly its key-equal rows in build-row order — the same rows,
/// order and rows_joined in serial and parallel execution. Chains end in
/// KeyIndex::kNone.
struct HashBuild {
  KeyIndex index;
  std::vector<size_t> first;  // per key id: its first build row
  std::vector<size_t> next;   // per build row: the next row of its key
};

/// The serial, linear step of the build: index every filled key, from the
/// last row down, pushing each row onto its key's chain — which leaves every
/// chain ascending.
HashBuild LinkBuild(size_t width, std::vector<Value>* keys,
                    const std::vector<size_t>& hashes) {
  const size_t n = hashes.size();
  HashBuild build{KeyIndex(width, n), {},
                  std::vector<size_t>(n, KeyIndex::kNone)};
  for (size_t i = n; i-- > 0;) {
    Value* key = keys->data() + i * width;
    if (std::any_of(key, key + width,
                    [](const Value& v) { return v.is_null(); })) {
      continue;
    }
    const KeyIndex::Lookup slot = build.index.FindOrInsert(key, hashes[i]);
    if (slot.inserted) build.first.push_back(KeyIndex::kNone);
    build.next[i] = build.first[slot.id];
    build.first[slot.id] = i;
  }
  return build;
}

Status ProbeRange(const Plan& p, const RowBatch& left_rows, size_t begin,
                  size_t end, const HashBuild& build,
                  const RowBatch& right_rows, ExecContext* ctx,
                  RowBatch* out) {
  const bool existence_only =
      p.join_kind == JoinKind::kSemi || p.join_kind == JoinKind::kAnti;
  std::vector<Value> key(p.left_keys.size());
  Row scratch;  // the residual's concat row, reused across pairs
  for (size_t i = begin; i < end; ++i) {
    const RowView l = left_rows[i];
    MTB_ASSIGN_OR_RETURN(
        bool null_key,
        EvalKeys(p.left_keys.data(), key.size(), l, ctx, key.data()));
    bool matched = false;
    const size_t id =
        null_key ? KeyIndex::kNone : build.index.Find(key.data(), HashRow(key));
    if (id != KeyIndex::kNone) {
      for (size_t ri = build.first[id]; ri != KeyIndex::kNone;
           ri = build.next[ri]) {
        MTB_ASSIGN_OR_RETURN(
            bool m, JoinPair(p, l, right_rows[ri], ctx, &scratch, out));
        matched = matched || m;
        if (m && existence_only) break;
      }
    }
    JoinFinishLeft(p, l, matched, out);
  }
  return Status::OK();
}

}  // namespace

Result<RowBatch> HashJoinExec(const Plan& p, ExecContext* ctx,
                              RowBatch left_rows, RowBatch right_rows,
                              int workers) {
  const size_t n = right_rows.size();
  const size_t width =
      JoinOutputWidth(p, left_rows.width(), right_rows.width());
  const size_t key_width = p.right_keys.size();
  std::vector<Value> keys(n * key_width);
  std::vector<size_t> hashes(n);
  // Evaluate and hash the keys of build rows [begin, end); disjoint ranges
  // may be filled concurrently.
  auto fill = [&](size_t begin, size_t end, ExecContext* c) -> Status {
    for (size_t i = begin; i < end; ++i) {
      Value* key = keys.data() + i * key_width;
      MTB_RETURN_IF_ERROR(
          EvalKeys(p.right_keys.data(), key_width, right_rows[i], c, key)
              .status());
      hashes[i] = HashRow(key, key_width);
    }
    return Status::OK();
  };
  if (workers <= 1) {
    MTB_RETURN_IF_ERROR(fill(0, n, ctx));
  } else {
    // Each worker evaluates the keys of one contiguous chunk; the lowest
    // failing chunk's error wins, as the serial build's first error would.
    MTB_RETURN_IF_ERROR(RunRegion(
        ctx, workers, [&](int w, ExecContext* wctx, RegionError* err) {
          const size_t uw = static_cast<size_t>(w);
          const size_t begin = n * uw / static_cast<size_t>(workers);
          const size_t end = n * (uw + 1) / static_cast<size_t>(workers);
          Status s = fill(begin, end, wctx);
          if (!s.ok()) err->Record(uw, std::move(s));
        }));
  }
  const HashBuild build = LinkBuild(key_width, &keys, hashes);
  // A probe's output is sized from its input: one row per probe row.
  if (workers <= 1) {
    RowBatch out(width);
    out.Reserve(left_rows.size());
    MTB_RETURN_IF_ERROR(ProbeRange(p, left_rows, 0, left_rows.size(), build,
                                   right_rows, ctx, &out));
    return out;
  }
  ctx->stats->parallel_joins++;

  // Parallel probe in morsels, order-preserving.
  return RunMorsels(
      ctx, left_rows.size(), width, workers,
      [&](size_t b, size_t e, ExecContext* wctx, RowBatch* o) {
        o->Reserve(e - b);
        return ProbeRange(p, left_rows, b, e, build, right_rows, wctx, o);
      });
}

// ---------------------------------------------------------------------------
// Aggregation (per-chunk group indexes, ordered merge)
// ---------------------------------------------------------------------------

namespace {

/// One (group, aggregate) accumulator: the non-NULL inputs counted, and the
/// running SUM (SUM/AVG), MIN or MAX — NULL until the first input. COUNT
/// uses only the count.
struct AggAccum {
  int64_t count = 0;
  Value value;
};

/// The groups of one input range: group keys in a KeyIndex, so group ids
/// run in first-appearance order, and the accumulators of group g at
/// accs[g * aggs, (g + 1) * aggs). Without GROUP BY the one width-0 group
/// exists from the start, so even an empty input yields its row.
struct LocalAgg {
  explicit LocalAgg(const Plan& p)
      : groups(p.exprs.size()), distinct(p.aggs.size(), KeyIndex(2)) {
    if (!p.exprs.empty()) return;
    groups.FindOrInsert(nullptr, HashRow(nullptr, 0));
    accs.resize(p.aggs.size());
  }

  KeyIndex groups;
  std::vector<AggAccum> accs;
  /// Per DISTINCT aggregate: the (group id, value) pairs already counted.
  std::vector<KeyIndex> distinct;
};

/// Fold a non-NULL input (or a later range's partial) `v` into the running
/// value `*acc` of `func`, in place; COUNT keeps no value. Same-type INT and
/// DOUBLE sums add directly and same-type DECIMAL sums through Decimal::Add;
/// every other pair, and every sum those cannot represent, goes through
/// NumericAdd, so result types, scales and errors are exactly NumericAdd's.
/// MIN and MAX compare with CompareSameType before Value::Compare. Returns
/// false with `*error` set on failure.
bool Fold(AggFunc func, const Value& v, Value* acc, Status* error) {
  if (func == AggFunc::kCount || func == AggFunc::kCountStar) return true;
  if (acc->is_null()) {
    *acc = v;
    return true;
  }
  if (func == AggFunc::kSum || func == AggFunc::kAvg) {
    const TypeId t = acc->type();
    if (t == v.type()) {
      int64_t i = 0;
      if (t == TypeId::kInt &&
          !__builtin_add_overflow(acc->int_value(), v.int_value(), &i)) {
        *acc = Value::Int(i);
        return true;
      }
      if (t == TypeId::kDouble) {
        *acc = Value::Double(acc->double_value() + v.double_value());
        return true;
      }
      if (t == TypeId::kDecimal) {
        Result<Decimal> d = acc->decimal_value().Add(v.decimal_value());
        if (d.ok()) {
          *acc = Value::Dec(d.value());
          return true;
        }
      }
    }
    Result<Value> sum = NumericAdd(*acc, v);
    if (!sum.ok()) {
      *error = sum.status();
      return false;
    }
    *acc = std::move(sum).value();
    return true;
  }
  int c = 0;  // MIN / MAX
  if (!v.CompareSameType(*acc, &c)) {
    Result<int> r = v.Compare(*acc);
    if (!r.ok()) {
      *error = r.status();
      return false;
    }
    c = r.value();
  }
  if (func == AggFunc::kMin ? c < 0 : c > 0) *acc = v;
  return true;
}

/// `e` over `row`: a slot read where it lies, anything else through
/// EvalOperand (into `*tmp` when it is computed). Null with `*error` set on
/// failure.
inline const Value* ReadOperand(const BoundExpr& e, RowView row,
                                ExecContext* ctx, Value* tmp, Status* error) {
  if (e.kind == BoundExpr::Kind::kSlot) {
    return &row[static_cast<size_t>(e.slot)];
  }
  Result<const Value*> v = EvalOperand(e, row, ctx, tmp);
  if (!v.ok()) {
    *error = v.status();
    return nullptr;
  }
  return v.value();
}

/// The one aggregation kernel: fold input rows [begin, end) into `agg`.
/// Group keys are hashed and compared where they lie (a key's values are
/// copied only when its group is new) and every input folds into its
/// accumulator in place.
Status AccumulateRange(const Plan& p, const AggInput& input, size_t begin,
                       size_t end, ExecContext* ctx, LocalAgg* agg) {
  const size_t n_keys = p.exprs.size();
  const size_t n_aggs = p.aggs.size();
  std::vector<const Value*> key(n_keys);  // reused across rows
  std::vector<Value> key_tmp(n_keys);     // computed key components
  Value tmp;
  Status error;
  for (size_t ri = begin; ri < end; ++ri) {
    const RowView r = input[ri];
    for (size_t k = 0; k < n_keys; ++k) {
      key[k] = ReadOperand(*p.exprs[k], r, ctx, &key_tmp[k], &error);
      if (key[k] == nullptr) return error;
    }
    const KeyIndex::Lookup group =
        agg->groups.FindOrCopy(key.data(), HashRowRefs(key.data(), n_keys));
    if (group.inserted) agg->accs.resize(agg->accs.size() + n_aggs);
    AggAccum* accs = agg->accs.data() + group.id * n_aggs;
    for (size_t i = 0; i < n_aggs; ++i) {
      const AggSpec& spec = p.aggs[i];
      AggAccum& acc = accs[i];
      if (spec.func == AggFunc::kCountStar) {
        acc.count++;
        continue;
      }
      const Value* v = ReadOperand(*spec.arg, r, ctx, &tmp, &error);
      if (v == nullptr) return error;
      if (v->is_null()) continue;
      if (spec.distinct) {
        const Value id = Value::Int(static_cast<int64_t>(group.id));
        const Value* seen[2] = {&id, v};
        if (!agg->distinct[i].FindOrCopy(seen, HashRowRefs(seen, 2)).inserted) {
          continue;
        }
      }
      acc.count++;
      if ((spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg) &&
          !v->is_numeric()) {
        return Status::InvalidArgument(
            "SUM and AVG require a numeric argument");
      }
      if (!Fold(spec.func, *v, &acc.value, &error)) return error;
    }
  }
  return Status::OK();
}

/// The output rows, one per group in id (= first-appearance) order: the
/// group key, then each aggregate. Moves the keys and values out of `agg`.
Result<RowBatch> FinalizeAgg(const Plan& p, LocalAgg* agg) {
  const size_t n_keys = p.exprs.size();
  const size_t n_aggs = p.aggs.size();
  RowBatch out(n_keys + n_aggs);
  out.Reserve(agg->groups.size());
  for (size_t g = 0; g < agg->groups.size(); ++g) {
    Value* key = agg->groups.key(g);
    for (size_t k = 0; k < n_keys; ++k) out.Push(std::move(key[k]));
    AggAccum* accs = agg->accs.data() + g * n_aggs;
    for (size_t i = 0; i < n_aggs; ++i) {
      AggAccum& acc = accs[i];
      const AggFunc func = p.aggs[i].func;
      if (func == AggFunc::kCount || func == AggFunc::kCountStar) {
        out.Push(Value::Int(acc.count));
      } else if (func == AggFunc::kAvg && acc.count > 0) {
        MTB_ASSIGN_OR_RETURN(Value avg,
                             NumericDiv(acc.value, Value::Int(acc.count)));
        out.Push(std::move(avg));
      } else {
        out.Push(std::move(acc.value));  // SUM, MIN, MAX; NULL without input
      }
    }
    out.EndRow();
  }
  return out;
}

}  // namespace

Result<RowBatch> AggregateExec(const Plan& p, ExecContext* ctx,
                               const AggInput& input, int workers) {
  if (workers <= 1) {
    LocalAgg total(p);
    MTB_RETURN_IF_ERROR(
        AccumulateRange(p, input, 0, input.size(), ctx, &total));
    return FinalizeAgg(p, &total);
  }
  // One contiguous chunk per worker: partials combine in chunk (= input)
  // order, and group output order is global first appearance, independent of
  // scheduling.
  const size_t n = input.size();
  std::vector<LocalAgg> locals(static_cast<size_t>(workers), LocalAgg(p));
  MTB_RETURN_IF_ERROR(
      RunRegion(ctx, workers, [&](int w, ExecContext* wctx, RegionError* err) {
        const size_t uw = static_cast<size_t>(w);
        const size_t begin = n * uw / static_cast<size_t>(workers);
        const size_t end = n * (uw + 1) / static_cast<size_t>(workers);
        Status s = AccumulateRange(p, input, begin, end, wctx, &locals[uw]);
        if (!s.ok()) err->Record(uw, std::move(s));
      }));
  ctx->stats->parallel_morsels += static_cast<uint64_t>(workers);

  // Fold chunks 1.. into chunk 0 in chunk order: a chunk's groups arrive in
  // its own first-appearance order, so new ids extend the global order, and
  // partial sums combine in input order — exact for INT/DECIMAL arithmetic.
  // (DISTINCT aggregates never get here: the planner keeps them serial.)
  const size_t n_aggs = p.aggs.size();
  LocalAgg& total = locals[0];
  Status error;
  for (size_t w = 1; w < locals.size(); ++w) {
    LocalAgg& local = locals[w];
    for (size_t g = 0; g < local.groups.size(); ++g) {
      AggAccum* from = local.accs.data() + g * n_aggs;
      const KeyIndex::Lookup into =
          total.groups.FindOrInsert(local.groups.key(g), local.groups.hash(g));
      if (into.inserted) {
        total.accs.insert(total.accs.end(), std::make_move_iterator(from),
                          std::make_move_iterator(from + n_aggs));
        continue;
      }
      AggAccum* to = total.accs.data() + into.id * n_aggs;
      for (size_t i = 0; i < n_aggs; ++i) {
        to[i].count += from[i].count;
        if (from[i].value.is_null()) continue;
        if (!Fold(p.aggs[i].func, from[i].value, &to[i].value, &error)) {
          return error;
        }
      }
    }
  }
  return FinalizeAgg(p, &total);
}

}  // namespace parallel
}  // namespace engine
}  // namespace mtbase
