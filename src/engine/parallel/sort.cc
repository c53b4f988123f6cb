// Parallel sort and top-N: the tail operators of every ORDER BY plan.
//
// Design (run-sort + cooperative merge, after the morsel-driven engines the
// roadmap cites): both operators order an index permutation of the input
// batch and gather the rows once at the end, so no row moves while sorting.
// The permutation splits into one contiguous run per worker; each worker
// stable-sorts its run with the executor's NULL-aware SortCompare over a
// hoisted sort-key view (slot indices precomputed once, no per-comparison
// casts). Adjacent run pairs then merge in parallel passes — runs are in
// input order and std::merge takes from the earlier range on ties, so every
// pass preserves the stable order and the final result is byte-identical to
// the serial std::stable_sort.
//
// Top-N (a fused Sort + Limit, Plan::Kind::kTopN) never sorts the full
// input: each worker keeps a bounded max-heap of at most limit + offset
// candidate indices ordered by (sort keys, input index) — the total order a
// stable full sort induces — so a row is discarded the moment it provably
// cannot appear in the output. The merged candidate union is a superset of
// the true top limit + offset rows; sorting it and gathering [offset,
// offset + limit) reproduces the full-sort answer byte-for-byte. Discarded
// rows are counted in ExecStats::topn_rows_pruned.
//
// Neither phase evaluates expressions — sorting only compares already
// computed column values, and SortCompare maps incomparable pairs to
// "equal" exactly like the serial path — so workers need no ExecContext and
// no error channel, unlike the morsel operators in parallel_exec.cc.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/exec.h"
#include "engine/obs/profile.h"
#include "engine/parallel/parallel.h"

namespace mtbase {
namespace engine {
namespace parallel {

namespace {

/// Sort key with the slot cast hoisted out of the comparison loop.
struct SortKey {
  size_t slot;
  bool desc;
};

std::vector<SortKey> HoistSortKeys(const Plan& p) {
  std::vector<SortKey> keys;
  keys.reserve(p.sort_keys.size());
  for (const auto& [slot, desc] : p.sort_keys) {
    keys.push_back(SortKey{static_cast<size_t>(slot), desc});
  }
  return keys;
}

int CompareRows(RowView a, RowView b, const std::vector<SortKey>& keys) {
  for (const SortKey& k : keys) {
    int c = SortCompare(a[k.slot], b[k.slot]);
    if (k.desc) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

/// Contiguous [begin, end) runs, one per worker (the same split parallel
/// aggregation uses), skipping empty ones.
std::vector<std::pair<size_t, size_t>> WorkerRuns(size_t n, int workers) {
  std::vector<std::pair<size_t, size_t>> runs;
  const size_t w_count = static_cast<size_t>(workers);
  runs.reserve(w_count);
  for (size_t w = 0; w < w_count; ++w) {
    size_t begin = n * w / w_count;
    size_t end = n * (w + 1) / w_count;
    if (begin < end) runs.emplace_back(begin, end);
  }
  return runs;
}

/// Record a completed parallel sort/top-N region in the statement's stats
/// (the coordinator runs this after the workers joined, so no races).
void RecordParallelSort(ExecContext* ctx, size_t runs, int workers) {
  ctx->stats->parallel_sorts++;
  ctx->stats->parallel_morsels += runs;
  ctx->stats->threads_used = std::max<uint64_t>(
      ctx->stats->threads_used, static_cast<uint64_t>(workers));
  // EXPLAIN (ANALYZE): the sort region ran under the invoking plan node.
  if (ctx->current_op != nullptr && workers > ctx->current_op->workers) {
    ctx->current_op->workers = workers;
  }
}

/// The rows of `input` at positions idx[begin, end), in that order, each
/// value moved once.
RowBatch Gather(RowBatch* input, const std::vector<size_t>& idx, size_t begin,
                size_t end) {
  RowBatch out(input->width());
  out.Reserve(end - begin);
  for (size_t i = begin; i < end; ++i) out.AppendMoved(input->row_data(idx[i]));
  return out;
}

/// The stable sort order of `input` as an index permutation.
std::vector<size_t> SortOrder(const Plan& p, ExecContext* ctx,
                              const RowBatch& input, int workers) {
  const std::vector<SortKey> keys = HoistSortKeys(p);
  auto less = [&keys, &input](size_t a, size_t b) {
    return CompareRows(input[a], input[b], keys) < 0;
  };
  std::vector<size_t> order(input.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (workers <= 1 || order.size() < 2) {
    std::stable_sort(order.begin(), order.end(), less);
    return order;
  }

  // Phase 1: stable-sort one contiguous run per worker.
  std::vector<std::pair<size_t, size_t>> runs = WorkerRuns(order.size(),
                                                           workers);
  const size_t initial_runs = runs.size();
  {
    std::atomic<size_t> next{0};
    RunPoolProfiled(ctx, workers, [&](int) {
      for (;;) {
        size_t r = next.fetch_add(1, std::memory_order_relaxed);
        if (r >= runs.size()) break;
        std::stable_sort(order.begin() + static_cast<std::ptrdiff_t>(runs[r].first),
                         order.begin() + static_cast<std::ptrdiff_t>(runs[r].second),
                         less);
      }
    });
  }

  // Phase 2: cooperative merge. Adjacent run pairs merge until one run
  // remains, but a pair is not one task: it splits into `workers` balanced
  // segments (even slices of A, aligned in B by binary search), so every
  // worker stays busy in every pass — including the last one, where a
  // single pair covers the whole input. Splitting preserves stability: the
  // B-side boundary is the first element not less than the A-side split
  // element, which puts B elements equal to it on the right — exactly
  // where std::merge (first range wins ties) would emit them. Indices
  // ping-pong between `order` and a scratch buffer; an odd trailing run
  // copies over unmerged so the next pass reads one source.
  struct MergeTask {
    size_t a_begin, a_end;  // first (earlier, tie-winning) source range
    size_t b_begin, b_end;  // second source range
    size_t out;             // destination offset
  };
  std::vector<size_t> scratch(order.size());
  std::vector<size_t>* src = &order;
  std::vector<size_t>* dst = &scratch;
  while (runs.size() > 1) {
    std::vector<std::pair<size_t, size_t>> merged;
    merged.reserve(runs.size() / 2 + 1);
    std::vector<MergeTask> tasks;
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      const size_t a0 = runs[i].first;
      const size_t a1 = runs[i].second;  // == runs[i + 1].first
      const size_t b1 = runs[i + 1].second;
      merged.emplace_back(a0, b1);
      const size_t parts =
          std::min<size_t>(static_cast<size_t>(workers), a1 - a0);
      size_t prev_a = a0, prev_b = a1, out = a0;
      for (size_t k = 1; k <= parts; ++k) {
        const size_t sa = k == parts ? a1 : a0 + (a1 - a0) * k / parts;
        const size_t sb =
            k == parts
                ? b1
                : static_cast<size_t>(
                      std::lower_bound(
                          src->begin() + static_cast<std::ptrdiff_t>(prev_b),
                          src->begin() + static_cast<std::ptrdiff_t>(b1),
                          (*src)[sa], less) -
                      src->begin());
        tasks.push_back(MergeTask{prev_a, sa, prev_b, sb, out});
        out += (sa - prev_a) + (sb - prev_b);
        prev_a = sa;
        prev_b = sb;
      }
    }
    if (runs.size() % 2 == 1) {  // odd trailing run: carry over unmerged
      const auto& t = runs.back();
      merged.push_back(t);
      tasks.push_back(MergeTask{t.first, t.second, t.second, t.second,
                                t.first});
    }
    std::atomic<size_t> next{0};
    RunPoolProfiled(ctx, workers, [&](int) {
      for (;;) {
        size_t ti = next.fetch_add(1, std::memory_order_relaxed);
        if (ti >= tasks.size()) break;
        const MergeTask& t = tasks[ti];
        auto at = [src](size_t i) {
          return src->begin() + static_cast<std::ptrdiff_t>(i);
        };
        std::merge(at(t.a_begin), at(t.a_end), at(t.b_begin), at(t.b_end),
                   dst->begin() + static_cast<std::ptrdiff_t>(t.out), less);
      }
    });
    runs = std::move(merged);
    std::swap(src, dst);
  }
  RecordParallelSort(ctx, initial_runs, workers);
  return std::move(*src);
}

}  // namespace

Result<RowBatch> SortExec(const Plan& p, ExecContext* ctx, RowBatch input,
                          int workers) {
  const std::vector<size_t> order = SortOrder(p, ctx, input, workers);
  return Gather(&input, order, 0, order.size());
}

Result<RowBatch> TopNExec(const Plan& p, ExecContext* ctx, RowBatch input,
                          int workers) {
  ctx->stats->topn_pushdowns++;
  const size_t n = input.size();
  const size_t limit = static_cast<size_t>(p.limit);
  const size_t offset = static_cast<size_t>(p.offset);
  const size_t keep = limit + offset;  // candidates that can reach the output
  if (keep == 0) {
    ctx->stats->topn_rows_pruned += n;
    return RowBatch(input.width());
  }
  if (keep >= n) {
    // Nothing to prune: a full sort is the same work without heap overhead.
    const std::vector<size_t> order = SortOrder(p, ctx, input, workers);
    const size_t begin = std::min(offset, n);
    return Gather(&input, order, begin, begin + std::min(limit, n - begin));
  }

  const std::vector<SortKey> keys = HoistSortKeys(p);
  // Total order: sort keys first, input index as the tiebreak — exactly the
  // order a stable full sort followed by OFFSET/LIMIT would produce.
  auto item_less = [&keys, &input](size_t a, size_t b) {
    int c = CompareRows(input[a], input[b], keys);
    if (c != 0) return c < 0;
    return a < b;
  };
  // Bounded max-heap pass over one contiguous range: the heap front is the
  // worst kept candidate; a row enters only by beating it.
  auto heap_range = [&](size_t begin, size_t end, std::vector<size_t>* heap) {
    heap->reserve(std::min(keep, end - begin));
    for (size_t i = begin; i < end; ++i) {
      if (heap->size() < keep) {
        heap->push_back(i);
        std::push_heap(heap->begin(), heap->end(), item_less);
      } else if (item_less(i, heap->front())) {
        std::pop_heap(heap->begin(), heap->end(), item_less);
        heap->back() = i;
        std::push_heap(heap->begin(), heap->end(), item_less);
      }
    }
  };

  std::vector<std::vector<size_t>> heaps;
  if (workers <= 1) {
    heaps.resize(1);
    heap_range(0, n, &heaps[0]);
  } else {
    std::vector<std::pair<size_t, size_t>> runs = WorkerRuns(n, workers);
    heaps.resize(runs.size());
    std::atomic<size_t> next{0};
    RunPoolProfiled(ctx, workers, [&](int) {
      for (;;) {
        size_t r = next.fetch_add(1, std::memory_order_relaxed);
        if (r >= runs.size()) break;
        heap_range(runs[r].first, runs[r].second, &heaps[r]);
      }
    });
    RecordParallelSort(ctx, runs.size(), workers);
  }

  std::vector<size_t> candidates;
  size_t total = 0;
  for (const auto& h : heaps) total += h.size();
  candidates.reserve(total);
  for (const auto& h : heaps) {
    candidates.insert(candidates.end(), h.begin(), h.end());
  }
  ctx->stats->topn_rows_pruned += n - candidates.size();
  // The index disambiguates every pair, so the order (and thus the output)
  // is schedule-independent; no stability requirement on this final sort.
  std::sort(candidates.begin(), candidates.end(), item_less);
  const size_t end = std::min(keep, candidates.size());
  const size_t begin = std::min(offset, end);
  return Gather(&input, candidates, begin, end);
}

}  // namespace parallel
}  // namespace engine
}  // namespace mtbase
