// Per-operator execution profiles for EXPLAIN (ANALYZE).
//
// A PlanProfiler is attached to an ExecContext for one instrumented
// execution; the profiled ExecutePlan wrapper records one OpProfile per
// physical plan node. The map is owned and mutated by the statement thread
// only: morsel workers never see the profiler (WorkerContext deliberately
// does not copy it) — their counters flow back through the existing
// ExecStats::Merge fold before the wrapper computes its delta, and
// their CPU time is summed in by RunPoolProfiled.
#ifndef MTBASE_ENGINE_OBS_PROFILE_H_
#define MTBASE_ENGINE_OBS_PROFILE_H_

#include <cstdint>
#include <unordered_map>

namespace mtbase {
namespace obs {

/// Actual execution measurements for one physical operator node. All values
/// are inclusive of the node's children (wall/cpu nest like the call stack;
/// counter fields are deltas of monotonic ExecStats counters, which nest the
/// same way). The EXPLAIN renderer derives exclusive morsel/UDF figures by
/// subtracting the immediate children's profiles.
struct OpProfile {
  uint64_t rows_out = 0;     // rows produced (summed over executions)
  uint64_t executions = 0;   // times the node ran (> 1 inside sub-plans)
  uint64_t wall_nanos = 0;   // inclusive wall-clock time
  // Inclusive CPU time: the statement thread's own thread-CPU delta plus
  // pool-worker thread CPU captured by RunPoolProfiled (worker 0 of a
  // region runs on the statement thread and is already in the former).
  uint64_t cpu_nanos = 0;
  uint64_t rows_scanned = 0;    // ExecStats::rows_scanned delta
  uint64_t morsels = 0;         // ExecStats::parallel_morsels delta
  uint64_t udf_calls = 0;       // ExecStats::udf_calls delta
  uint64_t udf_cache_hits = 0;  // ExecStats::udf_cache_hits delta
  // Scan, index scan and Filter nodes: candidate rows their predicate did
  // not keep (exclusive; recorded by the operator on the statement thread).
  uint64_t rows_removed = 0;
  // Max workers observed by any parallel region run while this node was the
  // current operator (1 = serial).
  int workers = 1;
};

/// Map from physical plan node to its OpProfile. Keys are type-erased
/// (`const void*`) so this header stays free of engine dependencies; the
/// engine passes `const Plan*`. Not thread-safe by design (statement-thread
/// only, see file comment).
class PlanProfiler {
 public:
  /// Get-or-create the profile for a node.
  OpProfile* Profile(const void* node) { return &profiles_[node]; }

  /// Profile for a node, or null if it never executed.
  const OpProfile* Find(const void* node) const {
    auto it = profiles_.find(node);
    return it == profiles_.end() ? nullptr : &it->second;
  }

  bool empty() const { return profiles_.empty(); }

  /// Wall time of the whole plan execution, recorded by the statement
  /// pipeline; the [analyze: ...] footer's time= reports it.
  uint64_t total_wall_nanos() const { return total_wall_nanos_; }
  void set_total_wall_nanos(uint64_t n) { total_wall_nanos_ = n; }

  /// Peak worker count over all profiled nodes (1 = everything ran serial).
  /// The [analyze: ...] statement footer reports this.
  int MaxWorkers() const {
    int w = 1;
    for (const auto& [node, prof] : profiles_) {
      (void)node;
      if (prof.workers > w) w = prof.workers;
    }
    return w;
  }

 private:
  std::unordered_map<const void*, OpProfile> profiles_;
  uint64_t total_wall_nanos_ = 0;
};

/// CPU time consumed by the calling thread, in nanoseconds
/// (CLOCK_THREAD_CPUTIME_ID; 0 where unavailable).
uint64_t ThreadCpuNanos();

}  // namespace obs
}  // namespace mtbase

#endif  // MTBASE_ENGINE_OBS_PROFILE_H_
