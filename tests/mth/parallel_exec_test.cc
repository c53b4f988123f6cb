// Executor determinism under parallelism: every MT-H validation query must
// produce byte-identical results with max_threads = 1 and max_threads = 4
// (the ISSUE's core acceptance criterion — parallel execution is purely a
// perf knob, never a semantics knob). Sharded per TPC-H query in CMake so
// the suite parallelizes under ctest and stays within timeouts under TSan.
#include <gtest/gtest.h>

#include "mth/runner.h"
#include "tests/test_util.h"

namespace mtbase {
namespace mth {
namespace {

std::string Canon(const engine::ResultSet& rs) { return CanonRows(rs.rows); }

void SetEngineParallelism(engine::Database* db, int max_threads,
                          size_t min_parallel_rows) {
  engine::PlannerOptions opts = db->planner_options();
  opts.max_threads = max_threads;
  opts.min_parallel_rows = min_parallel_rows;
  db->set_planner_options(opts);
}

class ParallelEnv {
 public:
  static ParallelEnv& Get() {
    static ParallelEnv env;
    return env;
  }

  MthEnvironment* env() { return env_.get(); }
  mt::Session* session() { return session_.get(); }

 private:
  ParallelEnv() {
    MthConfig cfg;
    cfg.scale_factor = 0.002;
    cfg.num_tenants = 5;
    cfg.distribution = MthConfig::Distribution::kZipf;
    auto r = SetupEnvironment(cfg, engine::DbmsProfile::kPostgres,
                              /*with_baseline=*/false);
    if (!r.ok()) {
      ADD_FAILURE() << r.status().ToString();
      return;
    }
    env_ = std::move(r).value();
    session_ = std::make_unique<mt::Session>(env_->middleware.get(), 1);
    auto st = session_->Execute("SET SCOPE = \"IN ()\"");
    if (!st.ok()) ADD_FAILURE() << st.status().ToString();
  }

  std::unique_ptr<MthEnvironment> env_;
  std::unique_ptr<mt::Session> session_;
};

class ParallelExecTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelExecTest, SerialAndParallelResultsByteIdentical) {
  auto& fixture = ParallelEnv::Get();
  ASSERT_NE(fixture.env(), nullptr);
  engine::Database* db = fixture.env()->mth_db.get();
  MthQuery q = GetMthQuery(GetParam(), fixture.env()->config.scale_factor);
  for (mt::OptLevel level : {mt::OptLevel::kCanonical, mt::OptLevel::kO4}) {
    SetEngineParallelism(db, 1, 4096);
    ASSERT_OK_AND_ASSIGN(QueryRun serial,
                         RunMthQuery(fixture.session(), q.sql, level));
    // Low gate so the sf-0.002 inputs actually split into enough morsels.
    SetEngineParallelism(db, 4, 256);
    // Drop the serial run's shared dictionary cache first: the parallel run
    // must compute its conversions independently, or the byte comparison
    // would just echo the serial run's cached values back.
    db->shared_udf_cache()->Clear();
    ASSERT_OK_AND_ASSIGN(QueryRun par,
                         RunMthQuery(fixture.session(), q.sql, level));
    EXPECT_EQ(Canon(serial.result), Canon(par.result))
        << q.name << " at " << mt::OptLevelName(level)
        << ": serial and parallel execution diverged";
    // Counter totals must match too: workers fold their stats back. When the
    // level leaves conversion UDF calls in the plan (canonical), the number
    // of *body executions* is schedule-dependent — per-worker memoization
    // caches dedupe per worker, and concurrent misses may race to the shared
    // dictionary cache — so rows_scanned/rows_joined (which count the body
    // plans' scans and joins) are only comparable for UDF-free levels. The
    // schedule-independent invariant for UDF-bearing plans is the number of
    // call-site evaluations: every evaluation is exactly one cache hit or
    // one body call.
    if (serial.stats.total_udf_invocations() == 0) {
      EXPECT_EQ(serial.stats.rows_scanned, par.stats.rows_scanned) << q.name;
      EXPECT_EQ(serial.stats.rows_joined, par.stats.rows_joined) << q.name;
    } else {
      EXPECT_EQ(serial.stats.total_udf_invocations(),
                par.stats.total_udf_invocations())
          << q.name << " at " << mt::OptLevelName(level);
    }
    if (level == mt::OptLevel::kO4 &&
        (GetParam() == 1 || GetParam() == 6)) {
      // Scan-heavy queries over lineitem must actually have parallelized.
      EXPECT_GT(par.stats.parallel_morsels, 0u) << q.name;
      EXPECT_GT(par.stats.threads_used, 1u) << q.name;
    }
  }
  SetEngineParallelism(db, 1, 4096);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ParallelExecTest,
                         ::testing::Range(1, 23),
                         [](const ::testing::TestParamInfo<int>& info) {
                           char buf[16];
                           std::snprintf(buf, sizeof(buf), "Q%02d",
                                         info.param);
                           return std::string(buf);
                         });

// ORDER BY tails parallelize now: Q1 (full sort after aggregation) runs the
// run-sort + merge path and Q3 (ORDER BY ... LIMIT 10) fuses into a top-N,
// both byte-identical to the serial plan. The sf-0.002 sort inputs are tiny
// (Q1 sorts 4 groups), so the gate drops to 2 rows to actually engage the
// parallel machinery end-to-end.
class ParallelSortStatsTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelSortStatsTest, OrderByTailsRunParallel) {
  auto& fixture = ParallelEnv::Get();
  ASSERT_NE(fixture.env(), nullptr);
  engine::Database* db = fixture.env()->mth_db.get();
  MthQuery q = GetMthQuery(GetParam(), fixture.env()->config.scale_factor);
  SetEngineParallelism(db, 1, 4096);
  ASSERT_OK_AND_ASSIGN(QueryRun serial,
                       RunMthQuery(fixture.session(), q.sql, mt::OptLevel::kO4));
  SetEngineParallelism(db, 4, 2);
  db->stats()->threads_used = 0;  // re-anchor the high-water gauge
  ASSERT_OK_AND_ASSIGN(QueryRun par,
                       RunMthQuery(fixture.session(), q.sql, mt::OptLevel::kO4));
  EXPECT_EQ(Canon(serial.result), Canon(par.result))
      << q.name << ": parallel sort changed the result";
  EXPECT_GT(par.stats.parallel_sorts, 0u) << q.name;
  EXPECT_GT(par.stats.threads_used, 1u) << q.name;
  EXPECT_EQ(serial.stats.parallel_sorts, 0u) << q.name;
  if (GetParam() == 3) {
    // Q3 carries LIMIT 10: the planner must fuse Sort + Limit into a top-N
    // in both runs. (Whether the bounded heaps prune anything depends on
    // the group count at this scale factor; sort_test covers pruning with
    // controlled data.)
    EXPECT_GT(par.stats.topn_pushdowns, 0u) << q.name;
    EXPECT_GT(serial.stats.topn_pushdowns, 0u) << q.name;
  }
  SetEngineParallelism(db, 1, 4096);
}

INSTANTIATE_TEST_SUITE_P(SortQueries, ParallelSortStatsTest,
                         ::testing::Values(1, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

// A join-heavy query must take the partitioned parallel hash join path.
TEST(ParallelJoinStatsTest, ParallelJoinsCounted) {
  auto& fixture = ParallelEnv::Get();
  ASSERT_NE(fixture.env(), nullptr);
  engine::Database* db = fixture.env()->mth_db.get();
  MthQuery q = GetMthQuery(3, fixture.env()->config.scale_factor);
  SetEngineParallelism(db, 4, 256);
  ASSERT_OK_AND_ASSIGN(QueryRun run, RunMthQuery(fixture.session(), q.sql,
                                                 mt::OptLevel::kO4));
  EXPECT_GT(run.stats.parallel_joins, 0u);
  EXPECT_GT(run.stats.threads_used, 1u);
  SetEngineParallelism(db, 1, 4096);
}

// The conversion-UDF acceptance property: canonical-level (conversion-heavy)
// queries — whose plans retain immutable toUniversal/fromUniversal UDF
// calls — parallelize too, with byte-identical output and UDF bodies
// demonstrably evaluated on morsel workers against per-worker caches.
class CanonicalConversionParallelTest : public ::testing::TestWithParam<int> {
};

void CheckConversionHeavyPlanParallelizes(int query) {
  auto& fixture = ParallelEnv::Get();
  ASSERT_NE(fixture.env(), nullptr);
  engine::Database* db = fixture.env()->mth_db.get();
  MthQuery q = GetMthQuery(query, fixture.env()->config.scale_factor);
  // Parallel run first, against a cold shared dictionary cache, so body
  // evaluations demonstrably happen on the workers. The gate is lower than
  // the byte-parity suite's: Q6's aggregate input (the rows that survive the
  // filter) is only a few hundred rows at sf 0.002, and the aggregate is
  // where the conversion calls live.
  SetEngineParallelism(db, 4, 64);
  db->shared_udf_cache()->Clear();
  // threads_used is a process-lifetime high-water gauge; re-anchor it so
  // the assertion below cannot pass on another test's parallel run.
  db->stats()->threads_used = 0;
  ASSERT_OK_AND_ASSIGN(
      QueryRun par,
      RunMthQuery(fixture.session(), q.sql, mt::OptLevel::kCanonical));
  EXPECT_GT(par.stats.total_udf_invocations(), 0u) << q.name;
  EXPECT_GT(par.stats.threads_used, 1u) << q.name;
  EXPECT_GT(par.stats.udf_parallel_evals, 0u) << q.name;
  SetEngineParallelism(db, 1, 4096);
  // Independent serial baseline: without this Clear the serial run would be
  // served the parallel workers' own cached values and the comparison would
  // be circular.
  db->shared_udf_cache()->Clear();
  ASSERT_OK_AND_ASSIGN(
      QueryRun serial,
      RunMthQuery(fixture.session(), q.sql, mt::OptLevel::kCanonical));
  EXPECT_EQ(serial.stats.udf_parallel_evals, 0u) << q.name;
  EXPECT_EQ(Canon(serial.result), Canon(par.result))
      << q.name << ": parallel conversion evaluation changed the result";
}

TEST_P(CanonicalConversionParallelTest, ConversionHeavyPlansParallelize) {
  CheckConversionHeavyPlanParallelizes(GetParam());
}

// The same at a shared-cache capacity far below the working set: four
// workers evict from the striped shards while they fill them, and the
// results stay byte-identical to the serial run.
TEST_P(CanonicalConversionParallelTest, ParallelizeWhileTheCacheEvicts) {
  ASSERT_NE(ParallelEnv::Get().env(), nullptr);
  engine::SharedUdfCache* cache =
      ParallelEnv::Get().env()->mth_db->shared_udf_cache();
  const size_t saved = cache->capacity();
  cache->set_capacity(64);
  CheckConversionHeavyPlanParallelizes(GetParam());
  // Every shard full: the serial run alone, from an empty cache, filled
  // all 64 entries.
  EXPECT_EQ(cache->size(), 64u);
  cache->set_capacity(saved);
}

INSTANTIATE_TEST_SUITE_P(ConversionQueries, CanonicalConversionParallelTest,
                         ::testing::Values(1, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

// EXPLAIN surfaces the parallel annotation once a thread budget is set.
TEST(ParallelExplainTest, AnnotationReflectsThreadBudget) {
  auto& fixture = ParallelEnv::Get();
  ASSERT_NE(fixture.env(), nullptr);
  engine::Database* db = fixture.env()->mth_db.get();
  SetEngineParallelism(db, 4, 64);
  ASSERT_OK_AND_ASSIGN(std::string plan,
                       fixture.session()->Explain(
                           "SELECT COUNT(*) FROM lineitem"));
  EXPECT_NE(plan.find("[parallel: 4 threads]"), std::string::npos) << plan;
  SetEngineParallelism(db, 1, 4096);
  ASSERT_OK_AND_ASSIGN(plan, fixture.session()->Explain(
                                 "SELECT COUNT(*) FROM lineitem"));
  EXPECT_EQ(plan.find("[parallel:"), std::string::npos) << plan;
}

}  // namespace
}  // namespace mth
}  // namespace mtbase
