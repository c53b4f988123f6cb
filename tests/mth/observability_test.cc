// Observability over the MT-H workload: EXPLAIN (ANALYZE) on every
// validation query at every rewrite level returns byte-identical results to
// an uninstrumented run, and its per-operator actuals reconcile exactly with
// the uninstrumented ExecStats delta (root row count; UDF invocations, which
// are cache-warmth independent as calls + cache hits). Sharded per TPC-H
// query in CMake like the validation suite, plus misc tests for overlapping
// StatsScope measurements under parallel execution and a trace-file smoke
// test driven by the CI quick lane (MTBASE_TRACE set by CMake).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "mth/runner.h"
#include "tests/test_util.h"

namespace mtbase {
namespace mth {
namespace {

constexpr mt::OptLevel kAllLevels[] = {
    mt::OptLevel::kCanonical, mt::OptLevel::kO1,
    mt::OptLevel::kO2,        mt::OptLevel::kO3,
    mt::OptLevel::kO4,        mt::OptLevel::kInlineOnly,
};

class ObsEnv {
 public:
  static ObsEnv& Get() {
    static ObsEnv env;
    return env;
  }

  MthEnvironment* env() { return env_.get(); }
  /// All-tenants session (SCOPE "IN ()"): the cross-tenant shape where every
  /// rewrite level produces a distinct plan family.
  mt::Session* session() { return session_.get(); }

 private:
  ObsEnv() {
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

/// The [analyze: ...] statement footer, parsed back out of the rendering.
struct AnalyzeFooter {
  uint64_t rows = 0;
  int workers = 0;
  double time_ms = 0;
  uint64_t udf_calls = 0;
  uint64_t udf_cache_hits = 0;
};

bool ParseAnalyzeFooter(const std::string& text, AnalyzeFooter* out) {
  const size_t pos = text.find("[analyze: ");
  if (pos == std::string::npos) return false;
  return std::sscanf(text.c_str() + pos,
                     "[analyze: rows=%" SCNu64 " workers=%d time=%lfms"
                     " udf_calls=%" SCNu64 " udf_cache_hits=%" SCNu64 "]",
                     &out->rows, &out->workers, &out->time_ms,
                     &out->udf_calls, &out->udf_cache_hits) == 5;
}

class ObservabilityTest : public ::testing::TestWithParam<int> {};

// The acceptance criterion: at every rewrite level, EXPLAIN (ANALYZE)
// executes the same plan a plain run would — byte-identical rows — while its
// footer reconciles exactly with the uninstrumented run's ExecStats delta,
// and every operator line carries an [actual: ...] annotation.
TEST_P(ObservabilityTest, AnalyzeMatchesUninstrumentedRun) {
  auto& fixture = ObsEnv::Get();
  ASSERT_NE(fixture.env(), nullptr);
  mt::Session* session = fixture.session();
  MthQuery q = GetMthQuery(GetParam(), fixture.env()->config.scale_factor);
  for (mt::OptLevel level : kAllLevels) {
    // Uninstrumented reference run (QueryRun::stats is the per-run delta).
    auto run = RunMthQuery(session, q.sql, level);
    ASSERT_TRUE(run.ok()) << q.name << " at " << mt::OptLevelName(level)
                          << ": " << run.status().ToString();

    session->set_optimization_level(level);
    mt::ExplainOptions opts;
    opts.analyze = true;
    engine::ResultSet analyzed;
    auto text = session->Explain(q.sql, opts, &analyzed);
    ASSERT_TRUE(text.ok()) << q.name << " at " << mt::OptLevelName(level)
                           << ": " << text.status().ToString();

    // Instrumentation must not change what the query returns.
    EXPECT_EQ(CanonRows(analyzed.rows), CanonRows(run->result.rows))
        << q.name << " at " << mt::OptLevelName(level);

    // Every operator line is annotated. Footers start with '[' after
    // indentation; SubPlan/InitPlan section headers are not operators.
    std::istringstream lines(*text);
    std::string line;
    int operator_lines = 0;
    while (std::getline(lines, line)) {
      const size_t first = line.find_first_not_of(' ');
      if (first == std::string::npos) continue;
      const std::string trimmed = line.substr(first);
      if (trimmed[0] == '[') continue;
      if (trimmed.rfind("SubPlan (", 0) == 0 ||
          trimmed.rfind("InitPlan (", 0) == 0) {
        continue;
      }
      ++operator_lines;
      EXPECT_NE(line.find("[actual:"), std::string::npos)
          << q.name << " at " << mt::OptLevelName(level) << ": unannotated "
          << line << "\n"
          << *text;
    }
    EXPECT_GT(operator_lines, 0) << q.name << ": " << *text;

    // The footer reconciles with the uninstrumented delta: same root row
    // count, same total UDF invocations (calls + cache hits is independent
    // of cache warmth and scheduling; the split between them is not).
    AnalyzeFooter footer;
    ASSERT_TRUE(ParseAnalyzeFooter(*text, &footer))
        << q.name << " at " << mt::OptLevelName(level) << ": " << *text;
    EXPECT_EQ(footer.rows, analyzed.rows.size())
        << q.name << " at " << mt::OptLevelName(level);
    EXPECT_EQ(footer.rows, run->result.rows.size())
        << q.name << " at " << mt::OptLevelName(level);
    EXPECT_EQ(footer.udf_calls + footer.udf_cache_hits,
              run->stats.udf_calls + run->stats.udf_cache_hits)
        << q.name << " at " << mt::OptLevelName(level);
    EXPECT_GE(footer.workers, 1)
        << q.name << " at " << mt::OptLevelName(level);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ObservabilityTest,
                         ::testing::Range(1, 23),
                         [](const ::testing::TestParamInfo<int>& info) {
                           char buf[16];
                           std::snprintf(buf, sizeof(buf), "Q%02d",
                                         info.param);
                           return std::string(buf);
                         });

void ExpectStatsEqual(const engine::ExecStats& a, const engine::ExecStats& b) {
  engine::ForEachExecStatsField(
      [&](const char* name, uint64_t engine::ExecStats::*field) {
        EXPECT_EQ(a.*field, b.*field) << name;
      });
}

// Two StatsScopes opened around the same parallel Q6 run must report the
// same delta: scopes snapshot without resetting the live counters, so
// overlapping measurements never double-count or steal from each other —
// including the worker counters folded back by Merge under 4 threads.
// Runs in the TSan lane (not `long`-labelled) to prove the fold is clean
// under the race detector too.
TEST(ObservabilityMiscTest, OverlappingStatsScopesAgreeUnderParallelism) {
  auto& fixture = ObsEnv::Get();
  ASSERT_NE(fixture.env(), nullptr);
  engine::Database* db = fixture.env()->mth_db.get();
  MthQuery q = GetMthQuery(6, fixture.env()->config.scale_factor);
  SetMthThreads(fixture.env(), 4);
  engine::StatsScope outer(db->stats());
  engine::StatsScope inner(db->stats());
  auto run = RunMthQuery(fixture.session(), q.sql, mt::OptLevel::kO4);
  const engine::ExecStats outer_d = outer.Delta();
  const engine::ExecStats inner_d = inner.Delta();
  SetMthThreads(fixture.env(), 0);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectStatsEqual(outer_d, inner_d);
  EXPECT_GT(outer_d.rows_scanned, 0u);
}

// Trace-file smoke: when the harness (CI quick lane) sets MTBASE_TRACE, the
// statements above plus one of each layer here land as JSONL records in the
// file; tools/check_trace_schema.py validates the schema afterwards. Without
// the variable the test skips — tracing is off by default.
TEST(ObservabilityMiscTest, TraceSmoke) {
  const char* path = std::getenv("MTBASE_TRACE");
  if (path == nullptr || *path == '\0') {
    GTEST_SKIP() << "MTBASE_TRACE not set";
  }
  auto& fixture = ObsEnv::Get();
  ASSERT_NE(fixture.env(), nullptr);
  MthQuery q = GetMthQuery(6, fixture.env()->config.scale_factor);
  auto run = RunMthQuery(fixture.session(), q.sql, mt::OptLevel::kO4);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  mt::ExplainOptions opts;
  opts.analyze = true;
  ASSERT_OK(fixture.session()->Explain(q.sql, opts));
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  int session_records = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"layer\": \"session\"") != std::string::npos) {
      ++session_records;
    }
  }
  EXPECT_GT(session_records, 0) << "no session-layer records in " << path;
}

}  // namespace
}  // namespace mth
}  // namespace mtbase
