// Observability unit tests (src/engine/obs/): the metrics registry, the
// statement tracer, the ExecStats gauge-delta semantics, and the engine's
// EXPLAIN (ANALYZE) surface on a small database.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/obs/metrics.h"
#include "engine/obs/profile.h"
#include "engine/obs/trace.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CountersAccumulate) {
  auto* m = obs::MetricsRegistry::Global();
  m->ResetForTesting();
  m->Add("test_counter_total");
  m->Add("test_counter_total", 4);
  EXPECT_EQ(m->CounterValue("test_counter_total"), 5u);
  EXPECT_EQ(m->CounterValue("never_touched_total"), 0u);
}

TEST(MetricsTest, HistogramQuantilesFromBuckets) {
  auto* m = obs::MetricsRegistry::Global();
  m->ResetForTesting();
  // 100 fast observations (bucket le=0.00025) and 10 slow ones (le=0.5):
  // the median lands in the fast bucket, the p99 in the slow one.
  for (int i = 0; i < 100; ++i) m->Observe("test_lat_seconds", 0.0002);
  for (int i = 0; i < 10; ++i) m->Observe("test_lat_seconds", 0.3);
  EXPECT_EQ(m->HistogramCount("test_lat_seconds"), 110u);
  EXPECT_DOUBLE_EQ(m->Quantile("test_lat_seconds", 0.5), 0.00025);
  EXPECT_DOUBLE_EQ(m->Quantile("test_lat_seconds", 0.95), 0.5);
  EXPECT_DOUBLE_EQ(m->Quantile("test_lat_seconds", 0.99), 0.5);
  EXPECT_EQ(m->Quantile("unknown_seconds", 0.5), 0.0);
}

TEST(MetricsTest, InfBucketReportsLargestFiniteBound) {
  auto* m = obs::MetricsRegistry::Global();
  m->ResetForTesting();
  m->Observe("test_slow_seconds", 99.0);  // beyond every finite bucket
  EXPECT_EQ(m->HistogramCount("test_slow_seconds"), 1u);
  EXPECT_DOUBLE_EQ(m->Quantile("test_slow_seconds", 0.5), 10.0);
}

TEST(MetricsTest, RenderPrometheusExposition) {
  auto* m = obs::MetricsRegistry::Global();
  m->ResetForTesting();
  m->Add("test_counter_total", 3);
  m->Observe("test_lat_seconds", 0.0002);
  m->Observe("test_lat_seconds", 0.3);
  const std::string text = m->RenderPrometheus();
  EXPECT_NE(text.find("# TYPE test_counter_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_counter_total 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE test_lat_seconds histogram\n"),
            std::string::npos)
      << text;
  // Buckets are cumulative and end with +Inf; _sum and _count close the
  // series.
  EXPECT_NE(text.find("test_lat_seconds_bucket{le=\"0.00025\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_lat_seconds_bucket{le=\"0.5\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_lat_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_lat_seconds_count 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test_lat_seconds_sum "), std::string::npos) << text;
}

TEST(MetricsTest, RenderJsonShape) {
  auto* m = obs::MetricsRegistry::Global();
  m->ResetForTesting();
  m->Add("test_counter_total", 2);
  m->Observe("test_lat_seconds", 0.0002);
  const std::string json = m->RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test_counter_total\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test_lat_seconds\": {\"count\": 1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p50\": 0.00025"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// ExecStats gauge-delta semantics
// ---------------------------------------------------------------------------

// threads_used is a gauge: a StatsScope delta must report the higher
// watermark of the two snapshots, never an underflowed subtraction.
TEST(StatsGaugeTest, ThreadsUsedDeltaIsMaxOfSnapshots) {
  ExecStats a, b;
  a.threads_used = 4;
  b.threads_used = 2;
  EXPECT_EQ((a - b).threads_used, 4u);
  // A delta where the baseline watermark is higher (e.g. an earlier
  // statement used more workers) reports the baseline, not 2^64 - 2.
  a.threads_used = 1;
  b.threads_used = 3;
  EXPECT_EQ((a - b).threads_used, 3u);
  // Monotonic counters still subtract.
  a.rows_scanned = 10;
  b.rows_scanned = 4;
  EXPECT_EQ((a - b).rows_scanned, 6u);
}

// operator- and Merge cover every field of the list: counters subtract and
// add, the threads_used gauge takes the max both ways.
TEST(StatsGaugeTest, DeltaAndMergeCoverEveryField) {
  ExecStats a, b;
  uint64_t i = 0;
  ForEachExecStatsField([&](const char*, uint64_t ExecStats::*field) {
    ++i;
    a.*field = 100 * i;
    b.*field = i;
  });
  ExecStats merged = a;
  merged.Merge(b);
  const ExecStats d = a - b;
  ForEachExecStatsField([&](const char* name, uint64_t ExecStats::*field) {
    const bool gauge = field == &ExecStats::threads_used;
    EXPECT_EQ(d.*field, gauge ? a.*field : a.*field - b.*field) << name;
    EXPECT_EQ(merged.*field, gauge ? a.*field : a.*field + b.*field) << name;
  });
  // The gauge keeps the higher side whichever frame holds it.
  ExecStats low;
  low.threads_used = 1;
  low.Merge(a);
  EXPECT_EQ(low.threads_used, a.threads_used);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(TraceTest, FinishFromStatusClassifiesOutcomes) {
  obs::StatementTrace rec;
  rec.spans.push_back({});
  rec.spans.back().phase = "execute";
  rec.FinishFromStatus(Status::OK());
  EXPECT_EQ(rec.outcome, "ok");

  rec.FinishFromStatus(
      Status::InvalidArgument("plan verification failed:\nTENANT..."));
  EXPECT_EQ(rec.outcome, "refused");
  EXPECT_EQ(rec.spans.back().outcome, "refused");

  obs::StatementTrace audit_rec;
  audit_rec.spans.push_back({});
  audit_rec.spans.back().phase = "audit";
  audit_rec.FinishFromStatus(Status::InvalidArgument(
      "rewrite audit failed (DFILTER_MISSING, TTID_LEAK):\ndetails"));
  EXPECT_EQ(audit_rec.outcome, "refused");
  EXPECT_EQ(audit_rec.codes, "DFILTER_MISSING, TTID_LEAK");
  EXPECT_EQ(audit_rec.spans.back().codes, "DFILTER_MISSING, TTID_LEAK");

  obs::StatementTrace err_rec;
  err_rec.FinishFromStatus(Status::NotFound("table nope does not exist"));
  EXPECT_EQ(err_rec.outcome, "error");
}

TEST(TraceTest, ToJsonEscapesAndOrdersFields) {
  obs::StatementTrace rec;
  rec.layer = "engine";
  rec.statement = "SELECT \"a\"\nFROM t";
  rec.seq = 7;
  obs::TraceSpan sp;
  sp.phase = "execute";
  sp.duration_ms = 1.5;
  sp.has_stats = true;
  sp.stats.rows_scanned = 3;
  rec.spans.push_back(sp);
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"seq\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"layer\": \"engine\""), std::string::npos) << json;
  EXPECT_NE(json.find("SELECT \\\"a\\\"\\nFROM t"), std::string::npos) << json;
  EXPECT_NE(json.find("\"phase\": \"execute\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"duration_ms\": 1.500"), std::string::npos) << json;
  // Only nonzero stats fields are emitted.
  EXPECT_NE(json.find("\"stats\": {\"rows_scanned\": 3}"), std::string::npos)
      << json;
}

// Every field of the ExecStats list reaches a span's JSON under its own
// name.
TEST(TraceTest, SpanJsonCarriesEveryStatsField) {
  obs::StatementTrace rec;
  obs::TraceSpan sp;
  sp.phase = "execute";
  sp.has_stats = true;
  uint64_t i = 0;
  ForEachExecStatsField([&](const char*, uint64_t ExecStats::*field) {
    sp.stats.*field = ++i;
  });
  rec.spans.push_back(sp);
  const std::string json = rec.ToJson();
  i = 0;
  ForEachExecStatsField([&](const char* name, uint64_t ExecStats::*) {
    const std::string member =
        "\"" + std::string(name) + "\": " + std::to_string(++i);
    EXPECT_NE(json.find(member), std::string::npos) << member << "\n" << json;
  });
}

TEST(TraceTest, JsonEscapeControlCharacters) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(obs::JsonEscape(std::string(1, '\x01')), "\\u0001");
}

// An engine statement executed while a tracer is installed emits exactly one
// JSONL record carrying the compile and execute spans.
TEST(TraceTest, ExecuteEmitsOneRecordPerStatement) {
  const std::string path = ::testing::TempDir() + "/obs_trace_unit.jsonl";
  std::remove(path.c_str());
  {
    obs::Tracer tracer(path);
    ASSERT_TRUE(tracer.enabled());
    obs::Tracer::SetGlobalForTesting(&tracer);
    Database db;
    ASSERT_OK(db.ExecuteScript(R"(
      CREATE TABLE t (a INTEGER NOT NULL);
      INSERT INTO t VALUES (1), (2), (3);
    )"));
    std::remove(path.c_str());  // keep only the SELECT's record
    {
      obs::Tracer select_tracer(path);
      ASSERT_TRUE(select_tracer.enabled());
      obs::Tracer::SetGlobalForTesting(&select_tracer);
      ASSERT_OK(db.Execute("SELECT a FROM t WHERE a > 1"));
    }
    obs::Tracer::SetGlobalForTesting(nullptr);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"seq\": 1"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"layer\": \"engine\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("SELECT a FROM t WHERE a > 1"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"outcome\": \"ok\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"phase\": \"parse\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"phase\": \"plan\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"phase\": \"execute\""), std::string::npos)
      << lines[0];
}

// ---------------------------------------------------------------------------
// EXPLAIN (ANALYZE) at the engine layer
// ---------------------------------------------------------------------------

class ObsAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(R"(
      CREATE TABLE t (a INTEGER NOT NULL, b INTEGER);
      INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40);
    )"));
  }

  Database db_;
};

TEST_F(ObsAnalyzeTest, AnnotatesEveryOperatorAndAppendsFooter) {
  ASSERT_OK_AND_ASSIGN(auto sel,
                       sql::ParseSelect("SELECT a, b FROM t WHERE a >= 2 "
                                        "ORDER BY a DESC"));
  ResultSet rs;
  ASSERT_OK_AND_ASSIGN(std::string text,
                       db_.ExplainAnalyzeSelect(*sel, nullptr, &rs));
  EXPECT_EQ(rs.rows.size(), 3u);
  // Every operator line carries an [actual: ...] suffix; footers start with
  // '[' at column zero and sub-plan headers carry no profile of their own.
  std::istringstream lines(text);
  std::string line;
  int operator_lines = 0;
  while (std::getline(lines, line)) {
    const size_t first = line.find_first_not_of(' ');
    if (first == std::string::npos) continue;
    const std::string trimmed = line.substr(first);
    if (trimmed[0] == '[') continue;  // statement footer
    if (trimmed.rfind("SubPlan (", 0) == 0 ||
        trimmed.rfind("InitPlan (", 0) == 0) {
      continue;  // expression sub-plan section header, not an operator
    }
    ++operator_lines;
    EXPECT_NE(line.find("[actual:"), std::string::npos) << line << "\n"
                                                        << text;
  }
  EXPECT_GE(operator_lines, 3) << text;  // Sort <- Project <- Scan at least
  // The analyze footer reports the instrumented run's root row count.
  EXPECT_NE(text.find("[analyze: rows=3 "), std::string::npos) << text;
  EXPECT_NE(text.find("time="), std::string::npos) << text;
}

/// The number after " removed=" on the first line of `text` that contains
/// `op`, or -1.
int64_t RemovedOn(const std::string& text, const std::string& op) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(op) == std::string::npos) continue;
    const size_t at = line.find(" removed=");
    if (at == std::string::npos) return -1;
    // Last in the [actual: ...] bracket.
    EXPECT_EQ(line.find(']', at), line.size() - 1) << line;
    return std::stoll(line.substr(at + 9));
  }
  return -1;
}

// Filtered scans (full, partition-pruned and index) and Filters report the
// candidate rows their predicate removed, the rest of the bracket intact.
TEST_F(ObsAnalyzeTest, PredicatesReportRowsRemoved) {
  ASSERT_OK(db_.ExecuteScript(R"(
    CREATE TABLE p (k INTEGER NOT NULL, v INTEGER)
      PARTITION BY HASH (k) PARTITIONS 4;
    INSERT INTO p VALUES (1, 10), (2, 20), (3, 30), (3, -1), (4, 40), (5, 20),
                         (3, 31), (6, 20), (7, 70), (8, 80);
    CREATE INDEX p_v ON p (v);
  )"));
  struct Case {
    const char* sql;
    const char* op;    // the operator line to read
    size_t rows;       // result rows
    int64_t removed;   // -1: candidates (rows_scanned) minus result rows
  };
  const Case cases[] = {
      {"SELECT a FROM t WHERE a >= 2", "Scan t (filtered)", 3, 1},
      {"SELECT b FROM t", "Scan t", 4, -2},  // no filter: no removed=
      {"SELECT v FROM p WHERE k = 3 AND v > 0", "[partitions: ", 2, -1},
      {"SELECT k FROM p WHERE v = 20 AND k > 2", "IndexScan p", 2, -1},
      {"SELECT a, COUNT(*) FROM t GROUP BY a HAVING a > 2", "Filter", 2, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    ASSERT_OK_AND_ASSIGN(auto sel, sql::ParseSelect(c.sql));
    ResultSet rs;
    StatsScope scope(db_.stats());
    ASSERT_OK_AND_ASSIGN(std::string text,
                         db_.ExplainAnalyzeSelect(*sel, nullptr, &rs));
    ASSERT_EQ(rs.rows.size(), c.rows) << text;
    ASSERT_NE(text.find(c.op), std::string::npos) << text;
    const int64_t removed = RemovedOn(text, c.op);
    if (c.removed == -2) {
      EXPECT_EQ(removed, -1) << text;
      continue;
    }
    const int64_t want =
        c.removed >= 0 ? c.removed
                       : static_cast<int64_t>(scope.Delta().rows_scanned) -
                             static_cast<int64_t>(c.rows);
    EXPECT_EQ(removed, want) << text;
    EXPECT_GT(removed, 0) << text;
  }
}

TEST_F(ObsAnalyzeTest, VerifyFooterPrecedesAnalyzeFooter) {
  ASSERT_OK_AND_ASSIGN(auto sel, sql::ParseSelect("SELECT a FROM t"));
  verify::VerifyContext vctx;  // engine-level checks only
  ASSERT_OK_AND_ASSIGN(std::string text,
                       db_.ExplainAnalyzeSelect(*sel, &vctx, nullptr));
  const size_t verify_pos = text.find("[verify: ok]");
  const size_t analyze_pos = text.find("[analyze: ");
  ASSERT_NE(verify_pos, std::string::npos) << text;
  ASSERT_NE(analyze_pos, std::string::npos) << text;
  EXPECT_LT(verify_pos, analyze_pos) << text;
}

// An engine EXPLAIN (ANALYZE) is one engine statement: exactly one trace
// record carrying its plan, verify and execute spans, and one tick of the
// statement and ANALYZE counters.
TEST_F(ObsAnalyzeTest, AnalyzeIsOneTracedEngineStatement) {
  const std::string path = ::testing::TempDir() + "/obs_trace_analyze.jsonl";
  std::remove(path.c_str());
  ASSERT_OK_AND_ASSIGN(auto sel,
                       sql::ParseSelect("SELECT a FROM t WHERE a > 1"));
  auto* metrics = obs::MetricsRegistry::Global();
  const uint64_t statements =
      metrics->CounterValue("mtbase_engine_statements_total");
  const uint64_t analyze_runs =
      metrics->CounterValue("mtbase_engine_analyze_runs_total");
  ScopedVerifyEnv verify_on("1");  // so the compile records a verify span
  {
    obs::Tracer tracer(path);
    ASSERT_TRUE(tracer.enabled());
    obs::Tracer::SetGlobalForTesting(&tracer);
    auto text = db_.ExplainAnalyzeSelect(*sel);
    obs::Tracer::SetGlobalForTesting(nullptr);
    ASSERT_OK(text.status());
  }
  EXPECT_EQ(metrics->CounterValue("mtbase_engine_statements_total"),
            statements + 1);
  EXPECT_EQ(metrics->CounterValue("mtbase_engine_analyze_runs_total"),
            analyze_runs + 1);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"layer\": \"engine\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("SELECT a FROM t WHERE a > 1"), std::string::npos)
      << lines[0];
  for (const char* phase : {"plan", "verify", "execute"}) {
    EXPECT_NE(lines[0].find("\"phase\": \"" + std::string(phase) + "\""),
              std::string::npos)
        << phase << "\n" << lines[0];
  }
}

TEST_F(ObsAnalyzeTest, AnalyzeResultMatchesPlainExecution) {
  const std::string q = "SELECT b, a FROM t WHERE b > 10 ORDER BY b";
  ASSERT_OK_AND_ASSIGN(ResultSet plain, db_.Execute(q));
  ASSERT_OK_AND_ASSIGN(auto sel, sql::ParseSelect(q));
  ResultSet analyzed;
  ASSERT_OK(db_.ExplainAnalyzeSelect(*sel, nullptr, &analyzed));
  EXPECT_EQ(CanonRows(analyzed.rows), CanonRows(plain.rows));
  EXPECT_EQ(analyzed.column_names, plain.column_names);
}

TEST_F(ObsAnalyzeTest, ProfileExecutionKnobKeepsResultsIdentical) {
  const std::string q = "SELECT a, b FROM t WHERE a >= 2 ORDER BY a";
  ASSERT_OK_AND_ASSIGN(ResultSet off, db_.Execute(q));
  db_.set_profile_execution(true);
  ASSERT_OK_AND_ASSIGN(ResultSet on, db_.Execute(q));
  db_.set_profile_execution(false);
  EXPECT_EQ(CanonRows(on.rows), CanonRows(off.rows));
}

TEST_F(ObsAnalyzeTest, DumpMetricsRendersEngineCounters) {
  obs::MetricsRegistry::Global()->ResetForTesting();
  ASSERT_OK(db_.Execute("SELECT COUNT(*) FROM t"));
  const std::string text = db_.DumpMetrics();
  EXPECT_NE(text.find("# TYPE mtbase_engine_statements_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mtbase_engine_statements_total 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE mtbase_engine_execute_seconds histogram\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(
      obs::MetricsRegistry::Global()->HistogramCount(
          "mtbase_engine_execute_seconds"),
      1u);
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
