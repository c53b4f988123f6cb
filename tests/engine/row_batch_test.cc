// Row-batch edge cases of the executor: width-0 rows, the dual row of a
// SELECT without FROM, LIMIT/OFFSET at the batch ends, DISTINCT over NULLs,
// outer rows read through a row view, and join residuals over VARCHAR.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

/// Every case runs twice: serially, and with 4 threads under a 2-row
/// parallel gate, so even these few-row tables take the morsel paths. Both
/// runs must agree byte for byte.
class RowBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(R"(
      CREATE TABLE r (a INTEGER, b INTEGER, name VARCHAR(40));
      CREATE TABLE s (a INTEGER, tag VARCHAR(40));
      INSERT INTO r VALUES (1, 10, 'a name longer than sixteen bytes'),
                           (2, NULL, 'bo'), (3, 10, 'cy'), (1, NULL, 'bo'),
                           (4, 10, 'a name longer than sixteen bytes'),
                           (5, NULL, 'bo');
      INSERT INTO s VALUES (1, 'b tag longer than sixteen bytes'), (1, 'ab'),
                           (3, 'cz'), (3, 'ca'), (4, 'zz'), (9, 'q');
    )"));
  }

  void SetThreads(int threads, size_t min_rows) {
    PlannerOptions opts = db_.planner_options();
    opts.max_threads = threads;
    opts.min_parallel_rows = min_rows;
    db_.set_planner_options(opts);
  }

  /// Result rows as comma-joined cells, in result order; `serial_stats`
  /// (optional) receives the serial run's counters, par_stats_ the parallel
  /// run's.
  std::vector<std::string> Rows(const std::string& sql,
                                ExecStats* serial_stats = nullptr) {
    SCOPED_TRACE(sql);
    SetThreads(1, 4096);
    StatsScope serial_scope(db_.stats());
    auto serial = db_.Execute(sql);
    if (serial_stats != nullptr) *serial_stats = serial_scope.Delta();
    SetThreads(4, 2);
    StatsScope par_scope(db_.stats());
    auto par = db_.Execute(sql);
    par_stats_ = par_scope.Delta();
    SetThreads(1, 4096);
    EXPECT_OK(serial.status());
    EXPECT_OK(par.status());
    if (!serial.ok() || !par.ok()) return {};
    EXPECT_EQ(CanonRows(serial.value().rows), CanonRows(par.value().rows));
    std::vector<std::string> out;
    for (const Row& row : serial.value().rows) {
      std::string line;
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) line += ",";
        line += row[i].ToString();
      }
      out.push_back(line);
    }
    return out;
  }

  using Strings = std::vector<std::string>;
  Database db_;
  ExecStats par_stats_;
};

TEST_F(RowBatchTest, ZeroWidthRowsStillCount) {
  // The scan and the join below the COUNT(*) emit no column at all.
  EXPECT_EQ(Rows("SELECT COUNT(*) FROM r"), Strings{"6"});
  EXPECT_GT(par_stats_.parallel_morsels, 0u);
  EXPECT_EQ(Rows("SELECT COUNT(*) FROM r WHERE b = 10"), Strings{"3"});
  ExecStats stats;
  EXPECT_EQ(Rows("SELECT COUNT(*) FROM r, s WHERE r.a = s.a", &stats),
            Strings{"7"});
  EXPECT_EQ(stats.rows_joined, 7u);
  EXPECT_EQ(par_stats_.rows_joined, 7u);
  EXPECT_GT(par_stats_.parallel_joins, 0u);
  EXPECT_EQ(Rows("SELECT COUNT(*) FROM r, s"), Strings{"36"});
}

TEST_F(RowBatchTest, SelectWithoutFrom) {
  EXPECT_EQ(Rows("SELECT 1 + 2, 'x', NULL"), Strings{"3,x,NULL"});
  EXPECT_EQ(Rows("SELECT COUNT(*)"), Strings{"1"});
}

TEST_F(RowBatchTest, LimitZeroAndOffsetPastTheEnd) {
  EXPECT_EQ(Rows("SELECT a FROM r LIMIT 0"), Strings{});
  EXPECT_EQ(Rows("SELECT a FROM r ORDER BY a LIMIT 0"), Strings{});
  EXPECT_EQ(Rows("SELECT a FROM r ORDER BY a LIMIT 3 OFFSET 6"), Strings{});
  EXPECT_EQ(Rows("SELECT a FROM r ORDER BY a LIMIT 3 OFFSET 100"), Strings{});
  EXPECT_EQ(Rows("SELECT a FROM r LIMIT 3 OFFSET 100"), Strings{});
  EXPECT_EQ(Rows("SELECT a, name FROM r ORDER BY a DESC LIMIT 3 OFFSET 4"),
            (Strings{"1,a name longer than sixteen bytes", "1,bo"}));
}

TEST_F(RowBatchTest, FilterCompactsAcrossMorsels) {
  // HAVING is a Filter over the aggregate's rows; under the 2-row gate each
  // morsel holds one row, so survivors must move down across morsels.
  EXPECT_EQ(Rows("SELECT a, COUNT(*) FROM r GROUP BY a HAVING COUNT(*) < 2"),
            (Strings{"2,1", "3,1", "4,1", "5,1"}));
  EXPECT_GT(par_stats_.parallel_morsels, 0u);
  EXPECT_EQ(Rows("SELECT a, MIN(name) FROM r GROUP BY a "
                 "HAVING COUNT(*) > 1 OR a > 3"),
            (Strings{"1,a name longer than sixteen bytes", "4,a name longer "
                     "than sixteen bytes", "5,bo"}));
}

TEST_F(RowBatchTest, DistinctOverNullBearingRows) {
  EXPECT_EQ(Rows("SELECT DISTINCT b, name FROM r"),
            (Strings{"10,a name longer than sixteen bytes", "NULL,bo",
                     "10,cy"}));
  EXPECT_EQ(Rows("SELECT DISTINCT b FROM r"), (Strings{"10", "NULL"}));
}

TEST_F(RowBatchTest, CorrelatedFallbackReadsTheOuterRow) {
  // A non-equality correlation cannot be unnested: the sub-query runs once
  // per outer row and reads r.a and r.name through the outer row view.
  ExecStats stats;
  EXPECT_EQ(Rows("SELECT a, name FROM r WHERE EXISTS (SELECT * FROM s WHERE "
                 "s.a < r.a AND s.tag > r.name)",
                 &stats),
            (Strings{"4,a name longer than sixteen bytes", "5,bo"}));
  EXPECT_GT(stats.subquery_execs, 0u);
  EXPECT_EQ(Rows("SELECT a, (SELECT MAX(s.tag) FROM s WHERE s.a < r.a) "
                 "FROM r ORDER BY a, name"),
            (Strings{"1,NULL", "1,NULL", "2,b tag longer than sixteen bytes",
                     "3,b tag longer than sixteen bytes", "4,cz", "5,zz"}));
}

TEST_F(RowBatchTest, JoinResidualOverVarchar) {
  EXPECT_EQ(Rows("SELECT r.name, s.tag FROM r JOIN s ON r.a = s.a "
                 "AND r.name < s.tag"),
            (Strings{"a name longer than sixteen bytes,"
                     "b tag longer than sixteen bytes",
                     "a name longer than sixteen bytes,ab", "cy,cz",
                     "a name longer than sixteen bytes,zz"}));
  EXPECT_EQ(Rows("SELECT r.a, r.name, s.tag FROM r LEFT JOIN s ON r.a = s.a "
                 "AND s.tag > r.name AND s.tag > 'b'"),
            (Strings{"1,a name longer than sixteen bytes,"
                     "b tag longer than sixteen bytes",
                     "2,bo,NULL", "3,cy,cz", "1,bo,NULL",
                     "4,a name longer than sixteen bytes,zz", "5,bo,NULL"}));
  EXPECT_EQ(Rows("SELECT r.name FROM r WHERE EXISTS (SELECT * FROM s WHERE "
                 "s.a = r.a AND s.tag > r.name)"),
            (Strings{"a name longer than sixteen bytes", "cy",
                     "a name longer than sixteen bytes"}));
  // No equality key: the nested loop evaluates the residual per pair.
  EXPECT_EQ(Rows("SELECT r.a, s.tag FROM r, s WHERE r.name > s.tag "
                 "AND s.a < 3"),
            (Strings{"2,b tag longer than sixteen bytes", "2,ab",
                     "3,b tag longer than sixteen bytes", "3,ab",
                     "1,b tag longer than sixteen bytes", "1,ab",
                     "5,b tag longer than sixteen bytes", "5,ab"}));
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
