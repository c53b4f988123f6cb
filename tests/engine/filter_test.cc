// RowFilter property test: over seeded random rows and random AND-chains of
// every conjunct form RowFilter runs as a direct compare (in both operand
// orders), with generic conjuncts (arithmetic, CASE, SUBSTRING) at random
// positions, the filter keeps exactly the rows IsTrue(EvalExpr(...)) keeps,
// and on a predicate that errors it returns the status EvalExpr returns for
// the first failing row. The same predicates then run as SQL, as a scan
// filter and as a Filter node, serially and at 4 threads.
//
// The rows mix NULLs, INT beside DECIMAL at scales 0-3, DATE and VARCHAR,
// and hold values whose type differs from their column's (INSERT does not
// coerce), so the inline compares, the Value::Compare fallback and its
// errors are all reached. Every failure message names its seed.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/explain.h"
#include "engine/filter.h"
#include "engine/planner.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

constexpr size_t kRows = 240;
constexpr int kPredicates = 400;

const char* const kColumns[] = {"i", "n", "d", "e", "dt", "s", "m"};

class PredicateGen {
 public:
  explicit PredicateGen(uint64_t seed) : rng_(seed) {}

  /// An AND-chain of 1-5 conjuncts, sometimes nested right-deep.
  std::string Chain() {
    const int n = static_cast<int>(rng_.Uniform(1, 5));
    std::string p = Conjunct();
    for (int k = 1; k < n; ++k) {
      p = rng_.Chance(0.3) ? Conjunct() + " AND (" + p + ")"
                           : p + " AND " + Conjunct();
    }
    return p;
  }

  std::string Column() {
    // The mixed-type column m is rarer, so most chains can come out TRUE.
    if (rng_.Chance(0.05)) return "m";
    return kColumns[rng_.Uniform(0, 5)];
  }

  /// A literal shaped for column `c`, now and then of another type or NULL.
  std::string Literal(const std::string& c) {
    if (rng_.Chance(0.04)) return "NULL";
    if (rng_.Chance(0.02)) return AnyLiteral();
    return Value(c);
  }

  /// A value of column `c`'s type; any type for the mixed column m.
  std::string Value(const std::string& c) {
    if (c == "dt") {
      if (rng_.Chance(0.2)) return "DATE '1995-01-10' + INTERVAL '1' MONTH";
      return "DATE '1995-0" + std::to_string(rng_.Uniform(1, 3)) + "-" +
             Day() + "'";
    }
    if (c == "s") return Str();
    if (c == "m") return AnyLiteral();
    return rng_.Chance(0.5) ? Int() : Dec();
  }

  std::string Conjunct() {
    static const std::vector<std::string> cmps = {"=", "<>", "<", "<=", ">",
                                                  ">="};
    const std::string c = Column();
    switch (rng_.Uniform(0, 7)) {
      case 0:
        return c + " " + rng_.Pick(cmps) + " " + Literal(c);
      case 1:
        return Literal(c) + " " + rng_.Pick(cmps) + " " + c;
      case 2: {
        // slot op slot: numeric pairs mostly, any pair now and then.
        std::string other = rng_.Chance(0.8) ? Numeric() : Column();
        return (rng_.Chance(0.8) ? Numeric() : c) + " " + rng_.Pick(cmps) +
               " " + other;
      }
      case 3: {
        std::string p = c + (rng_.Chance(0.3) ? " NOT IN (" : " IN (");
        const int items = static_cast<int>(rng_.Uniform(1, 4));
        for (int k = 0; k < items; ++k) {
          p += (k > 0 ? ", " : "") + Literal(c);
        }
        return p + ")";
      }
      case 4:
        return c + (rng_.Chance(0.3) ? " NOT BETWEEN " : " BETWEEN ") +
               Literal(c) + " AND " + Literal(c);
      case 5: {
        static const std::vector<std::string> patterns = {
            "'a%'", "'%b'", "'_'", "'ab'", "'%'", "'x\\%'"};
        const std::string col = rng_.Chance(0.85) ? "s" : "m";
        return col + (rng_.Chance(0.3) ? " NOT LIKE " : " LIKE ") +
               rng_.Pick(patterns);
      }
      case 6:
        return c + (rng_.Chance(0.5) ? " IS NULL" : " IS NOT NULL");
      default:
        return Generic();
    }
  }

 private:
  std::string Numeric() { return kColumns[rng_.Uniform(0, 3)]; }
  std::string Int() { return std::to_string(rng_.Uniform(-5, 5)); }
  /// A DECIMAL literal at scale 1-3, or one that parses to scale 0.
  std::string Dec() {
    const int scale = static_cast<int>(rng_.Uniform(0, 3));
    const int64_t units = rng_.Uniform(-5000, 5000);
    std::string digits = std::to_string(units < 0 ? -units : units);
    while (digits.size() <= static_cast<size_t>(scale)) digits = "0" + digits;
    std::string text = digits.substr(0, digits.size() - scale) + "." +
                       (scale > 0 ? digits.substr(digits.size() - scale) : "0");
    return (units < 0 ? "-" : "") + text;
  }
  std::string Day() {
    const int64_t d = rng_.Uniform(1, 28);
    return (d < 10 ? "0" : "") + std::to_string(d);
  }
  std::string Str() {
    static const std::vector<std::string> pool = {"'a'", "'ab'",  "'abc'",
                                                  "'b'", "'ba'", "''"};
    return rng_.Pick(pool);
  }
  std::string AnyLiteral() {
    switch (rng_.Uniform(0, 4)) {
      case 0: return Int();
      case 1: return Dec();
      case 2: return Str();
      case 3: return "DATE '1995-02-" + Day() + "'";
      default: return "TRUE";
    }
  }
  /// A conjunct RowFilter leaves to EvalExpr; some of them fail on some
  /// rows (division by zero, INT overflow, a non-numeric operand).
  std::string Generic() {
    switch (rng_.Uniform(0, 9)) {
      case 0:
        return "(i + " + Int() + ") > " + Int();
      case 1:
        return "CASE WHEN n > " + Int() + " THEN d < " + Dec() +
               " ELSE i IS NULL END";
      case 2:
        return "SUBSTRING(s FROM 1 FOR 1) = " + Str();
      case 3:
        return "10 / i > " + Int();
      case 4:
        return "i + 9223372036854775806 > 0";
      case 5:
      case 6:
        return "SUBSTRING(s FROM 2) <> " + Str();
      default:
        return "(" + Numeric() + " * 2) <> " + Int();
    }
  }

  Rng rng_;
};

class RowFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE t (id INTEGER, i INTEGER, n INTEGER, d DECIMAL(10,2), "
        "e DECIMAL(12,3), dt DATE, s VARCHAR(8), m INTEGER)"));
    Rng rng(0xF117u);
    PredicateGen values(0xDA7Au);
    std::string script;
    for (size_t r = 0; r < kRows; ++r) {
      auto maybe_null = [&rng](std::string v) {
        return rng.Chance(0.12) ? std::string("NULL") : v;
      };
      const std::string i = std::to_string(rng.Uniform(-5, 5));
      // n is an INT column that also holds DECIMALs (INSERT keeps the
      // literal's type).
      const std::string n = values.Value(rng.Chance(0.6) ? "i" : "d");
      script += "INSERT INTO t VALUES (" + std::to_string(r) + ", " +
                maybe_null(i) + ", " + maybe_null(n) + ", " +
                maybe_null(values.Value("d")) + ", " +
                maybe_null(values.Value("e")) + ", " +
                maybe_null(values.Value("dt")) + ", " +
                maybe_null(values.Value("s")) + ", " +
                maybe_null(values.Value("m")) + ");\n";
    }
    ASSERT_OK(db_.ExecuteScript(script));
    table_ = db_.catalog()->FindTable("t");
    ASSERT_NE(table_, nullptr);
    version_ = table_->Snapshot();
    for (const auto& c : table_->schema().columns) {
      layout_.push_back({"t", c.name});
    }
  }

  /// What EvalExpr says about rows[ids[k]] (or rows[k]): the ids of the
  /// rows it holds TRUE, or the status of the first row that fails.
  Status Oracle(const BoundExpr& pred, const std::vector<uint32_t>* ids,
                std::vector<uint32_t>* kept) {
    const VersionRows& rows = version_->rows();
    ExecStats stats;
    ExecContext ctx;
    ctx.stats = &stats;
    const size_t n = ids != nullptr ? ids->size() : rows.size();
    for (size_t k = 0; k < n; ++k) {
      const uint32_t id = ids != nullptr ? (*ids)[k] : static_cast<uint32_t>(k);
      Result<Value> v = EvalExpr(pred, rows[id], &ctx);
      if (!v.ok()) return v.status();
      if (IsTrue(v.value())) kept->push_back(id);
    }
    return Status::OK();
  }

  void SetThreads(int threads, size_t min_rows) {
    PlannerOptions opts = db_.planner_options();
    opts.max_threads = threads;
    opts.min_parallel_rows = min_rows;
    db_.set_planner_options(opts);
  }

  Database db_;
  const Table* table_ = nullptr;
  std::shared_ptr<const TableVersion> version_;
  std::vector<ColumnMeta> layout_;
};

/// "OK: ids" or the status, for comparing outcomes in one assertion.
std::string Outcome(const Status& st, const std::vector<uint32_t>& ids) {
  if (!st.ok()) return st.ToString();
  std::string out = "OK:";
  for (uint32_t id : ids) out += " " + std::to_string(id);
  return out;
}

std::string Outcome(const Result<ResultSet>& rs) {
  std::vector<uint32_t> ids;
  if (rs.ok()) {
    for (const Row& r : rs.value().rows) {
      ids.push_back(static_cast<uint32_t>(r[0].int_value()));
    }
  }
  return Outcome(rs.ok() ? Status::OK() : rs.status(), ids);
}

class RowFilterSeedTest : public RowFilterTest,
                          public ::testing::WithParamInterface<uint64_t> {};

TEST_P(RowFilterSeedTest, KeepsExactlyWhatEvalExprKeeps) {
  const uint64_t seed = GetParam();
  PredicateGen gen(seed);
  Planner planner(db_.catalog(), db_.udfs());
  // Every other row: the candidate-list path of pruned and index scans.
  std::vector<uint32_t> odd;
  for (uint32_t id = 1; id < kRows; id += 2) odd.push_back(id);
  int errors = 0, nonempty = 0;
  size_t conjuncts = 0, covered = 0;
  for (int q = 0; q < kPredicates; ++q) {
    const std::string pred = gen.Chain();
    SCOPED_TRACE("seed=" + std::to_string(seed) + " #" + std::to_string(q) +
                 ": " + pred);
    ASSERT_OK_AND_ASSIGN(sql::ExprPtr ast, sql::ParseExpression(pred));
    ASSERT_OK_AND_ASSIGN(BoundExprPtr bound, planner.BindExpr(*ast, layout_));
    const RowFilter filter(*bound);
    conjuncts += filter.size();
    covered += filter.covered();

    std::vector<uint32_t> expect;
    const Status expect_st = Oracle(*bound, nullptr, &expect);
    const std::string want = Outcome(expect_st, expect);
    errors += !expect_st.ok();
    nonempty += expect_st.ok() && !expect.empty();

    ExecStats stats;
    ExecContext ctx;
    ctx.stats = &stats;
    std::vector<uint32_t> got;
    const Status st =
        filter.Select(version_->rows(), nullptr, 0, kRows, &ctx, &got);
    ASSERT_EQ(want, Outcome(st, got));

    std::vector<uint32_t> expect_odd, got_odd;
    const Status odd_st = Oracle(*bound, &odd, &expect_odd);
    ASSERT_EQ(Outcome(odd_st, expect_odd),
              Outcome(filter.Select(version_->rows(), &odd, 0, odd.size(),
                                    &ctx, &got_odd),
                      got_odd));

    // Through the executor: a scan filter and a Filter node (over a derived
    // table), serially and in morsels of one row on 4 threads.
    const std::string scan = "SELECT id FROM t WHERE " + pred;
    const std::string filter_node =
        "SELECT id FROM (SELECT * FROM t) AS x WHERE " + pred;
    for (int threads : {1, 4}) {
      SetThreads(threads, threads == 1 ? 4096 : 2);
      EXPECT_EQ(want, Outcome(db_.Execute(scan))) << threads << " threads";
      EXPECT_EQ(want, Outcome(db_.Execute(filter_node)))
          << threads << " threads";
    }
  }
  // The generator must reach every outcome it guards.
  EXPECT_GT(errors, kPredicates / 20) << "seed=" << seed;
  EXPECT_GT(nonempty, kPredicates / 4) << "seed=" << seed;
  EXPECT_GT(covered, conjuncts / 2) << "seed=" << seed;
  EXPECT_LT(covered, conjuncts) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowFilterSeedTest,
                         ::testing::Values(22u, 23u, 24u));

TEST_F(RowFilterTest, ScanPlansRunTheFilter) {
  // The derived-table form really plans a Filter node, and the plain form a
  // filtered scan, so the SQL half of the property test covers both loops.
  auto explain = [this](const std::string& sql) -> std::string {
    auto sel = sql::ParseSelect(sql);
    if (!sel.ok()) return sel.status().ToString();
    auto text = ExplainSelect(db_.catalog(), db_.udfs(), *sel.value(),
                              db_.planner_options());
    return text.ok() ? text.value() : text.status().ToString();
  };
  EXPECT_PLAN_SHAPE(
      explain("SELECT id FROM (SELECT * FROM t) AS x WHERE i > 0"),
      {"*Filter*", "*Scan t"});
  EXPECT_PLAN_SHAPE(explain("SELECT id FROM t WHERE i > 0"),
                    {"*Scan t (filtered)*"});
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
