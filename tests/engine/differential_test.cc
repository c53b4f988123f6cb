// Serial-vs-parallel differential harness.
//
// A seeded random query generator produces typed SELECTs — projections,
// arithmetic, filters (AND/OR, IS NULL, IN lists, BETWEEN, LIKE), equi
// joins, GROUP BY aggregates, multi-key ORDER BY with mixed ASC/DESC over
// NULL-bearing columns, LIMIT/OFFSET, DISTINCT — and executes every query
// twice against the same database: once with max_threads = 1 and once with
// max_threads = 4 under a lowered min_parallel_rows gate. Results must be
// byte-identical (row order included) and the row-level counters must
// match: parallelism is a perf knob, never a semantics knob.
//
// Serial and parallel runs share the hash-join kernel, so for a capped
// number of generated joins per batch a third run is the oracle for that
// kernel: the same query with its `r.a = s.a` key written as
// `r.a <= s.a AND r.a >= s.a` has no equi-key and plans a nested loop,
// whose output order is the hash join's (each outer row's matches in inner
// row order), so its rows must match byte for byte too.
//
// Scan filters and Filter nodes run their AND-conjuncts as direct compares
// (engine::RowFilter), so every query with a generated predicate also runs
// serially with that predicate written as NOT NOT (...): RowFilter runs no
// NOT form itself, so the whole predicate goes through the generic
// evaluator, EvalExpr, which is the oracle there. The rows must match byte
// for byte and rows_scanned must be equal.
//
// An Aggregate directly over a scan folds the scan's rows where they lie in
// the table (no scan batch), so every generated single-table aggregate that
// does also runs with its table read through a derived table, `FROM (SELECT
// * FROM r) r`, whose Project hands the Aggregate a materialized batch: the
// same kernel over the other kind of input. Serially and in parallel, the
// rows must match byte for byte and rows_scanned must be equal.
//
// Reproduction: every failure message carries the generator seed and the
// offending SQL. Re-run with MTBASE_DIFF_SEED=<seed> (and optionally
// MTBASE_DIFF_QUERIES=<n>) to replay the exact sequence. The SeedSweep test
// (ctest label `long`) walks fresh seeds for a time budget
// (MTBASE_DIFF_SWEEP_SECONDS) so CI keeps exploring new query shapes
// without unbounded runtime.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/explain.h"
#include "engine/planner.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::string Canon(const ResultSet& rs) { return CanonRows(rs.rows); }

// ---------------------------------------------------------------------------
// Random query generation
// ---------------------------------------------------------------------------

/// Typed column pool of the generated schema. Single-letter column names;
/// generated select-item aliases are o0, o1, ... so ORDER BY references
/// never collide with them.
struct Column {
  const char* table;
  const char* name;
  enum class Type { kInt, kStr, kDec } type;
};

const std::vector<Column>& RCols() {
  static const std::vector<Column> cols = {
      {"r", "a", Column::Type::kInt},
      {"r", "b", Column::Type::kInt},
      {"r", "c", Column::Type::kStr},
      {"r", "d", Column::Type::kDec},
  };
  return cols;
}

const std::vector<Column>& SCols() {
  static const std::vector<Column> cols = {
      {"s", "a", Column::Type::kInt},
      {"s", "f", Column::Type::kInt},
      {"s", "g", Column::Type::kStr},
  };
  return cols;
}

class QueryGen {
 public:
  QueryGen(uint64_t seed, bool join) : rng_(seed), join_(join) {
    cols_ = RCols();
    if (join_) {
      for (const Column& c : SCols()) cols_.push_back(c);
    }
  }

  /// The generated predicate of the last query (its WHERE without the join
  /// key), or "" when it has none.
  const std::string& last_predicate() const { return pred_; }
  /// Whether the last query aggregates.
  bool last_aggregate() const { return aggregate_; }

  std::string Generate() {
    pred_.clear();
    const bool aggregate = rng_.Chance(0.35);
    aggregate_ = aggregate;
    std::string select_list;
    std::vector<std::string> aliases;
    int n_items = 0;
    auto add_item = [&](const std::string& expr) {
      std::string alias = "o" + std::to_string(n_items++);
      if (!select_list.empty()) select_list += ", ";
      select_list += expr + " AS " + alias;
      aliases.push_back(std::move(alias));
    };

    std::vector<std::string> group_cols;
    if (aggregate) {
      const int n_groups = static_cast<int>(rng_.Uniform(1, 2));
      for (int i = 0; i < n_groups; ++i) {
        group_cols.push_back(Ref(rng_.Pick(cols_)));
      }
      for (const std::string& g : group_cols) add_item(g);
      const int n_aggs = static_cast<int>(rng_.Uniform(1, 3));
      for (int i = 0; i < n_aggs; ++i) add_item(AggExpr());
    } else {
      const int n = static_cast<int>(rng_.Uniform(1, 4));
      for (int i = 0; i < n; ++i) {
        add_item(rng_.Chance(0.3) ? IntExpr(2) : Ref(rng_.Pick(cols_)));
      }
    }

    std::string sql = "SELECT ";
    if (!aggregate && rng_.Chance(0.1)) sql += "DISTINCT ";
    sql += select_list;
    sql += join_ ? " FROM r, s" : " FROM r";

    std::string where;
    if (join_) where = "r.a = s.a";  // hash-join key
    if (rng_.Chance(0.75)) {
      pred_ = Predicate();
      where = where.empty() ? pred_ : where + " AND " + pred_;
    }
    if (!where.empty()) sql += " WHERE " + where;

    if (!group_cols.empty()) {
      sql += " GROUP BY ";
      for (size_t i = 0; i < group_cols.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += group_cols[i];
      }
    }

    if (rng_.Chance(0.7)) {
      // ORDER BY a random subset of output aliases, mixed directions. Ties
      // (and whole-query duplicates) are common by construction: stability
      // is what the differential run is really probing.
      sql += " ORDER BY ";
      const int keys =
          static_cast<int>(rng_.Uniform(1, static_cast<int64_t>(aliases.size())));
      for (int i = 0; i < keys; ++i) {
        if (i > 0) sql += ", ";
        sql += rng_.Pick(aliases);
        if (rng_.Chance(0.5)) sql += " DESC";
      }
      if (rng_.Chance(0.5)) {
        sql += " LIMIT " + std::to_string(rng_.Uniform(0, 40));
        if (rng_.Chance(0.4)) {
          sql += " OFFSET " + std::to_string(rng_.Uniform(0, 25));
        }
      }
    } else if (rng_.Chance(0.15)) {
      sql += " LIMIT " + std::to_string(rng_.Uniform(0, 40));
    }
    return sql;
  }

 private:
  std::string Ref(const Column& c) {
    return join_ ? std::string(c.table) + "." + c.name : std::string(c.name);
  }

  const Column& PickTyped(Column::Type t) {
    for (;;) {
      const Column& c = rng_.Pick(cols_);
      if (c.type == t) return c;
    }
  }

  std::string IntLit() { return std::to_string(rng_.Uniform(0, 30)); }

  std::string StrLit() {
    static const std::vector<std::string> pool = {"'aa'", "'ab'", "'ba'",
                                                  "'bb'", "'cc'", "'zz'"};
    return rng_.Pick(pool);
  }

  std::string DecLit() {
    return std::to_string(rng_.Uniform(0, 40)) + "." +
           std::to_string(rng_.Uniform(10, 99));
  }

  /// Integer-typed expression (division deliberately excluded: a zero
  /// denominator would turn the differential run into an error-parity test
  /// for most seeds).
  std::string IntExpr(int depth) {
    if (depth <= 0 || rng_.Chance(0.5)) {
      return rng_.Chance(0.75) ? Ref(PickTyped(Column::Type::kInt)) : IntLit();
    }
    const char* op = rng_.Chance(0.6) ? " + " : (rng_.Chance(0.5) ? " - " : " * ");
    return "(" + IntExpr(depth - 1) + op + IntExpr(depth - 1) + ")";
  }

  std::string AggExpr() {
    switch (rng_.Uniform(0, 4)) {
      case 0: return "COUNT(*)";
      case 1: return "SUM(" + IntExpr(1) + ")";
      case 2: return "MIN(" + Ref(rng_.Pick(cols_)) + ")";
      case 3: return "MAX(" + Ref(rng_.Pick(cols_)) + ")";
      default: return "AVG(" + Ref(PickTyped(Column::Type::kInt)) + ")";
    }
  }

  std::string SimplePred() {
    static const std::vector<std::string> cmps = {" = ", " <> ", " < ",
                                                  " <= ", " > ", " >= "};
    switch (rng_.Uniform(0, 5)) {
      case 0:
        return IntExpr(1) + rng_.Pick(cmps) + IntLit();
      case 1: {
        if (rng_.Chance(0.3)) {
          static const std::vector<std::string> patterns = {"'a%'", "'%b'",
                                                            "'_a%'", "'z%'"};
          return Ref(PickTyped(Column::Type::kStr)) +
                 (rng_.Chance(0.7) ? " LIKE " : " NOT LIKE ") +
                 rng_.Pick(patterns);
        }
        return Ref(PickTyped(Column::Type::kStr)) + rng_.Pick(cmps) + StrLit();
      }
      case 2:
        return Ref(PickTyped(Column::Type::kDec)) + rng_.Pick(cmps) + DecLit();
      case 3: {
        std::string p = Ref(rng_.Pick(cols_)) + " IS ";
        if (rng_.Chance(0.5)) p += "NOT ";
        return p + "NULL";
      }
      case 4:
        return Ref(PickTyped(Column::Type::kInt)) + " IN (" + IntLit() + ", " +
               IntLit() + ", " + IntLit() + ")";
      default: {
        int64_t lo = rng_.Uniform(0, 20);
        return Ref(PickTyped(Column::Type::kInt)) + " BETWEEN " +
               std::to_string(lo) + " AND " + std::to_string(lo + rng_.Uniform(0, 15));
      }
    }
  }

  std::string Predicate() {
    std::string p = SimplePred();
    const int extra = static_cast<int>(rng_.Uniform(0, 2));
    for (int i = 0; i < extra; ++i) {
      p = "(" + p + (rng_.Chance(0.6) ? " AND " : " OR ") + SimplePred() + ")";
    }
    return p;
  }

  Rng rng_;
  bool join_;
  std::vector<Column> cols_;
  std::string pred_;
  bool aggregate_ = false;
};

// ---------------------------------------------------------------------------
// Fixture: one NULL-bearing two-table database shared by all checks
// ---------------------------------------------------------------------------

class DifferentialTest : public ::testing::Test {
 protected:
  static constexpr size_t kRRows = 1100;
  static constexpr size_t kSRows = 500;

  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(R"(
      CREATE TABLE r (a INTEGER, b INTEGER, c VARCHAR(4), d DECIMAL(10,2));
      CREATE TABLE s (a INTEGER, f INTEGER, g VARCHAR(4));
    )"));
    // Deterministic data, independent of the query seed: narrow value
    // domains create heavy duplication (sort ties, repeated join keys,
    // small aggregate groups) and every nullable column carries NULLs.
    Rng rng(0xD1FFu);
    static const char* strs[] = {"aa", "ab", "ba", "bb", "cc", "zz"};
    insert_script_.clear();
    for (size_t i = 0; i < kRRows; ++i) {
      insert_script_ += "INSERT INTO r VALUES (" + GenInt(&rng, 18) + ", " +
                        GenInt(&rng, 30) + ", " + GenStr(&rng, strs) + ", " +
                        GenDec(&rng) + ");\n";
    }
    for (size_t i = 0; i < kSRows; ++i) {
      insert_script_ += "INSERT INTO s VALUES (" + GenInt(&rng, 18) + ", " +
                        GenInt(&rng, 12) + ", " + GenStr(&rng, strs) + ");\n";
    }
    ASSERT_OK(db_.ExecuteScript(insert_script_));
  }

  static std::string GenInt(Rng* rng, int64_t domain) {
    if (rng->Chance(0.12)) return "NULL";
    return std::to_string(rng->Uniform(0, domain));
  }
  static std::string GenStr(Rng* rng, const char* const (&pool)[6]) {
    if (rng->Chance(0.12)) return "NULL";
    return "'" + std::string(pool[rng->Uniform(0, 5)]) + "'";
  }
  static std::string GenDec(Rng* rng) {
    if (rng->Chance(0.12)) return "NULL";
    return std::to_string(rng->Uniform(0, 25)) + "." +
           std::to_string(rng->Uniform(10, 99));
  }

  void SetParallelism(int max_threads, size_t min_rows) {
    PlannerOptions opts = db_.planner_options();
    opts.max_threads = max_threads;
    opts.min_parallel_rows = min_rows;
    db_.set_planner_options(opts);
  }

  /// Nested-loop oracle runs per batch: each evaluates up to |r| x |s| =
  /// 550K pairs, so they are capped to keep the batch fast.
  static constexpr uint64_t kNestedLoopOracles = 10;

  /// Run a generated join with its hash key rewritten as a range pair (a
  /// nested loop) and require the rows `expect` holds. Its rows_joined
  /// counts every pair, so only the rows are compared.
  void CheckNestedLoopOracle(const std::string& sql,
                             const std::string& expect) {
    const std::string key = " WHERE r.a = s.a";
    const size_t at = sql.find(key);
    ASSERT_NE(at, std::string::npos);
    const std::string nested = sql.substr(0, at) +
                               " WHERE r.a <= s.a AND r.a >= s.a" +
                               sql.substr(at + key.size());
    SCOPED_TRACE("nested-loop oracle: " + nested);
    ASSERT_OK_AND_ASSIGN(sql::Stmt stmt, sql::ParseStatement(nested));
    ASSERT_OK_AND_ASSIGN(std::string plan,
                         ExplainSelect(db_.catalog(), db_.udfs(),
                                       *stmt.select, db_.planner_options()));
    ASSERT_NE(plan.find("[nested-loop]"), std::string::npos) << plan;
    auto rs = db_.Execute(nested);
    ASSERT_OK(rs);
    ASSERT_EQ(expect, Canon(rs.value()));
  }

  /// Run `sql` serially with its generated predicate `pred` written as
  /// NOT NOT (pred), so EvalExpr evaluates all of it, and require the rows
  /// `expect` holds and the serial run's rows_scanned. A join's key stays as
  /// it is: it is the hash join's key, not a filter.
  void CheckGenericOracle(const std::string& sql, const std::string& pred,
                          const std::string& expect, uint64_t rows_scanned) {
    const size_t at = sql.find(pred, sql.find(" WHERE "));
    ASSERT_NE(at, std::string::npos);
    const std::string generic = sql.substr(0, at) + "NOT NOT (" + pred + ")" +
                                sql.substr(at + pred.size());
    SCOPED_TRACE("generic-path oracle: " + generic);
    SetParallelism(1, 4096);
    StatsScope scope(db_.stats());
    auto rs = db_.Execute(generic);
    ASSERT_OK(rs);
    ASSERT_EQ(expect, Canon(rs.value()));
    ASSERT_EQ(rows_scanned, scope.Delta().rows_scanned);
  }

  /// Whether the first Aggregate of `sql`'s plan folds its scan in place.
  bool FirstAggregateInPlace(const std::string& sql) {
    auto stmt = sql::ParseStatement(sql);
    EXPECT_OK(stmt.status());
    if (!stmt.ok()) return false;
    Planner planner(db_.catalog(), db_.udfs(), db_.planner_options());
    auto plan = planner.PlanSelect(*stmt.value().select);
    EXPECT_OK(plan.status());
    const Plan* p = plan.ok() ? plan.value().get() : nullptr;
    while (p != nullptr && p->kind != Plan::Kind::kAggregate) {
      p = p->left.get();
    }
    return p != nullptr && AggregatesScanInPlace(*p);
  }

  /// Run a generated single-table aggregate that folds its scan in place
  /// with its table read through a derived table, so its Aggregate folds a
  /// Project's batch instead, serially and in parallel; require the rows
  /// `expect` holds and the serial run's rows_scanned.
  void CheckBatchInputOracle(const std::string& sql, const std::string& expect,
                             uint64_t rows_scanned) {
    const std::string from = " FROM r";
    const size_t at = sql.find(from);
    ASSERT_NE(at, std::string::npos);
    const std::string wrapped = sql.substr(0, at) +
                                " FROM (SELECT * FROM r) r" +
                                sql.substr(at + from.size());
    SCOPED_TRACE("batch-input oracle: " + wrapped);
    SetParallelism(1, 4096);
    ASSERT_FALSE(FirstAggregateInPlace(wrapped));
    for (const auto& [threads, min_rows] :
         {std::pair<int, size_t>{1, 4096}, std::pair<int, size_t>{4, 48}}) {
      SetParallelism(threads, min_rows);
      StatsScope scope(db_.stats());
      auto rs = db_.Execute(wrapped);
      ASSERT_OK(rs);
      ASSERT_EQ(expect, Canon(rs.value()));
      ASSERT_EQ(rows_scanned, scope.Delta().rows_scanned);
    }
  }

  /// Rerun `sql` on `db` with each PlannerOptions toggle off in turn —
  /// decorrelation, physical access paths, top-N pushdown — and at one
  /// thread, requiring the rows `expect` holds every time.
  static void CheckPlannerToggles(Database* db, const std::string& sql,
                                  const std::string& expect) {
    const PlannerOptions base = db->planner_options();
    for (int toggle = 0; toggle < 4; ++toggle) {
      PlannerOptions opts = base;
      const char* name = "max_threads = 1";
      switch (toggle) {
        case 0:
          opts.decorrelate_subqueries = false;
          name = "decorrelate_subqueries off";
          break;
        case 1:
          opts.physical_access_paths = false;
          name = "physical_access_paths off";
          break;
        case 2:
          opts.topn_pushdown = false;
          name = "topn_pushdown off";
          break;
        default:
          opts.max_threads = 1;
          break;
      }
      SCOPED_TRACE(name);
      db->set_planner_options(opts);
      auto rs = db->Execute(sql);
      db->set_planner_options(base);
      ASSERT_OK(rs);
      ASSERT_EQ(expect, Canon(rs.value()));
    }
  }

  /// Run `count` generated queries for `seed`; every query executes serial
  /// then parallel and must agree byte-for-byte with matching row counters,
  /// and the first kNestedLoopOracles joins match their nested-loop oracle.
  void RunBatch(uint64_t seed, uint64_t count) {
    QueryGen single(seed, /*join=*/false);
    QueryGen joined(seed ^ 0x9E3779B97F4A7C15ull, /*join=*/true);
    Rng pick(seed + 1);
    uint64_t parallel_queries = 0;
    uint64_t oracles = 0;
    uint64_t generic_oracles = 0;
    uint64_t batch_oracles = 0;
    StatsScope batch(db_.stats());
    for (uint64_t i = 0; i < count; ++i) {
      const bool join = pick.Chance(0.4);
      QueryGen& gen = join ? joined : single;
      const std::string sql = gen.Generate();
      SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" +
                   std::to_string(i) + ": " + sql);
      SetParallelism(1, 4096);
      StatsScope serial_scope(db_.stats());
      auto serial = db_.Execute(sql);
      ASSERT_OK(serial);
      ExecStats serial_stats = serial_scope.Delta();
      if (!gen.last_predicate().empty()) {
        ++generic_oracles;
        CheckGenericOracle(sql, gen.last_predicate(), Canon(serial.value()),
                           serial_stats.rows_scanned);
        if (HasFatalFailure()) return;
      }
      if (join && oracles < kNestedLoopOracles) {
        ++oracles;
        CheckNestedLoopOracle(sql, Canon(serial.value()));
        if (HasFatalFailure()) return;
      }
      // Every single-table aggregate folds its scan in place: a constant
      // conjunct leads the scan filter instead of a Filter above it.
      if (!join && gen.last_aggregate()) {
        ASSERT_TRUE(FirstAggregateInPlace(sql));
        ++batch_oracles;
        CheckBatchInputOracle(sql, Canon(serial.value()),
                              serial_stats.rows_scanned);
        if (HasFatalFailure()) return;
      }
      SetParallelism(4, 48);
      StatsScope par_scope(db_.stats());
      auto par = db_.Execute(sql);
      ASSERT_OK(par);
      ExecStats par_stats = par_scope.Delta();
      ASSERT_EQ(Canon(serial.value()), Canon(par.value()));
      // Row-level counter parity: the parallel run scans and joins exactly
      // the rows the serial run did (no UDFs here, so totals are
      // schedule-independent).
      ASSERT_EQ(serial_stats.rows_scanned, par_stats.rows_scanned);
      ASSERT_EQ(serial_stats.rows_joined, par_stats.rows_joined);
      ASSERT_EQ(serial_stats.topn_pushdowns, par_stats.topn_pushdowns);
      ASSERT_EQ(serial_stats.parallel_morsels, 0u);
      if (par_stats.parallel_morsels > 0) parallel_queries++;
      CheckPlannerToggles(&db_, sql, Canon(serial.value()));
      if (HasFatalFailure()) return;
    }
    SetParallelism(1, 4096);
    // The batch must actually exercise the machinery it guards: most
    // queries parallelize under the lowered gate, and the generator mix
    // produces both parallel sorts and top-N pushdowns.
    ExecStats totals = batch.Delta();
    EXPECT_GT(parallel_queries, count / 2) << "seed=" << seed;
    EXPECT_GT(totals.parallel_sorts, 0u) << "seed=" << seed;
    EXPECT_GT(totals.topn_pushdowns, 0u) << "seed=" << seed;
    EXPECT_GT(oracles, 0u) << "seed=" << seed;
    EXPECT_GT(generic_oracles, count / 2) << "seed=" << seed;
    EXPECT_GT(batch_oracles, 0u) << "seed=" << seed;
  }

  /// Same-schema sibling database whose tables carry a randomized physical
  /// design (seeded hash/list partitioning on the join key plus leading
  /// indexes) over identical data. Physical design must never change bytes.
  void BuildPhysicalTwin(Database* twin, uint64_t seed) {
    Rng rng(seed * 2 + 1);
    std::string r_ddl =
        "CREATE TABLE r (a INTEGER, b INTEGER, c VARCHAR(4), d DECIMAL(10,2))";
    if (rng.Chance(0.5)) {
      r_ddl += " PARTITION BY HASH (a) PARTITIONS " +
               std::to_string(rng.Uniform(2, 8));
    } else {
      // Value domain of column a is [0, 18) plus NULLs; leave a few values
      // to the implicit overflow partition on purpose.
      r_ddl += " PARTITION BY LIST (a) (VALUES (0, 1, 2, 3), "
               "VALUES (4, 7, 9), VALUES (12, 15))";
    }
    ASSERT_OK(twin->Execute(r_ddl).status());
    std::string s_ddl = "CREATE TABLE s (a INTEGER, f INTEGER, g VARCHAR(4))";
    if (rng.Chance(0.5)) {
      s_ddl += " PARTITION BY HASH (a) PARTITIONS " +
               std::to_string(rng.Uniform(2, 6));
    }
    ASSERT_OK(twin->Execute(s_ddl).status());
    // r is always partitioned on a, so a-conjuncts prune there; the b- and
    // f-leading indexes are what the index-scan path actually exercises.
    ASSERT_OK(twin->Execute("CREATE INDEX r_b ON r (b, a)").status());
    ASSERT_OK(twin->Execute("CREATE INDEX s_a ON s (a)").status());
    if (rng.Chance(0.7)) {
      ASSERT_OK(twin->Execute("CREATE INDEX s_f ON s (f)").status());
    }
    ASSERT_OK(twin->ExecuteScript(insert_script_));
  }

  Database db_;
  std::string insert_script_;
};

TEST_F(DifferentialTest, RandomQueriesSerialVsParallel) {
  const uint64_t seed = EnvU64("MTBASE_DIFF_SEED", 0xC0FFEEull);
  const uint64_t count = EnvU64("MTBASE_DIFF_QUERIES", 200);
  RunBatch(seed, count);
}

// Physical-design differential: the same generated queries against a twin
// database with randomized ttid-style partitioning and leading indexes, at 1
// and at 4 threads. All three runs (flat serial, physical serial, physical
// parallel) must agree byte-for-byte — partition pruning and index scans are
// perf knobs, never semantics knobs — and the batch must actually hit both
// access paths.
TEST_F(DifferentialTest, PartitionedAndIndexedTwinMatchesFlat) {
  const uint64_t seed = EnvU64("MTBASE_DIFF_SEED", 0xBEEFull);
  const uint64_t count = EnvU64("MTBASE_DIFF_QUERIES", 120);
  Database twin;
  BuildPhysicalTwin(&twin, seed);
  if (HasFatalFailure()) return;
  QueryGen single(seed, /*join=*/false);
  QueryGen joined(seed ^ 0x9E3779B97F4A7C15ull, /*join=*/true);
  Rng pick(seed + 1);
  StatsScope twin_stats(twin.stats());
  for (uint64_t i = 0; i < count; ++i) {
    const bool join = pick.Chance(0.4);
    const std::string sql = (join ? joined : single).Generate();
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query#" +
                 std::to_string(i) + ": " + sql);
    SetParallelism(1, 4096);
    auto flat = db_.Execute(sql);
    ASSERT_OK(flat);
    auto set_twin = [&twin](int threads, size_t min_rows) {
      PlannerOptions opts = twin.planner_options();
      opts.max_threads = threads;
      opts.min_parallel_rows = min_rows;
      twin.set_planner_options(opts);
    };
    set_twin(1, 4096);
    auto phys_serial = twin.Execute(sql);
    ASSERT_OK(phys_serial);
    set_twin(4, 48);
    auto phys_par = twin.Execute(sql);
    ASSERT_OK(phys_par);
    const std::string expect = Canon(flat.value());
    ASSERT_EQ(expect, Canon(phys_serial.value()));
    ASSERT_EQ(expect, Canon(phys_par.value()));
    CheckPlannerToggles(&twin, sql, expect);
    if (HasFatalFailure()) return;
  }
  // The generator's `a = lit` / `a IN (...)` predicates must have driven
  // both physical access paths at least once, or this test guards nothing.
  EXPECT_GT(twin_stats.Delta().partitions_pruned, 0u) << "seed=" << seed;
  EXPECT_GT(twin_stats.Delta().index_scans, 0u) << "seed=" << seed;
}

/// One generated statement over r, and the WHERE of an UPDATE or DELETE
/// ("" for an INSERT).
struct GeneratedDml {
  std::string sql;
  std::string where;
};

/// One generated UPDATE or DELETE over r: WHERE shapes that prune (a = k,
/// a IN (...)), use the b-leading index (b = k), fold to constants, need
/// the generic path, or hold a sub-query over s — a correlated EXISTS or
/// NOT EXISTS on s.a = r.a (a Filter above the target scan, evaluated per
/// kept row) or an uncorrelated IN (SELECT ...) (part of the scan filter) —
/// alone or ANDed; SETs that change the partition column, an index key or
/// neither. Now and then an INSERT appends rows.
GeneratedDml GenerateDml(Rng* rng) {
  auto lit = [rng](int64_t domain) {
    return std::to_string(rng->Uniform(0, domain));
  };
  auto conjunct = [&]() -> std::string {
    switch (rng->Uniform(0, 10)) {
      case 0:
        return "a = " + lit(18);
      case 1:
        return "a IN (" + lit(18) + ", " + lit(18) + ", " + lit(18) + ")";
      case 2:
        return "b = " + lit(30);
      case 3:
        return "b IN (" + lit(30) + ", " + lit(30) + ")";
      case 4:
        return rng->Chance(0.5) ? "1 = 1" : (rng->Chance(0.5) ? "1 = 0" : "NULL");
      case 5:
        return "c LIKE '%" + std::string(rng->Chance(0.5) ? "a" : "b") + "'";
      case 6:
        return "d > " + lit(25) + ".50";
      case 7:
        return "(a < " + lit(18) + " OR c IS NULL)";
      case 8:
        return std::string(rng->Chance(0.5) ? "" : "NOT ") +
               "EXISTS (SELECT * FROM s WHERE s.a = r.a AND s.f < " + lit(12) +
               ")";
      case 9:
        return "a IN (SELECT a FROM s WHERE f = " + lit(12) + ")";
      default:
        return "b IN (SELECT f FROM s WHERE g = 'a" +
               std::string(rng->Chance(0.5) ? "a" : "b") + "')";
    }
  };
  std::string where = conjunct();
  for (int n = static_cast<int>(rng->Uniform(0, 2)); n > 0; --n) {
    where += " AND " + conjunct();
  }
  switch (rng->Uniform(0, 9)) {
    case 0:
      return {"DELETE FROM r WHERE " + where, where};
    case 1:
      return {"INSERT INTO r VALUES (" + lit(18) + ", " + lit(30) +
                  ", 'ab', 1.25), (" + lit(18) + ", NULL, NULL, " + lit(25) +
                  ".75)",
              ""};
    case 2:
      return {"UPDATE r SET a = a + 1 WHERE " + where, where};
    case 3:
      return {"UPDATE r SET b = b + 1, c = 'zz' WHERE " + where, where};
    default:
      return {"UPDATE r SET d = d + 1.00 WHERE " + where, where};
  }
}

// Generated writes against five databases over the same rows: flat and the
// partitioned/indexed twin, each with physical access paths on and off (the
// twin with them on at 4 threads), and the twin with decorrelation off.
// After every statement the affected count and r's full contents, in row
// order, must agree: a pruned or index-served target, and the chunked
// copy-on-write publish behind it, never change what a write does. The
// affected count must also equal what SELECT COUNT(*) with the same WHERE
// counted just before, on the flat database, where correlated sub-queries
// are unnested into semi-joins instead of running per row.
TEST_F(DifferentialTest, GeneratedDmlMatchesAcrossPhysicalDesigns) {
  const uint64_t seed = EnvU64("MTBASE_DIFF_SEED", 0xD0D0ull);
  const uint64_t count = EnvU64("MTBASE_DIFF_QUERIES", 150);
  Database flat_off;
  ASSERT_OK(flat_off.ExecuteScript(
      "CREATE TABLE r (a INTEGER, b INTEGER, c VARCHAR(4), d DECIMAL(10,2));"
      "CREATE TABLE s (a INTEGER, f INTEGER, g VARCHAR(4))"));
  ASSERT_OK(flat_off.ExecuteScript(insert_script_));
  Database twin_on, twin_off, twin_nested;
  BuildPhysicalTwin(&twin_on, seed);
  BuildPhysicalTwin(&twin_off, seed);
  BuildPhysicalTwin(&twin_nested, seed);
  if (HasFatalFailure()) return;
  for (Database* db : {&flat_off, &twin_off}) {
    PlannerOptions opts = db->planner_options();
    opts.physical_access_paths = false;
    db->set_planner_options(opts);
  }
  {
    PlannerOptions opts = twin_nested.planner_options();
    opts.decorrelate_subqueries = false;
    twin_nested.set_planner_options(opts);
  }
  {
    // Target scans of r run as morsels, under the table's write lock.
    PlannerOptions opts = twin_on.planner_options();
    opts.max_threads = 4;
    opts.min_parallel_rows = 48;
    twin_on.set_planner_options(opts);
  }
  Database* dbs[] = {&db_, &flat_off, &twin_on, &twin_off, &twin_nested};
  Rng rng(seed);
  StatsScope twin_stats(twin_on.stats());
  uint64_t subquery_writes = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const GeneratedDml dml = GenerateDml(&rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " statement#" +
                 std::to_string(i) + ": " + dml.sql);
    std::string counted;
    if (!dml.where.empty()) {
      auto n = db_.Execute("SELECT COUNT(*) FROM r WHERE " + dml.where);
      ASSERT_OK(n);
      counted = Canon(n.value());
      if (dml.where.find("SELECT") != std::string::npos) ++subquery_writes;
    }
    std::string expect;
    for (Database* db : dbs) {
      auto n = db->Execute(dml.sql);
      ASSERT_OK(n);
      if (!counted.empty()) {
        ASSERT_EQ(counted, Canon(n.value()));
      }
      auto rows = db->Execute("SELECT * FROM r");
      ASSERT_OK(rows);
      const std::string got = Canon(n.value()) + Canon(rows.value());
      if (db == dbs[0]) {
        expect = got;
      } else {
        ASSERT_EQ(expect, got);
      }
    }
  }
  // The writes went through both access paths, held sub-queries and copied
  // chunks.
  EXPECT_GT(subquery_writes, count / 10) << "seed=" << seed;
  EXPECT_GT(twin_stats.Delta().partitions_pruned, 0u) << "seed=" << seed;
  EXPECT_GT(twin_stats.Delta().index_scans, 0u) << "seed=" << seed;
  EXPECT_GT(twin_stats.Delta().dml_rows_copied, 0u) << "seed=" << seed;
}

// Concurrent differential batch: one seeded sequence of generated read-only
// queries, executed once serially (the oracle) and then by K concurrent
// streams over the same database with intra-query parallelism enabled. Every
// stream must reproduce the oracle byte-for-byte on every query — inter-
// statement concurrency, like intra-statement parallelism, is a perf knob,
// never a semantics knob. Replay any failure with MTBASE_DIFF_SEED (and
// MTBASE_DIFF_QUERIES); the failure message carries seed, stream and query.
TEST_F(DifferentialTest, ConcurrentStreamsMatchSerialOracle) {
  const uint64_t seed = EnvU64("MTBASE_DIFF_SEED", 0xFACEull);
  const uint64_t count = EnvU64("MTBASE_DIFF_QUERIES", 60);
  constexpr int kStreams = 8;
  QueryGen single(seed, /*join=*/false);
  QueryGen joined(seed ^ 0x9E3779B97F4A7C15ull, /*join=*/true);
  Rng pick(seed + 1);
  std::vector<std::string> queries;
  for (uint64_t i = 0; i < count; ++i) {
    queries.push_back((pick.Chance(0.4) ? joined : single).Generate());
  }
  // Serial oracle at 1 thread.
  SetParallelism(1, 4096);
  std::vector<std::string> oracle;
  for (const std::string& sql : queries) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " oracle: " + sql);
    auto rs = db_.Execute(sql);
    ASSERT_OK(rs);
    oracle.push_back(Canon(rs.value()));
  }
  // K concurrent streams, parallel operators on.
  SetParallelism(4, 48);
  std::vector<std::string> errors(kStreams);
  std::vector<std::thread> streams;
  for (int s = 0; s < kStreams; ++s) {
    streams.emplace_back([&, s] {
      for (size_t i = 0; i < queries.size(); ++i) {
        auto rs = db_.Execute(queries[i]);
        if (!rs.ok()) {
          errors[static_cast<size_t>(s)] =
              "seed=" + std::to_string(seed) + " stream " +
              std::to_string(s) + " query#" + std::to_string(i) + " " +
              queries[i] + ": " + rs.status().ToString();
          return;
        }
        if (Canon(rs.value()) != oracle[i]) {
          errors[static_cast<size_t>(s)] =
              "seed=" + std::to_string(seed) + " stream " +
              std::to_string(s) + " diverged on query#" + std::to_string(i) +
              ": " + queries[i];
          return;
        }
      }
    });
  }
  for (std::thread& th : streams) th.join();
  SetParallelism(1, 4096);
  for (const std::string& err : errors) {
    EXPECT_TRUE(err.empty()) << err;
  }
}

// Time-boxed sweep over fresh seeds (ctest label `long`). Each round is a
// small batch under a new seed; the base seed is randomized per run and
// printed so any failure is replayable via MTBASE_DIFF_SEED.
TEST_F(DifferentialTest, SeedSweepTimeBoxed) {
  const uint64_t budget_s = EnvU64("MTBASE_DIFF_SWEEP_SECONDS", 5);
  uint64_t base = EnvU64("MTBASE_DIFF_SEED", 0);
  if (base == 0) {
    base = static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
  }
  std::cout << "seed sweep base seed: " << base << " (budget " << budget_s
            << "s)\n";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(budget_s);
  uint64_t rounds = 0;
  do {
    RunBatch(base + rounds, 40);
    if (HasFatalFailure()) return;
    ++rounds;
  } while (std::chrono::steady_clock::now() < deadline);
  std::cout << "seed sweep: " << rounds << " rounds x 40 queries\n";
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
