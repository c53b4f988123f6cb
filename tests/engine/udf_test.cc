#include <gtest/gtest.h>

#include "engine/database.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

constexpr const char* kSetup = R"(
  CREATE TABLE rates (k INTEGER NOT NULL, r DECIMAL(15,6) NOT NULL);
  INSERT INTO rates VALUES (1, 1.0), (2, 2.0), (3, 0.5);
  CREATE FUNCTION conv (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
    AS 'SELECT r * $1 FROM rates WHERE k = $2' LANGUAGE SQL IMMUTABLE;
  CREATE FUNCTION volatileconv (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
    AS 'SELECT r * $1 FROM rates WHERE k = $2' LANGUAGE SQL;
  CREATE TABLE v (x DECIMAL(15,2) NOT NULL, k INTEGER NOT NULL);
  INSERT INTO v VALUES (10.00, 1), (10.00, 2), (10.00, 2), (20.00, 3);
)";

TEST(UdfTest, BodyExecutesSqlWithParams) {
  Database db;
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK_AND_ASSIGN(auto rs, db.Execute("SELECT conv(10.00, 2)"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 20.0);
}

TEST(UdfTest, EmptyBodyResultIsNull) {
  Database db;
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK_AND_ASSIGN(auto rs, db.Execute("SELECT conv(10.00, 99)"));
  EXPECT_TRUE(rs.rows[0][0].is_null());
}

TEST(UdfTest, UnknownFunctionRejected) {
  Database db;
  ASSERT_OK(db.ExecuteScript(kSetup));
  EXPECT_FALSE(db.Execute("SELECT nosuch(1)").ok());
  EXPECT_FALSE(db.Execute("SELECT conv(1)").ok());  // arity
}

TEST(UdfTest, PostgresProfileCachesImmutableResults) {
  Database db(DbmsProfile::kPostgres);
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK(db.Execute("SELECT conv(x, k) FROM v").status());
  // Four rows, but (10.00, 2) repeats -> 3 body executions, 1 cache hit.
  EXPECT_EQ(db.stats()->udf_calls, 3u);
  EXPECT_EQ(db.stats()->udf_cache_hits, 1u);
}

TEST(UdfTest, SystemCProfileNeverCaches) {
  Database db(DbmsProfile::kSystemC);
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK(db.Execute("SELECT conv(x, k) FROM v").status());
  EXPECT_EQ(db.stats()->udf_calls, 4u);
  EXPECT_EQ(db.stats()->udf_cache_hits, 0u);
}

TEST(UdfTest, NonImmutableNeverCachedEvenOnPostgres) {
  Database db(DbmsProfile::kPostgres);
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK(db.Execute("SELECT volatileconv(x, k) FROM v").status());
  EXPECT_EQ(db.stats()->udf_calls, 4u);
}

TEST(UdfTest, CacheIsPerStatement) {
  Database db(DbmsProfile::kPostgres);
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK(db.Execute("SELECT conv(1.00, 1)").status());
  ASSERT_OK(db.Execute("SELECT conv(1.00, 1)").status());
  // Two statements, shared cache disabled (the engine default): two body
  // executions.
  EXPECT_EQ(db.stats()->udf_calls, 2u);
  EXPECT_EQ(db.stats()->udf_cache_hits, 0u);
}

TEST(UdfTest, SharedCacheServesAcrossStatements) {
  Database db(DbmsProfile::kPostgres);
  db.EnableSharedUdfCache();
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK(db.Execute("SELECT conv(1.00, 1)").status());
  ASSERT_OK(db.Execute("SELECT conv(1.00, 1)").status());
  EXPECT_EQ(db.stats()->udf_calls, 1u);
  EXPECT_EQ(db.stats()->udf_cache_hits, 1u);
  EXPECT_EQ(db.stats()->udf_shared_cache_hits, 1u);
  EXPECT_EQ(db.stats()->udf_cache_misses, 1u);
}

TEST(UdfTest, SharedCacheNeverUsedOnSystemC) {
  Database db(DbmsProfile::kSystemC);
  db.EnableSharedUdfCache();
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK(db.Execute("SELECT conv(1.00, 1)").status());
  ASSERT_OK(db.Execute("SELECT conv(1.00, 1)").status());
  EXPECT_EQ(db.stats()->udf_calls, 2u);
  EXPECT_EQ(db.stats()->udf_shared_cache_hits, 0u);
}

TEST(UdfTest, DmlOnBodyTablesEvictsSharedCache) {
  Database db(DbmsProfile::kPostgres);
  db.EnableSharedUdfCache();
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK_AND_ASSIGN(auto rs, db.Execute("SELECT conv(10.00, 2)"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 20.0);
  ASSERT_OK(db.Execute("UPDATE rates SET r = 3.0 WHERE k = 2").status());
  // The dictionary changed: the cached result must not be served.
  ASSERT_OK_AND_ASSIGN(rs, db.Execute("SELECT conv(10.00, 2)"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 30.0);
  EXPECT_EQ(db.stats()->udf_shared_cache_hits, 0u);
  EXPECT_EQ(db.stats()->udf_calls, 2u);
}

TEST(UdfTest, FailedUpdateLeavesTableAndCacheIntact) {
  Database db(DbmsProfile::kPostgres);
  db.EnableSharedUdfCache();
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK_AND_ASSIGN(auto rs, db.Execute("SELECT conv(10.00, 1)"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 10.0);
  // The k=1 row's assignment evaluates, then the k=2 row divides by zero:
  // the statement must fail without mutating any row (assignments are
  // evaluated for all rows before any is applied), and the cached result
  // stays valid.
  EXPECT_FALSE(db.Execute("UPDATE rates SET r = r / (k - 2)").ok());
  ASSERT_OK_AND_ASSIGN(rs, db.Execute("SELECT r FROM rates WHERE k = 1"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 1.0);
  ASSERT_OK_AND_ASSIGN(rs, db.Execute("SELECT conv(10.00, 1)"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 10.0);
  EXPECT_EQ(db.stats()->udf_shared_cache_hits, 1u);
}

TEST(UdfTest, FailedDeleteLeavesTableAndCacheIntact) {
  Database db(DbmsProfile::kPostgres);
  db.EnableSharedUdfCache();
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK_AND_ASSIGN(auto rs, db.Execute("SELECT conv(10.00, 1)"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 10.0);
  // k=1 evaluates (kept), k=2 divides by zero: the statement must fail
  // without mutating any row, and the cached result stays valid.
  EXPECT_FALSE(db.Execute("DELETE FROM rates WHERE r / (k - 2) > 0").ok());
  ASSERT_OK_AND_ASSIGN(rs, db.Execute("SELECT COUNT(*) FROM rates"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 3);
  ASSERT_OK_AND_ASSIGN(rs, db.Execute("SELECT conv(10.00, 1)"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 10.0);
  EXPECT_EQ(db.stats()->udf_shared_cache_hits, 1u);
}

TEST(UdfTest, EnableSharedUdfCacheIsIdempotent) {
  Database db(DbmsProfile::kPostgres);
  db.EnableSharedUdfCache(/*capacity=*/2);
  // A redundant enable (e.g. the Middleware constructor after the embedder
  // already configured the cache) keeps the existing capacity.
  db.EnableSharedUdfCache();
  EXPECT_EQ(db.shared_udf_cache()->capacity(), 2u);
}

TEST(UdfTest, SharedCacheLruBound) {
  Database db(DbmsProfile::kPostgres);
  db.EnableSharedUdfCache(/*capacity=*/2);
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK(db.Execute("SELECT conv(1.00, 1), conv(2.00, 1), conv(3.00, 1)")
                .status());
  EXPECT_EQ(db.shared_udf_cache()->size(), 2u);
  EXPECT_EQ(db.shared_udf_cache()->capacity(), 2u);
  // conv(1.00, 1) was evicted (least recently used): it re-executes, while
  // conv(3.00, 1) is still resident.
  StatsScope scope(db.stats());
  ASSERT_OK(db.Execute("SELECT conv(1.00, 1)").status());
  EXPECT_EQ(scope.Delta().udf_calls, 1u);
  scope.Restart();
  ASSERT_OK(db.Execute("SELECT conv(3.00, 1)").status());
  EXPECT_EQ(scope.Delta().udf_shared_cache_hits, 1u);
}

std::string RenderTyped(const ResultSet& rs) {
  std::string out;
  for (const Value& v : rs.rows.at(0)) {
    if (!out.empty()) out += " | ";
    out += std::string(TypeIdName(v.type())) + " " + v.ToString();
  }
  return out;
}

// Cache keys are exact: two calls share a cached result only if they pass
// the same function the same argument types with bit-identical payloads.
// Each statement runs twice with the shared cache on. The first run's body
// executions show which calls shared a key; the repeat must come entirely
// from the caches, one shared hit per distinct key, rendered the same.
TEST(UdfTest, CacheKeysAreExact) {
  Database db(DbmsProfile::kPostgres);
  db.EnableSharedUdfCache();
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK(db.ExecuteScript(R"(
    CREATE FUNCTION ident (DECIMAL(15,6)) RETURNS DECIMAL(15,6)
      AS 'SELECT $1' LANGUAGE SQL IMMUTABLE;
    CREATE FUNCTION pair (VARCHAR(10), VARCHAR(10)) RETURNS VARCHAR(21)
      AS 'SELECT CONCAT($1, ''|'', $2)' LANGUAGE SQL IMMUTABLE;
    CREATE FUNCTION orelse (VARCHAR(10)) RETURNS VARCHAR(10)
      AS 'SELECT COALESCE($1, ''none'')' LANGUAGE SQL IMMUTABLE;
    CREATE FUNCTION six (INTEGER, INTEGER, INTEGER, INTEGER, INTEGER, INTEGER)
      RETURNS INTEGER
      AS 'SELECT $1 + 10 * $2 + 100 * $3 + 1000 * $4 + 10000 * $5 + 100000 * $6'
      LANGUAGE SQL IMMUTABLE;
    CREATE FUNCTION viaconv (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
      AS 'SELECT conv($1, $2) + 1' LANGUAGE SQL IMMUTABLE;
  )"));
  auto check = [&db](const std::string& sql, const std::string& want,
                     uint64_t calls, uint64_t distinct_keys) {
    StatsScope scope(db.stats());
    ASSERT_OK_AND_ASSIGN(auto rs, db.Execute(sql));
    EXPECT_EQ(RenderTyped(rs), want) << sql;
    EXPECT_EQ(scope.Delta().udf_calls, calls) << sql;
    scope.Restart();
    ASSERT_OK_AND_ASSIGN(rs, db.Execute(sql));
    EXPECT_EQ(RenderTyped(rs), want) << sql << " (repeat)";
    EXPECT_EQ(scope.Delta().udf_calls, 0u) << sql << " (repeat)";
    EXPECT_EQ(scope.Delta().udf_shared_cache_hits, distinct_keys)
        << sql << " (repeat)";
  };
  // Equal numbers, different scales or types: literals trim trailing zeros,
  // so the scales come from arithmetic.
  check("SELECT ident(1.25 + 0.25), ident(1.5), ident(3 / 2), ident(2)",
        "DECIMAL 1.50 | DECIMAL 1.5 | DECIMAL 1.500000 | INT 2", 4, 4);
  // String boundaries: the same concatenated bytes, split differently.
  check("SELECT pair('ab', 'c'), pair('a', 'bc')",
        "STRING ab|c | STRING a|bc", 2, 2);
  // NULL is a tag, not a rendering.
  check("SELECT orelse(NULL), orelse('NULL')", "STRING none | STRING NULL", 2,
        2);
  // Past the inline arguments: the sixth argument still counts.
  check(
      "SELECT six(1, 2, 3, 4, 5, 6), six(1, 2, 3, 4, 5, 7), "
      "six(1, 2, 3, 4, 5, 6)",
      "INT 654321 | INT 754321 | INT 654321", 2, 2);
  // A call in another call's argument: the inner result is cached under its
  // own key, which the last item hits.
  check("SELECT conv(conv(10.00, 2), 3), conv(10.00, 2)",
        "DECIMAL 10.0 | DECIMAL 20", 2, 2);
  // A body that calls a cached UDF: the outer result is cached under the
  // outer key, though the body's call reused the key buffer.
  check("SELECT viaconv(30.00, 3), conv(30.00, 3), viaconv(30.00, 3)",
        "DECIMAL 16.0 | DECIMAL 15.0 | DECIMAL 16.0", 2, 2);
}

TEST(UdfTest, StableUdfCachedPerStatementNotShared) {
  Database db(DbmsProfile::kPostgres);
  db.EnableSharedUdfCache();
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK(db.Execute(
      "CREATE FUNCTION stableconv (DECIMAL(15,2), INTEGER) RETURNS "
      "DECIMAL(15,2) AS 'SELECT r * $1 FROM rates WHERE k = $2' "
      "LANGUAGE SQL STABLE").status());
  // Within one statement: cached like IMMUTABLE.
  ASSERT_OK(db.Execute("SELECT stableconv(x, k) FROM v").status());
  EXPECT_EQ(db.stats()->udf_calls, 3u);
  EXPECT_EQ(db.stats()->udf_cache_hits, 1u);
  // Across statements: STABLE only promises intra-statement stability, so
  // the shared cache is never consulted or populated.
  ASSERT_OK(db.Execute("SELECT stableconv(1.00, 1)").status());
  ASSERT_OK(db.Execute("SELECT stableconv(1.00, 1)").status());
  EXPECT_EQ(db.stats()->udf_shared_cache_hits, 0u);
  EXPECT_EQ(db.stats()->udf_calls, 5u);
}

TEST(UdfTest, ConstantArgsCachedAcrossRows) {
  Database db(DbmsProfile::kPostgres);
  ASSERT_OK(db.ExecuteScript(kSetup));
  // conv(5.00, 1) has constant args: one execution, N-1 hits. This is what
  // makes conversion push-up effective on PostgreSQL (paper section 6.2).
  ASSERT_OK(db.Execute("SELECT x FROM v WHERE x < conv(5000.00, 1)").status());
  EXPECT_EQ(db.stats()->udf_calls, 1u);
  EXPECT_EQ(db.stats()->udf_cache_hits, 3u);
}

TEST(UdfTest, UdfInsidePredicateAndProjection) {
  Database db;
  ASSERT_OK(db.ExecuteScript(kSetup));
  ASSERT_OK_AND_ASSIGN(
      auto rs,
      db.Execute("SELECT SUM(conv(x, k)) FROM v WHERE conv(x, k) >= 10.00"));
  // values: 10, 20, 20, 10 -> all >= 10 -> sum 60.
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 60.0);
}

TEST(UdfTest, DuplicateRegistrationFails) {
  Database db;
  ASSERT_OK(db.ExecuteScript(kSetup));
  auto st = db.Execute(
      "CREATE FUNCTION conv (INTEGER) RETURNS INTEGER AS 'SELECT $1' "
      "LANGUAGE SQL");
  EXPECT_EQ(st.status().code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
