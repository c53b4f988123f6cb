// Engine-layer concurrency: many threads driving one Database.
//
// What these tests pin down, mirroring the serving-layer contract:
//   - snapshot reads: a SELECT sees one atomically-published table version,
//     never a torn mix of pre- and post-DML rows. The probe is a balanced
//     workload (every write statement preserves SUM(bal)) under readers that
//     assert the invariant on every observation.
//   - serial equivalence: concurrent writers on disjoint key ranges leave
//     exactly the bytes a serial replay of the same statements leaves.
//   - DDL safety: CREATE TABLE / CREATE INDEX from one thread while others
//     scan, under the exclusive statement guard.
//   - physical access paths: partition-pruned and index scans read the
//     partition lists and index orders of the table version they pinned.
//   - accounting: the process metrics registry reconciles with the number of
//     statements the threads actually issued.
//
// The *Stress* test is time-boxed by MTBASE_STRESS_SECONDS (default 1; the
// CI TSan lane raises it) and registered separately under the `stress` ctest
// label. All tests are designed to run clean under ThreadSanitizer.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/obs/metrics.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Collects invariant violations from worker threads; gtest assertions are
/// only safe on the main thread, so workers record and main asserts.
class FailureLog {
 public:
  void Record(const std::string& msg) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (first_.empty()) first_ = msg;
  }
  int count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  std::string first() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  int count_ = 0;
  std::string first_;
};

class ConcurrencyTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 400;  // even: balanced updates split in half

  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE acct (id INTEGER NOT NULL, bal INTEGER NOT NULL)"));
    std::string script;
    for (int i = 0; i < kRows; ++i) {
      script += "INSERT INTO acct VALUES (" + std::to_string(i) + ", 100);\n";
    }
    ASSERT_OK(db_.ExecuteScript(script));
  }

  std::string SumCanon() {
    auto rs = db_.Execute("SELECT SUM(bal) FROM acct");
    EXPECT_OK(rs);
    return rs.ok() ? CanonRows(rs.value().rows) : std::string("<error>");
  }

  Database db_;
};

// Readers must never observe a torn table version: every write statement in
// this workload preserves SUM(bal), so any reader observing a different sum
// has seen a half-applied statement. Three writer shapes cover the three
// DML publication paths: in-place UPDATE (ReplaceRows), paired INSERT
// (AppendRows, both rows in one atomic publish), and paired INSERT+DELETE.
TEST_F(ConcurrencyTest, ReadersNeverSeeTornWrites) {
  const std::string expect = SumCanon();
  ASSERT_NE(expect, "<error>");
  constexpr int kWriters = 3;
  constexpr int kReaders = 5;
  constexpr int kWriterIters = 40;
  std::atomic<bool> done{false};
  FailureLog failures;
  std::atomic<uint64_t> observations{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kWriterIters; ++i) {
        Status st = Status::OK();
        switch ((w + i) % 3) {
          case 0:
            // Balanced: +1 to the low half, -1 to the high half. Confined
            // to the seed rows so the transient pairs stay untouched.
            st = db_.Execute("UPDATE acct SET bal = bal + CASE WHEN id < " +
                             std::to_string(kRows / 2) +
                             " THEN 1 ELSE -1 END WHERE id < " +
                             std::to_string(kRows))
                     .status();
            break;
          case 1:
            // Paired rows summing to zero, one atomic INSERT.
            st = db_.Execute("INSERT INTO acct VALUES (9000, 77), (9001, -77)")
                     .status();
            break;
          default:
            // Remove earlier pairs; each pair sums to zero, so any number of
            // them leaves the invariant intact.
            st = db_.Execute("DELETE FROM acct WHERE id >= 9000").status();
            break;
        }
        if (!st.ok()) failures.Record("writer: " + st.ToString());
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto rs = db_.Execute("SELECT SUM(bal) FROM acct");
        if (!rs.ok()) {
          failures.Record("reader: " + rs.status().ToString());
          continue;
        }
        ++observations;
        const std::string got = CanonRows(rs.value().rows);
        if (got != expect) {
          failures.Record("torn read: SUM(bal) = " + got + ", want " + expect);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(failures.count(), 0) << failures.first();
  EXPECT_GT(observations.load(), 0u);
  // Cleanup pairs may remain (writers race); the invariant must still hold
  // on the quiesced database.
  EXPECT_EQ(SumCanon(), expect);
}

// Concurrent writers confined to disjoint id ranges must commute: the final
// table bytes equal a serial replay of every thread's statement list.
TEST_F(ConcurrencyTest, DisjointWritersMatchSerialReplay) {
  constexpr int kThreads = 8;
  constexpr int kRangeWidth = kRows / kThreads;
  // Build each thread's statement list up front so the concurrent run and
  // the serial replay execute the exact same statements.
  std::vector<std::vector<std::string>> scripts(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    const int lo = t * kRangeWidth;
    const int hi = lo + kRangeWidth;
    Rng rng(0xABCDu + static_cast<uint64_t>(t));
    for (int i = 0; i < 30; ++i) {
      switch (rng.Uniform(0, 2)) {
        case 0:
          scripts[static_cast<size_t>(t)].push_back(
              "UPDATE acct SET bal = bal + " + std::to_string(t + 1) +
              " WHERE id >= " + std::to_string(lo) + " AND id < " +
              std::to_string(hi));
          break;
        case 1:
          scripts[static_cast<size_t>(t)].push_back(
              "INSERT INTO acct VALUES (" +
              std::to_string(10000 + t * 1000 + i) + ", " +
              std::to_string(rng.Uniform(-50, 50)) + ")");
          break;
        default:
          scripts[static_cast<size_t>(t)].push_back(
              "DELETE FROM acct WHERE id = " +
              std::to_string(lo + rng.Uniform(0, kRangeWidth - 1)));
          break;
      }
    }
  }

  FailureLog failures;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const std::string& sql : scripts[static_cast<size_t>(t)]) {
        Status st = db_.Execute(sql).status();
        if (!st.ok()) failures.Record(sql + ": " + st.ToString());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.count(), 0) << failures.first();

  Database serial;
  ASSERT_OK(serial.ExecuteScript(
      "CREATE TABLE acct (id INTEGER NOT NULL, bal INTEGER NOT NULL)"));
  std::string seed_script;
  for (int i = 0; i < kRows; ++i) {
    seed_script += "INSERT INTO acct VALUES (" + std::to_string(i) +
                   ", 100);\n";
  }
  ASSERT_OK(serial.ExecuteScript(seed_script));
  for (const auto& script : scripts) {
    for (const std::string& sql : script) {
      ASSERT_TRUE(serial.Execute(sql).ok()) << sql;
    }
  }
  const std::string order = "SELECT id, bal FROM acct ORDER BY id, bal";
  ASSERT_OK_AND_ASSIGN(auto got, db_.Execute(order));
  ASSERT_OK_AND_ASSIGN(auto want, serial.Execute(order));
  EXPECT_EQ(CanonRows(got.rows), CanonRows(want.rows));
}

// DDL from one thread while others scan: CREATE TABLE / CREATE INDEX take
// the exclusive statement guard, reads take it shared. Nothing may crash,
// fail, or observe a half-registered catalog entry.
TEST_F(ConcurrencyTest, DdlConcurrentWithScans) {
  constexpr int kDdlThreads = 4;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  FailureLog failures;
  std::vector<std::thread> threads;
  for (int t = 0; t < kDdlThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string tbl = "side" + std::to_string(t);
      Status st = db_.Execute("CREATE TABLE " + tbl +
                              " (k INTEGER, v INTEGER)")
                      .status();
      if (!st.ok()) failures.Record(st.ToString());
      for (int i = 0; i < 20; ++i) {
        st = db_.Execute("INSERT INTO " + tbl + " VALUES (" +
                         std::to_string(i) + ", " + std::to_string(i * t) +
                         ")")
                 .status();
        if (!st.ok()) failures.Record(st.ToString());
      }
      st = db_.Execute("CREATE INDEX " + tbl + "_k ON " + tbl + " (k)")
               .status();
      if (!st.ok()) failures.Record(st.ToString());
      auto rs = db_.Execute("SELECT COUNT(*) FROM " + tbl + " WHERE k >= 0");
      if (!rs.ok()) {
        failures.Record(rs.status().ToString());
      } else if (CanonRows(rs.value().rows) != CanonRows({{Value::Int(20)}})) {
        failures.Record(tbl + ": wrong count " + CanonRows(rs.value().rows));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto rs = db_.Execute("SELECT COUNT(*), SUM(bal) FROM acct");
        if (!rs.ok()) failures.Record(rs.status().ToString());
      }
    });
  }
  for (int t = 0; t < kDdlThreads; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kDdlThreads; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(failures.count(), 0) << failures.first();
}

// Statement accounting must reconcile across threads: the process-wide
// metrics counter moves by exactly the number of statements issued.
TEST_F(ConcurrencyTest, MetricsReconcileAcrossThreads) {
  obs::MetricsRegistry* metrics = obs::MetricsRegistry::Global();
  const uint64_t before =
      metrics->CounterValue("mtbase_engine_statements_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  FailureLog failures;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto rs = db_.Execute("SELECT COUNT(*) FROM acct");
        if (!rs.ok()) failures.Record(rs.status().ToString());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.count(), 0) << failures.first();
  EXPECT_EQ(metrics->CounterValue("mtbase_engine_statements_total") - before,
            static_cast<uint64_t>(kThreads * kPerThread));
}

// With Database::set_profile_execution on, every statement pays the ANALYZE
// instrumentation cost into a profiler of its own: concurrent profiled
// statements share no instrumentation state (the TSan lane runs this) and
// return exactly what an unprofiled run returns.
TEST_F(ConcurrencyTest, ProfiledStatementsShareNoProfiler) {
  PlannerOptions opts = db_.planner_options();
  opts.max_threads = 8;  // four statements in flight keep two workers each
  opts.min_parallel_rows = 16;
  db_.set_planner_options(opts);
  const std::string q =
      "SELECT bal, SUM(id) AS s, COUNT(*) AS n FROM acct WHERE id >= 10 "
      "GROUP BY bal ORDER BY bal";
  StatsScope scope(db_.stats());
  ASSERT_OK_AND_ASSIGN(ResultSet off, db_.Execute(q));
  ASSERT_GT(scope.Delta().threads_used, 1u) << "not parallel-eligible";
  const std::string expected = CanonRows(off.rows);
  db_.set_profile_execution(true);
  constexpr int kThreads = 4;
  constexpr int kRuns = 25;
  FailureLog failures;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRuns; ++i) {
        auto rs = db_.Execute(q);
        if (!rs.ok()) {
          failures.Record(rs.status().ToString());
        } else if (CanonRows(rs.value().rows) != expected) {
          failures.Record("profiled result differs:\n" +
                          CanonRows(rs.value().rows));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  db_.set_profile_execution(false);
  ASSERT_EQ(failures.count(), 0) << failures.first();
}

// Time-boxed stress mix (ctest label `stress`; the TSan CI lane raises
// MTBASE_STRESS_SECONDS). Eight threads hammer the balanced workload plus
// periodic index DDL while every reader checks the SUM invariant.
TEST_F(ConcurrencyTest, StressMixedWorkloadInvariants) {
  const uint64_t budget_s = EnvU64("MTBASE_STRESS_SECONDS", 1);
  const std::string expect = SumCanon();
  ASSERT_NE(expect, "<error>");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(budget_s);
  constexpr int kThreads = 8;
  FailureLog failures;
  std::atomic<uint64_t> statements{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x57E55u + static_cast<uint64_t>(t) * 131);
      int iter = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        ++iter;
        Status st = Status::OK();
        if (t % 2 == 0) {
          // Reader half: snapshot invariant on every observation.
          auto rs = db_.Execute("SELECT SUM(bal) FROM acct");
          st = rs.status();
          if (rs.ok() && CanonRows(rs.value().rows) != expect) {
            failures.Record("stress torn read: " + CanonRows(rs.value().rows));
          }
        } else if (iter % 37 == 0) {
          // Occasional DDL: an index on the hot table mid-update.
          st = db_.Execute("CREATE INDEX stress_ix_" + std::to_string(t) +
                           "_" + std::to_string(iter) + " ON acct (id)")
                   .status();
        } else if (rng.Chance(0.5)) {
          st = db_.Execute("UPDATE acct SET bal = bal + CASE WHEN id < " +
                           std::to_string(kRows / 2) +
                           " THEN 1 ELSE -1 END WHERE id < " +
                           std::to_string(kRows))
                   .status();
        } else if (rng.Chance(0.5)) {
          st = db_.Execute("INSERT INTO acct VALUES (9100, 13), (9101, -13)")
                   .status();
        } else {
          st = db_.Execute("DELETE FROM acct WHERE id >= 9100").status();
        }
        ++statements;
        if (!st.ok()) failures.Record(st.ToString());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.count(), 0) << failures.first();
  EXPECT_GT(statements.load(), 0u);
  EXPECT_EQ(SumCanon(), expect);
}

// Time-boxed (ctest label `stress`). Pruned and index scans under concurrent
// writes. `tp` is hash-partitioned on ttid with a ttid-leading index; every
// write keeps each tenant's SUM(bal), and each pair of rows (i, i + kHalf)
// of a tenant, unchanged. Readers check the tenant invariant through a
// partition-pruned scan (ttid = k, in morsels) and the pair invariant
// through an index scan on id, served by `tp_alt` while it is on (id). A DDL
// thread now and then re-creates `tp_alt` on (bal) and back, so a scan must
// never binary-search one key's order by another key.
TEST(PhysicalScanStressTest, StressPrunedAndIndexScansUnderWrites) {
  const uint64_t budget_s = EnvU64("MTBASE_STRESS_SECONDS", 1);
  constexpr int kTenants = 6;
  constexpr int kHalf = 20;  // rows per tenant: 2 * kHalf
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;  // even: pruned-scan, odd: index-scan readers
  Database db;
  PlannerOptions opts = db.planner_options();
  opts.max_threads = 4;
  opts.min_parallel_rows = 16;
  db.set_planner_options(opts);
  std::string script =
      "CREATE TABLE tp (ttid INTEGER NOT NULL, id INTEGER NOT NULL, "
      "bal INTEGER NOT NULL) PARTITION BY HASH (ttid) PARTITIONS 4;"
      "CREATE INDEX tp_ttid ON tp (ttid, id);"
      "CREATE INDEX tp_alt ON tp (id);"
      "INSERT INTO tp VALUES ";
  for (int k = 1; k <= kTenants; ++k) {
    for (int i = 0; i < 2 * kHalf; ++i) {
      script += (k == 1 && i == 0 ? "(" : ", (") + std::to_string(k) + ", " +
                std::to_string(k * 1000 + i) + ", 100)";
    }
  }
  ASSERT_OK(db.ExecuteScript(script));
  const std::string tenant_sum =
      CanonRows({{Value::Int(100 * 2 * kHalf)}});
  const std::string pair_sum = CanonRows({{Value::Int(200)}});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(budget_s);
  FailureLog failures;
  std::atomic<int> workers_left{kWriters + kReaders};
  std::vector<std::thread> threads;
  // Writers: balanced UPDATEs, a zero-sum INSERT pair, its DELETE.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(0x7A57u + static_cast<uint64_t>(w));
      do {
        const int64_t k = rng.Uniform(1, kTenants);
        const int64_t i = rng.Uniform(0, kHalf - 1);
        const std::string a = std::to_string(k * 1000 + i);
        const std::string b = std::to_string(k * 1000 + i + kHalf);
        std::string sql;
        switch (rng.Uniform(0, 3)) {
          case 0:
            sql = "UPDATE tp SET bal = bal + CASE WHEN id < " +
                  std::to_string(k * 1000 + kHalf) +
                  " THEN 1 ELSE -1 END WHERE ttid = " + std::to_string(k) +
                  " AND id < " + std::to_string(k * 1000 + 2 * kHalf);
            break;
          case 1:
            sql = "UPDATE tp SET bal = bal + CASE WHEN id = " + a +
                  " THEN 7 ELSE -7 END WHERE id IN (" + a + ", " + b + ")";
            break;
          case 2:
            sql = "INSERT INTO tp VALUES (" + std::to_string(k) +
                  ", 100000, 13), (" + std::to_string(k) + ", 200000, -13)";
            break;
          default:
            sql = "DELETE FROM tp WHERE ttid = " + std::to_string(k) +
                  " AND id >= 100000";
            break;
        }
        Status st = db.Execute(sql).status();
        if (!st.ok()) failures.Record(sql + ": " + st.ToString());
      } while (std::chrono::steady_clock::now() < deadline);
      --workers_left;
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(0x5CA7u + static_cast<uint64_t>(r));
      do {
        const int64_t k = rng.Uniform(1, kTenants);
        std::string sql, want;
        if (r % 2 == 0) {
          sql = "SELECT SUM(bal) FROM tp WHERE ttid = " + std::to_string(k);
          want = tenant_sum;
        } else {
          const int64_t id = k * 1000 + rng.Uniform(0, kHalf - 1);
          sql = "SELECT SUM(bal) FROM tp WHERE id IN (" +
                std::to_string(id) + ", " + std::to_string(id + kHalf) + ")";
          want = pair_sum;
        }
        auto rs = db.Execute(sql);
        if (!rs.ok()) {
          failures.Record(sql + ": " + rs.status().ToString());
        } else if (CanonRows(rs.value().rows) != want) {
          failures.Record(sql + " = " + CanonRows(rs.value().rows) +
                          ", want " + want);
        }
      } while (std::chrono::steady_clock::now() < deadline);
      --workers_left;
    });
  }
  // DDL: one index name, re-created on other columns and back.
  threads.emplace_back([&] {
    for (int flip = 0; workers_left.load() > 0; ++flip) {
      const char* create = flip % 2 == 0 ? "CREATE INDEX tp_alt ON tp (bal)"
                                         : "CREATE INDEX tp_alt ON tp (id)";
      for (const char* sql : {"DROP INDEX tp_alt", create}) {
        Status st = db.Execute(sql).status();
        if (!st.ok()) failures.Record(std::string(sql) + ": " + st.ToString());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.count(), 0) << failures.first();
  EXPECT_GT(db.stats()->partitions_pruned, 0u);
  EXPECT_GT(db.stats()->index_scans, 0u);
}

// Time-boxed (ctest label `stress`). A statement's shared-cache epoch must
// name the dictionary version its own UDF bodies read: otherwise a statement
// that started before a rate update but pinned the new rates caches them
// under the old epoch, and another statement of that epoch mixes them with
// its own old-rate results. One writer flips the rate between two versions;
// eight readers each convert 20k distinct amounts through a shared cache
// small enough to evict in every shard, and every statement must have used
// one rate for all of its rows.
TEST(ConversionEpochTest, StressOneRateVersionPerStatement) {
  const uint64_t budget_s = EnvU64("MTBASE_STRESS_SECONDS", 1);
  constexpr int kAmounts = 20000;
  constexpr int kReaders = 8;
  Database db(DbmsProfile::kPostgres);
  db.EnableSharedUdfCache(/*capacity=*/4096);
  std::string script = R"(
    CREATE TABLE rates (k INTEGER NOT NULL, r DECIMAL(15,6) NOT NULL);
    INSERT INTO rates VALUES (1, 1.0);
    CREATE FUNCTION conv (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
      AS 'SELECT r * $1 FROM rates WHERE k = $2' LANGUAGE SQL IMMUTABLE;
    CREATE TABLE amounts (x DECIMAL(15,2) NOT NULL);
    INSERT INTO amounts VALUES )";
  for (int i = 1; i <= kAmounts; ++i) {
    script += (i > 1 ? ", (" : "(") + std::to_string(i) + ".25)";
  }
  ASSERT_OK(db.ExecuteScript(script));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(budget_s);
  FailureLog failures;
  std::atomic<int> readers_left{kReaders};
  std::atomic<uint64_t> statements{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int flip = 0; readers_left.load() > 0; ++flip) {
      auto st = db.Execute(flip % 2 == 0 ? "UPDATE rates SET r = 2.0"
                                         : "UPDATE rates SET r = 1.0");
      if (!st.ok()) failures.Record(st.status().ToString());
    }
  });
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      do {
        auto rs = db.Execute("SELECT x, conv(x, 1) FROM amounts");
        ++statements;
        if (!rs.ok()) {
          failures.Record(rs.status().ToString());
          break;
        }
        const std::vector<Row>& rows = rs.value().rows;
        if (rows.size() != static_cast<size_t>(kAmounts)) {
          failures.Record("rows: " + std::to_string(rows.size()));
          break;
        }
        const double rate = rows[0][1].AsDouble() / rows[0][0].AsDouble();
        for (const Row& row : rows) {
          if (row[1].AsDouble() != rate * row[0].AsDouble()) {
            failures.Record("one statement used two rates: " +
                            row[0].ToString() + " -> " + row[1].ToString() +
                            ", but " + rows[0][0].ToString() + " -> " +
                            rows[0][1].ToString());
            break;
          }
        }
      } while (std::chrono::steady_clock::now() < deadline);
      --readers_left;
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.count(), 0) << failures.first();
  EXPECT_GE(statements.load(), static_cast<uint64_t>(kReaders));
}

// Time-boxed (ctest label `stress`). DROP replans UDF bodies under its
// exclusive statement lock, as CREATE does: statements execute and verify
// body plans by reference under the shared lock, so a replan must never run
// beside them. Three threads call a UDF whose body reads t while a fourth
// creates and drops an unrelated table.
TEST(UdfReplanTest, StressDropBesideUdfCalls) {
  const uint64_t budget_s = EnvU64("MTBASE_STRESS_SECONDS", 1);
  constexpr int kCallers = 3;
  Database db;
  ASSERT_OK(db.ExecuteScript(R"(
    CREATE TABLE t (k INTEGER NOT NULL, v INTEGER NOT NULL);
    INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);
    CREATE FUNCTION f (INTEGER) RETURNS INTEGER
      AS 'SELECT v FROM t WHERE k = $1' LANGUAGE SQL IMMUTABLE;
  )"));
  const std::string expected = CanonRows(
      {{Value::Int(20)}, {Value::Int(20)}, {Value::Int(20)}});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(budget_s);
  FailureLog failures;
  std::atomic<int> callers_left{kCallers};
  std::atomic<uint64_t> drops{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    while (callers_left.load() > 0) {
      for (const char* ddl :
           {"CREATE TABLE tmp (x INTEGER)", "DROP TABLE tmp"}) {
        auto st = db.Execute(ddl);
        if (!st.ok()) failures.Record(st.status().ToString());
      }
      ++drops;
    }
  });
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&] {
      do {
        auto rs = db.Execute("SELECT f(2) FROM t");
        if (!rs.ok()) {
          failures.Record(rs.status().ToString());
        } else if (CanonRows(rs.value().rows) != expected) {
          failures.Record("f(2) returned " + CanonRows(rs.value().rows));
        }
      } while (std::chrono::steady_clock::now() < deadline);
      --callers_left;
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.count(), 0) << failures.first();
  EXPECT_GT(drops.load(), 0u);
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
