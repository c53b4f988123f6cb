// Concurrent middleware sessions: the serving layer end to end.
//
// Sixteen tenants, one session each, driven from eight threads (plus
// cross-tenant analytic readers): every session interleaves single-tenant
// DML with own-scope reads whose results are *deterministic* despite the
// concurrency — tenant isolation means no other session can touch this
// tenant's rows, so each session observes exactly its own write history.
// Cross-tenant readers see only statement-atomic states (row counts are
// write-invariant here). Afterwards the final database must match a serial
// replay on a twin middleware, the shared plan cache must have served
// cross-session hits, and the session metrics must reconcile with the
// statements issued. Designed to run clean under ThreadSanitizer.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/obs/metrics.h"
#include "mt/session.h"
#include "tests/test_util.h"

namespace mtbase {
namespace mt {
namespace {

constexpr int kTenants = 16;
constexpr int kRowsPerTenant = 12;
constexpr int kOpsPerSession = 20;

/// Minimal multi-tenant environment: a tenant-specific table with comparable
/// columns only (no conversion meta needed), every tenant granting READ to
/// the public so "IN ()" really scans all tenants.
struct Env {
  Env() {
    db = std::make_unique<engine::Database>();
    mw = std::make_unique<Middleware>(db.get());
    for (int t = 1; t <= kTenants; ++t) mw->RegisterTenant(t);
    Session admin(mw.get(), 1);
    Status st = admin
                    .Execute("CREATE TABLE Acct SPECIFIC ("
                             "A_id INTEGER NOT NULL SPECIFIC, "
                             "A_bal INTEGER NOT NULL COMPARABLE)")
                    .status();
    ok = st.ok();
    if (!ok) return;
    for (int t = 1; t <= kTenants && ok; ++t) {
      Session s(mw.get(), t);
      std::string values;
      for (int i = 0; i < kRowsPerTenant; ++i) {
        if (!values.empty()) values += ", ";
        values += "(" + std::to_string(i) + ", 100)";
      }
      ok = ok && s.Execute("INSERT INTO Acct VALUES " + values).ok();
      // Public READ (the MT-H loader's bulk-grant shape): "IN ()" scans all.
      mw->privileges()->Grant(t, "", Privilege::kRead, kPublicGrantee);
    }
  }

  std::unique_ptr<engine::Database> db;
  std::unique_ptr<Middleware> mw;
  bool ok = false;
};

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

std::string Canon(const engine::ResultSet& rs) { return CanonRows(rs.rows); }

// The tentpole scenario: 8 threads x 16 tenant sessions of mixed DML and
// reads, plus analytic readers, then a full serial-replay comparison.
TEST(ConcurrentSessionsTest, MixedWorkloadMatchesSerialReplay) {
  Env env;
  ASSERT_TRUE(env.ok);
  obs::MetricsRegistry* metrics = obs::MetricsRegistry::Global();
  const uint64_t statements_before =
      metrics->CounterValue("mtbase_session_statements_total");
  const uint64_t cache_hits_before =
      metrics->CounterValue("mtbase_mt_plan_cache_hits_total");

  // Two tenant sessions per worker thread; every session's op sequence is
  // fixed up front so the serial replay below is exact.
  constexpr int kThreads = 8;
  static_assert(kTenants == 2 * kThreads, "two sessions per thread");
  FailureLog failures;
  std::atomic<uint64_t> issued{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      std::vector<std::unique_ptr<Session>> mine;
      std::vector<int> tenant_of;
      std::vector<int> updates_done;
      for (int k = 0; k < 2; ++k) {
        const int t = 1 + w * 2 + k;
        mine.push_back(std::make_unique<Session>(env.mw.get(), t));
        tenant_of.push_back(t);
        updates_done.push_back(0);
      }
      for (int op = 0; op < kOpsPerSession; ++op) {
        for (size_t k = 0; k < mine.size(); ++k) {
          Session* s = mine[k].get();
          if (op % 2 == 0) {
            // Own-tenant DML: nobody else writes this tenant's rows.
            auto r = s->Execute("UPDATE Acct SET A_bal = A_bal + 1");
            ++issued;
            if (!r.ok()) {
              failures.Record(r.status().ToString());
            } else {
              ++updates_done[k];
            }
          } else {
            // Own-scope read: deterministic given this session's history.
            auto r = s->Execute("SELECT COUNT(*), SUM(A_bal) FROM Acct");
            ++issued;
            if (!r.ok()) {
              failures.Record(r.status().ToString());
              continue;
            }
            const int64_t expect_sum =
                kRowsPerTenant * (100 + updates_done[k]);
            const std::string want = CanonRows(
                {{Value::Int(kRowsPerTenant), Value::Int(expect_sum)}});
            if (Canon(r.value()) != want) {
              failures.Record("tenant " + std::to_string(tenant_of[k]) +
                              ": got " + Canon(r.value()) + ", want " + want);
            }
          }
        }
      }
    });
  }
  // Analytic readers: cross-tenant COUNT is invariant under the UPDATE-only
  // write mix, so every atomic snapshot shows the same value.
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  const std::string analytic = "SELECT COUNT(*) FROM Acct";
  const std::string analytic_want =
      CanonRows({{Value::Int(kTenants * kRowsPerTenant)}});
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      Session s(env.mw.get(), 1);
      Status st = s.Execute("SET SCOPE = \"IN ()\"").status();
      if (!st.ok()) {
        failures.Record(st.ToString());
        return;
      }
      while (!done.load(std::memory_order_acquire)) {
        auto rs = s.Execute(analytic);
        if (!rs.ok()) {
          failures.Record(rs.status().ToString());
        } else if (Canon(rs.value()) != analytic_want) {
          failures.Record("analytic torn read: " + Canon(rs.value()));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  ASSERT_EQ(failures.count(), 0) << failures.first();

  // Serial replay on a twin middleware: same per-tenant statement counts,
  // one thread. Every tenant's final rows must match byte-for-byte.
  Env twin;
  ASSERT_TRUE(twin.ok);
  for (int t = 1; t <= kTenants; ++t) {
    Session s(twin.mw.get(), t);
    for (int u = 0; u < kOpsPerSession / 2; ++u) {
      ASSERT_OK(s.Execute("UPDATE Acct SET A_bal = A_bal + 1").status());
    }
  }
  for (int t = 1; t <= kTenants; ++t) {
    Session got(env.mw.get(), t);
    Session want(twin.mw.get(), t);
    auto got_rs = got.Execute("SELECT A_id, A_bal FROM Acct ORDER BY A_id");
    auto want_rs = want.Execute("SELECT A_id, A_bal FROM Acct ORDER BY A_id");
    ASSERT_OK(got_rs);
    ASSERT_OK(want_rs);
    EXPECT_EQ(Canon(got_rs.value()), Canon(want_rs.value())) << "tenant " << t;
  }

  // Accounting: the session statement counter moved by at least the mixed
  // ops issued (readers add more), and the shared plan cache served
  // cross-session hits (16 sessions, 2 distinct statement texts).
  EXPECT_GE(metrics->CounterValue("mtbase_session_statements_total") -
                statements_before,
            issued.load());
  EXPECT_GT(metrics->CounterValue("mtbase_mt_plan_cache_hits_total"),
            cache_hits_before);
  EXPECT_GT(env.mw->plan_cache()->hits(), 0u);
}

// Sixteen fresh sessions of one tenant concurrently executing a statement
// another session already compiled: every one must adopt the shared entry
// (16 hits, zero new misses) and return identical bytes.
TEST(ConcurrentSessionsTest, WarmCacheServesAllConcurrentSessions) {
  Env env;
  ASSERT_TRUE(env.ok);
  const std::string sql =
      "SELECT A_id, A_bal FROM Acct WHERE A_bal >= 0 ORDER BY A_id";
  Session warm(env.mw.get(), 3);
  ASSERT_OK_AND_ASSIGN(auto warm_rs, warm.Execute(sql));
  const std::string want = Canon(warm_rs);
  const uint64_t hits_before = env.mw->plan_cache()->hits();
  const uint64_t misses_before = env.mw->plan_cache()->misses();

  constexpr int kSessions = 16;
  FailureLog failures;
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&] {
      Session s(env.mw.get(), 3);
      auto rs = s.Execute(sql);
      if (!rs.ok()) {
        failures.Record(rs.status().ToString());
      } else if (Canon(rs.value()) != want) {
        failures.Record("bytes diverged: " + Canon(rs.value()));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.count(), 0) << failures.first();
  EXPECT_EQ(env.mw->plan_cache()->hits() - hits_before,
            static_cast<uint64_t>(kSessions));
  EXPECT_EQ(env.mw->plan_cache()->misses(), misses_before);
}

// Closing a session that is queued at admission control aborts its statement
// with a clean error; other sessions are unaffected.
TEST(ConcurrentSessionsTest, CloseAbortsQueuedStatement) {
  Env env;
  ASSERT_TRUE(env.ok);
  env.db->set_max_concurrent_statements(1);
  ASSERT_OK(env.db->admission()->Acquire(nullptr));  // hold the only slot
  Session victim(env.mw.get(), 2);
  Status victim_status = Status::OK();
  std::thread queued([&] {
    victim_status = victim.Execute("SELECT COUNT(*) FROM Acct").status();
  });
  while (env.db->admission()->queue_depth() < 1) std::this_thread::yield();
  victim.Close();
  queued.join();
  EXPECT_FALSE(victim_status.ok());
  EXPECT_NE(victim_status.ToString().find("session closed"),
            std::string::npos)
      << victim_status.ToString();
  // New statements on the closed session are refused outright.
  EXPECT_FALSE(victim.Execute("SELECT COUNT(*) FROM Acct").ok());
  env.db->admission()->Release();
  Session other(env.mw.get(), 2);
  EXPECT_OK(other.Execute("SELECT COUNT(*) FROM Acct").status());
}

// Time-boxed by MTBASE_STRESS_SECONDS (ctest label `stress`). Plain EXPLAIN
// plans under the engine's shared statement lock: one session explains a
// point query on Acct while another creates and drops an index on it. CREATE
// INDEX takes only the engine's exclusive lock, so a plan made outside the
// shared lock would read the table's index list while Table::AddIndex grows
// it (ThreadSanitizer reports that race).
TEST(ConcurrentSessionsTest, StressExplainBesideIndexDdl) {
  const char* budget = std::getenv("MTBASE_STRESS_SECONDS");
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::seconds(budget != nullptr && *budget != '\0'
                               ? std::strtoull(budget, nullptr, 10)
                               : 1);
  Env env;
  ASSERT_TRUE(env.ok);
  FailureLog failures;
  std::atomic<bool> explaining{true};
  std::atomic<uint64_t> creates{0};
  std::thread ddl([&] {
    Session s(env.mw.get(), 1);
    for (int i = 0; explaining.load(); ++i) {
      const std::string ix = "ix_" + std::to_string(i);
      for (const std::string& sql :
           {"CREATE INDEX " + ix + " ON Acct (ttid)", "DROP INDEX " + ix}) {
        auto st = s.Execute(sql);
        if (!st.ok()) failures.Record(sql + ": " + st.status().ToString());
      }
      ++creates;
    }
  });
  Session reader(env.mw.get(), 1);
  uint64_t explains = 0;
  do {
    auto plan = reader.Explain("SELECT A_bal FROM Acct WHERE A_id = 1");
    ++explains;
    if (!plan.ok()) {
      failures.Record("explain: " + plan.status().ToString());
    } else if (plan.value().find("Scan Acct") == std::string::npos) {
      failures.Record("explain without a scan of Acct:\n" + plan.value());
    }
  } while (std::chrono::steady_clock::now() < deadline);
  explaining = false;
  ddl.join();
  EXPECT_EQ(failures.count(), 0) << failures.first();
  EXPECT_GT(explains, 0u);
  EXPECT_GT(creates.load(), 0u);
}

// Two threads set the thread budget while a third reads it. The budget is
// one field of the engine's planner options; a read-modify-write of the
// options outside the engine's statement lock loses updates and races the
// readers (ThreadSanitizer reports it).
TEST(ConcurrentSessionsTest, StressSetMaxThreadsBesideReaders) {
  Env env;
  ASSERT_TRUE(env.ok);
  constexpr int kCalls = 2000;
  env.mw->SetMaxThreads(1);
  std::atomic<bool> writing{true};
  std::atomic<int> bad_reads{0};
  auto writer = [&](int lo) {
    for (int i = 0; i < kCalls; ++i) env.mw->SetMaxThreads(lo + i % 2);
  };
  std::thread a(writer, 1);
  std::thread b(writer, 3);
  std::thread reader([&] {
    while (writing.load()) {
      int t = env.mw->max_threads();
      if (t < 1 || t > 4) ++bad_reads;
    }
  });
  a.join();
  b.join();
  writing = false;
  reader.join();
  EXPECT_EQ(bad_reads.load(), 0);
  // Each writer's last call set an even offset plus one: 2 or 4.
  int last = env.mw->max_threads();
  EXPECT_TRUE(last == 2 || last == 4) << last;
  Session s(env.mw.get(), 1);
  EXPECT_OK(s.Execute("SELECT COUNT(*) FROM Acct").status());
}

}  // namespace
}  // namespace mt
}  // namespace mtbase
