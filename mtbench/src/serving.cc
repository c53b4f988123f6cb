// tenant-serving: many tenants served from one shared store. T = 12 tenants
// with Zipf(1.0) skew (sf 0.002, tenant tables hash-partitioned by ttid into
// 8 partitions) behind ~200 sessions, each statement on a serial engine.
// One session in three is a cross-tenant SCOPE "IN ()" reader running three
// aggregate scans; the others run own-scope lookups, 25% of them replaced by
// an UPDATE of a customer row their own tenant owns. Reads and writes share
// the customer table, so a read-path gain that costs writes shows.
//
// Two phases after a short warm-up: a closed loop with nproc clients
// measures capacity and per-shape latency; then an open loop sends
// statements at a fixed rate (kOpenLoopRate, about half the capacity
// measured when the benchmark was defined) and times each one from its due
// time, so a stall also charges the statements queued behind it.
//
// Correctness: every statement succeeds with a result of the expected
// shape, every UPDATE changes exactly the one row it targets, and after the
// run each tenant's own-scope SUM(c_acctbal) has moved by exactly 1.00 times
// the updated-row count acknowledged to that tenant's sessions.
#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "engine/obs/metrics.h"
#include "mth/runner.h"

namespace mtbench {
namespace {

using mtbase::Result;
using mtbase::Status;
using mtbase::Value;
namespace engine = mtbase::engine;
namespace mt = mtbase::mt;
namespace mth = mtbase::mth;

constexpr double kScaleFactor = 0.002;
constexpr int64_t kTenants = 12;
constexpr double kZipf = 1.0;
constexpr int64_t kPartitions = 8;
constexpr int kSessions = 200;
constexpr int kWritePct = 25;
constexpr double kWarmupSeconds = 1.0;
// Share of --seconds spent in the closed loop; the open loop gets the rest.
constexpr double kClosedShare = 0.4;
// Open-loop arrival rate in statements per second. A constant of the
// benchmark, never derived per run: about half the closed-loop capacity
// measured on 4 CPUs when the benchmark was defined.
constexpr double kOpenLoopRate = 400;

const char* const kScanSql[] = {
    "SELECT COUNT(*), SUM(o_totalprice) FROM orders",
    "SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem "
    "GROUP BY l_returnflag ORDER BY l_returnflag",
    "SELECT c_mktsegment, COUNT(*) FROM customer "
    "GROUP BY c_mktsegment ORDER BY c_mktsegment",
};
constexpr int kNumScans = 3;
const char* const kLookupSql = "SELECT COUNT(*), SUM(c_acctbal) FROM customer";
const char* const kSumSql = "SELECT SUM(c_acctbal) FROM customer";

enum Kind { kLookup, kWrite, kScan, kNumKinds };
const char* const kKindNames[kNumKinds] = {"lookup", "write", "scan"};

/// One open connection and its fixed role. `mu` keeps a session on one
/// thread at a time in the open loop, where any worker may serve it.
struct Conn {
  std::unique_ptr<mt::Session> session;
  int64_t tenant = 0;
  bool reader = false;   // SCOPE "IN ()" reader vs own-scope tenant session
  int64_t custkey = 0;   // UPDATE target owned by `tenant` (0 = none)
  std::string update_sql;
  std::mutex mu;
};

struct Env {
  std::unique_ptr<mth::MthEnvironment> env;
  std::vector<std::unique_ptr<Conn>> conns;
};

Result<std::unique_ptr<Env>> Setup(uint64_t seed, int admission_cap) {
  auto e = std::make_unique<Env>();
  mth::MthConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.num_tenants = kTenants;
  cfg.distribution = mth::MthConfig::Distribution::kZipf;
  cfg.seed = seed;
  cfg.partitions = kPartitions;
  MTB_ASSIGN_OR_RETURN(e->env, mth::SetupEnvironment(
                                   cfg, engine::DbmsProfile::kPostgres,
                                   /*with_baseline=*/false));
  mt::Middleware* mw = e->env->middleware.get();
  mw->SetMaxThreads(1);
  e->env->mth_db->set_max_concurrent_statements(admission_cap);

  // Each tenant's own customer keys: UPDATE targets are drawn from these,
  // so every write changes a row its session's tenant owns.
  std::vector<std::vector<int64_t>> owned(static_cast<size_t>(kTenants) + 1);
  for (int64_t t = 1; t <= kTenants; ++t) {
    mt::Session s(mw, t);
    MTB_ASSIGN_OR_RETURN(
        auto rs, s.Execute("SELECT c_custkey FROM customer ORDER BY c_custkey"));
    for (const mtbase::Row& row : rs.rows) {
      owned[static_cast<size_t>(t)].push_back(row[0].int_value());
    }
  }

  mtbase::ZipfGenerator pick(kTenants, kZipf, seed * 31 + 7);
  mtbase::Rng rng(seed * 17 + 3);
  for (int i = 0; i < kSessions; ++i) {
    auto c = std::make_unique<Conn>();
    c->tenant = pick.Next();
    c->session = std::make_unique<mt::Session>(mw, c->tenant);
    c->reader = i % 3 == 0;
    const std::vector<int64_t>& keys = owned[static_cast<size_t>(c->tenant)];
    if (c->reader) {
      MTB_ASSIGN_OR_RETURN(auto rs,
                           c->session->Execute("SET SCOPE = \"IN ()\""));
      (void)rs;
    } else if (!keys.empty()) {
      c->custkey = rng.Pick(keys);
      c->update_sql =
          "UPDATE customer SET c_acctbal = c_acctbal + 1.00 "
          "WHERE c_custkey = " +
          std::to_string(c->custkey);
    }
    e->conns.push_back(std::move(c));
  }
  return e;
}

/// One statement to issue: the connection, its kind and, for scans, which.
struct Stmt {
  size_t conn = 0;
  Kind kind = kLookup;
  int scan = 0;
};

Stmt Choose(const Env& e, size_t conn, mtbase::Rng* rng) {
  Stmt s;
  s.conn = conn;
  const Conn& c = *e.conns[conn];
  if (c.reader) {
    s.kind = kScan;
    s.scan = static_cast<int>(rng->Uniform(0, kNumScans - 1));
  } else if (c.custkey != 0 && rng->Uniform(1, 100) <= kWritePct) {
    s.kind = kWrite;
  } else {
    s.kind = kLookup;
  }
  return s;
}

/// Per-thread tallies, merged after the threads join.
struct Tally {
  std::array<std::vector<double>, kNumKinds> latency_s;
  // Scans again, per statement text: the three texts differ several fold
  // in cost, so each is its own statement shape.
  std::array<std::vector<double>, kNumScans> scan_latency_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t writes = 0;
  int64_t rows_updated = 0;
  std::vector<int64_t> updated_by_tenant =
      std::vector<int64_t>(static_cast<size_t>(kTenants) + 1, 0);
  std::vector<std::string> errors;

  void Record(const Stmt& s, double latency) {
    latency_s[s.kind].push_back(latency);
    if (s.kind == kScan) scan_latency_s[s.scan].push_back(latency);
  }
  void Error(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
  void Merge(const Tally& o) {
    for (int k = 0; k < kNumKinds; ++k) {
      latency_s[k].insert(latency_s[k].end(), o.latency_s[k].begin(),
                          o.latency_s[k].end());
    }
    for (int k = 0; k < kNumScans; ++k) {
      scan_latency_s[k].insert(scan_latency_s[k].end(),
                               o.scan_latency_s[k].begin(),
                               o.scan_latency_s[k].end());
    }
    attempted += o.attempted;
    failed += o.failed;
    writes += o.writes;
    rows_updated += o.rows_updated;
    for (size_t t = 0; t < updated_by_tenant.size(); ++t) {
      updated_by_tenant[t] += o.updated_by_tenant[t];
    }
    for (const std::string& e : o.errors) {
      if (errors.size() < 20) errors.push_back(e);
    }
  }
};

/// Execute one statement on its connection (caller owns the session) and
/// check the result's shape. Returns the statement's own latency.
double Issue(Env* e, const Stmt& s, Tally* t) {
  Conn& c = *e->conns[s.conn];
  const char* text = s.kind == kScan    ? kScanSql[s.scan]
                     : s.kind == kWrite ? c.update_sql.c_str()
                                        : kLookupSql;
  const Clock::time_point t0 = Clock::now();
  Result<engine::ResultSet> r = c.session->Execute(text);
  const double dt = SecondsSince(t0);
  ++t->attempted;
  const std::string where =
      std::string(kKindNames[s.kind]) + " by tenant " + std::to_string(c.tenant);
  if (!r.ok()) {
    t->Error(where + ": " + r.status().ToString());
    return dt;
  }
  const engine::ResultSet& rs = r.value();
  if (s.kind == kWrite) {
    ++t->writes;
    if (rs.rows.size() != 1 || rs.rows[0].empty()) {
      t->Error(where + ": UPDATE returned no count");
      return dt;
    }
    const int64_t n = rs.rows[0][0].int_value();
    t->rows_updated += n;
    t->updated_by_tenant[static_cast<size_t>(c.tenant)] += n;
    if (n != 1) t->Error(where + ": UPDATE changed " + std::to_string(n));
  } else if (rs.rows.empty() || (s.kind == kLookup && rs.rows.size() != 1)) {
    t->Error(where + ": unexpected row count " +
             std::to_string(rs.rows.size()));
  }
  return dt;
}

/// Closed loop: `clients` threads, each cycling through its own shard of
/// connections, for `seconds`. Returns statements per second; latencies of
/// every statement land in `tally`. With `spans`, every statement is also
/// recorded as a span (one log per client).
double ClosedLoop(Env* e, int clients, double seconds, uint64_t seed,
                  Tally* tally, std::vector<SpanLog>* spans) {
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (int w = 0; w < clients; ++w) {
    threads.emplace_back([&, w] {
      mtbase::Rng rng(seed * 1000 + static_cast<uint64_t>(w) + 1);
      Tally& mine = tallies[static_cast<size_t>(w)];
      SpanLog* log = spans != nullptr ? &(*spans)[static_cast<size_t>(w)]
                                      : nullptr;
      size_t cursor = static_cast<size_t>(w);
      int64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Stmt s = Choose(*e, cursor, &rng);
        cursor += static_cast<size_t>(clients);
        if (cursor >= e->conns.size()) cursor = static_cast<size_t>(w);
        double dt = 0;
        if (log != nullptr) {
          ScopedSpan span(log, kKindNames[s.kind], -1, ++n);
          dt = Issue(e, s, &mine);
        } else {
          dt = Issue(e, s, &mine);
        }
        mine.Record(s, dt);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  const double wall = SecondsSince(t0);
  uint64_t done = 0;
  for (const Tally& t : tallies) {
    done += t.attempted;
    tally->Merge(t);
  }
  return static_cast<double>(done) / wall;
}

/// Open loop: one generator thread releases statement i at t0 + i / rate
/// onto a queue served by `workers` threads; latency is measured from the
/// due time. Returns the generator's lateness samples.
std::vector<double> OpenLoop(Env* e, int workers, double seconds,
                             uint64_t seed, Tally* tally) {
  struct Due {
    Stmt stmt;
    Clock::time_point due;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Due> queue;
  bool done = false;
  std::vector<Tally> tallies(static_cast<size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      Tally& mine = tallies[static_cast<size_t>(w)];
      for (;;) {
        Due item;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          item = queue.front();
          queue.pop_front();
        }
        std::lock_guard<std::mutex> owner(e->conns[item.stmt.conn]->mu);
        Issue(e, item.stmt, &mine);
        mine.Record(item.stmt, SecondsSince(item.due));
      }
    });
  }
  std::vector<double> late;
  mtbase::Rng rng(seed * 7 + 11);
  const int64_t n = static_cast<int64_t>(kOpenLoopRate * seconds);
  const Clock::time_point t0 = Clock::now();
  for (int64_t i = 0; i < n; ++i) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(i / kOpenLoopRate));
    const size_t conn = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(e->conns.size()) - 1));
    const Stmt s = Choose(*e, conn, &rng);
    std::this_thread::sleep_until(due);
    late.push_back(SecondsSince(due));
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({s, due});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  for (const Tally& t : tallies) tally->Merge(t);
  return late;
}

/// Own-scope SUM(c_acctbal) of every tenant, in cents (index = tenant).
Result<std::vector<int64_t>> TenantSums(Env* e) {
  std::vector<int64_t> cents(static_cast<size_t>(kTenants) + 1, 0);
  for (int64_t t = 1; t <= kTenants; ++t) {
    mt::Session s(e->env->middleware.get(), t);
    MTB_ASSIGN_OR_RETURN(auto rs, s.Execute(kSumSql));
    if (rs.rows.size() != 1 || rs.rows[0].empty()) {
      return Status::Internal("SUM returned no row");
    }
    const Value& v = rs.rows[0][0];
    if (v.is_null()) continue;  // a tenant without customers
    if (v.type() != mtbase::TypeId::kDecimal) {
      return Status::Internal("SUM(c_acctbal) is not a decimal");
    }
    int64_t units = v.decimal_value().units();
    int32_t scale = v.decimal_value().scale();
    for (; scale < 2; ++scale) units *= 10;
    for (; scale > 2; --scale) units /= 10;
    cents[static_cast<size_t>(t)] = units;
  }
  return cents;
}

void MergeInto(const Tally& t, Report* report) {
  report->attempted += t.attempted;
  report->failed += t.failed;
  for (const std::string& e : t.errors) report->Fail(e);
}

}  // namespace

int RunServing(const Options& opt, Report* report) {
  SetGate("MTBASE_AUDIT_REWRITES", false);
  SetGate("MTBASE_VERIFY_PLANS", false);
  const int clients = Nproc();
  RecordCommonConfig(opt, report);
  report->Config("sf", std::to_string(kScaleFactor));
  report->Config("tenants", std::to_string(kTenants) + " zipf 1.0");
  report->Config("sessions", std::to_string(kSessions));
  report->Config("partitions", std::to_string(kPartitions));
  report->Config("intra_query_threads", "1");
  report->Config("clients", std::to_string(clients));
  report->Config("admission_cap", std::to_string(clients));
  report->Config("open_loop_rate", std::to_string(kOpenLoopRate));

  std::vector<double> setups;
  std::unique_ptr<Env> e;
  for (int i = 0; i < kSetups; ++i) {
    e.reset();
    const Clock::time_point t0 = Clock::now();
    auto r = Setup(opt.seed, clients);
    setups.push_back(SecondsSince(t0));
    if (!r.ok()) {
      report->Attempt(r.status(), "set-up");
      return 1;
    }
    e = std::move(r).value();
  }
  mt::Middleware* mw = e->env->middleware.get();
  engine::Database* db = e->env->mth_db.get();
  auto before = TenantSums(e.get());
  report->Attempt(before.status(), "own-scope sums before the run");
  if (!before.ok()) return 1;

  Tally warm;
  ClosedLoop(e.get(), clients, kWarmupSeconds, opt.seed, &warm, nullptr);

  // Measured phases. Counters are read only while no statement runs.
  auto* metrics = mtbase::obs::MetricsRegistry::Global();
  const uint64_t hits0 = mw->plan_cache()->hits();
  const uint64_t misses0 = mw->plan_cache()->misses();
  const uint64_t queued0 =
      metrics->CounterValue("mtbase_engine_statements_queued_total");
  const uint64_t admitted0 =
      metrics->CounterValue("mtbase_engine_statements_admitted_total");
  engine::StatsScope stats(db->stats());
  Tally closed;
  const double capacity =
      ClosedLoop(e.get(), clients, opt.seconds * kClosedShare, opt.seed + 1,
                 &closed, nullptr);
  Tally open;
  const std::vector<double> late = OpenLoop(
      e.get(), clients, opt.seconds * (1 - kClosedShare), opt.seed, &open);
  const engine::ExecStats d = stats.Delta();
  const uint64_t hits = mw->plan_cache()->hits() - hits0;
  const uint64_t lookups = hits + mw->plan_cache()->misses() - misses0;
  const uint64_t queued =
      metrics->CounterValue("mtbase_engine_statements_queued_total") - queued0;
  const uint64_t admitted =
      metrics->CounterValue("mtbase_engine_statements_admitted_total") -
      admitted0;

  Tally traced;
  std::vector<SpanLog> spans(static_cast<size_t>(clients));
  double traced_capacity = 0;
  if (opt.trace) {
    traced_capacity = ClosedLoop(e.get(), clients, opt.seconds * 0.25,
                                 opt.seed + 2, &traced, &spans);
  }

  Tally total;
  for (const Tally* t : {&warm, &closed, &open, &traced}) {
    total.Merge(*t);
    MergeInto(*t, report);
  }
  const uint64_t measured = closed.attempted + open.attempted;

  // Each tenant's balance moved by exactly what its sessions were told.
  auto after = TenantSums(e.get());
  report->Attempt(after.status(), "own-scope sums after the run");
  if (after.ok()) {
    for (int64_t t = 1; t <= kTenants; ++t) {
      const size_t i = static_cast<size_t>(t);
      const int64_t moved = after.value()[i] - before.value()[i];
      if (moved != 100 * total.updated_by_tenant[i]) {
        report->Fail("tenant " + std::to_string(t) + ": SUM(c_acctbal) moved " +
                     std::to_string(moved) + " cents for " +
                     std::to_string(total.updated_by_tenant[i]) +
                     " acknowledged updates");
      }
    }
  }

  for (int k = 0; k < kNumKinds; ++k) {
    const std::vector<double>& v = open.latency_s[k];
    const std::string name = std::string("serving_") + kKindNames[k];
    report->Layer(name + "_p50_ms", Quantile(v, 0.50) * 1e3, "ms");
    report->Layer(name + "_p99_ms", Quantile(v, 0.99) * 1e3, "ms");
    report->Config(std::string("open_loop_") + kKindNames[k] + "_samples",
                   std::to_string(v.size()));
  }
  report->Layer("serving_stmts_per_s", capacity, "1/s");
  report->Layer("mt.plan_cache_hit_ratio",
                lookups > 0 ? static_cast<double>(hits) / lookups : 0,
                "ratio");
  report->Layer("engine.admission_queued_ratio",
                admitted > 0 ? static_cast<double>(queued) / admitted : 0,
                "ratio");
  report->Layer("engine.partitions_pruned_per_stmt",
                measured > 0 ? static_cast<double>(d.partitions_pruned) /
                                   static_cast<double>(measured)
                             : 0,
                "ratio");
  report->Layer("serving.write_rows_per_stmt",
                total.writes > 0 ? static_cast<double>(total.rows_updated) /
                                       static_cast<double>(total.writes)
                                 : 0,
                "ratio");
  report->Layer("serving.generator_late_p99_ms", Quantile(late, 0.99) * 1e3,
                "ms");
  report->Layer("mt.plan_cache_entries.tenant-serving",
                mw->plan_cache()->size(), "count");
  report->Layer("engine.udf_cache_entries.tenant-serving",
                db->shared_udf_cache()->size(), "count");
  // The bounded metrics come from the closed loop: open-loop latency at half
  // capacity is mostly queueing, which amplifies the machine's own speed
  // swings (its 95th percentile spread by 40% across runs of one commit).
  ReportEndToEnd(report, Median(setups),
                 {closed.latency_s[kLookup], closed.latency_s[kWrite],
                  closed.scan_latency_s[0], closed.scan_latency_s[1],
                  closed.scan_latency_s[2]},
                 capacity);
  if (opt.trace) {
    report->Layer("trace.overhead_pct.tenant-serving",
                  100.0 * (capacity / traced_capacity - 1), "%");
    for (size_t w = 0; w < spans.size(); ++w) {
      spans[w].Write(opt.out_dir + "/spans-tenant-serving-" +
                     std::to_string(w) + ".jsonl");
    }
  }
  return report->correct ? 0 : 1;
}

}  // namespace mtbench
