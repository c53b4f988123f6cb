// Multi-session serving benchmark: the concurrency story end to end.
//
// Spawns hundreds of middleware sessions whose client tenants follow a
// Zipfian skew (a few hot tenants, a long cold tail — the multi-tenant
// workload shape of the paper's SaaS setting) and drives them from a worker
// pool: analytic sessions run cross-tenant scans at SCOPE "IN ()", tenant
// sessions mix UPDATEs of a customer row their own tenant owns with
// own-scope lookups (rows updated per write is reported). Every statement
// goes through the full stack — MTSQL rewrite (or a cross-session plan-cache
// hit), admission control, snapshot-pinned execution — so the numbers are
// what a front-end actually pays per request.
//
// Reports throughput plus p50/p95/p99 statement latency from the process
// metrics registry; --metrics_json=<path> dumps the whole registry (the CI
// smoke run schema-checks it with tools/check_metrics_json.py).
//
//   serving_bench --sessions 200 --threads 8 --seconds 2 --tenants 12
//       --sf 0.002 --max_concurrent 8 --zipf 1.0 --write_pct 25
//       --metrics_json serving_metrics.json
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/obs/metrics.h"
#include "mt/session.h"
#include "mth/runner.h"

namespace {

using namespace mtbase;  // NOLINT

struct Options {
  int64_t tenants = 12;
  int sessions = 200;
  int threads = 8;
  double seconds = 2.0;
  double sf = 0.002;
  int max_concurrent = 8;
  double zipf = 1.0;
  int write_pct = 25;  // DML share of a tenant session's statements
  uint64_t seed = 42;
  std::string metrics_json;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  auto next_value = [&](int* i, std::string* out) {
    const char* eq = std::strchr(argv[*i], '=');
    if (eq != nullptr) {
      *out = eq + 1;
      return true;
    }
    if (*i + 1 >= argc) return false;
    *out = argv[++*i];
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::string name = argv[i];
    name = name.substr(0, name.find('='));
    std::string v;
    if (name == "--tenants" && next_value(&i, &v)) {
      o->tenants = std::strtoll(v.c_str(), nullptr, 10);
    } else if (name == "--sessions" && next_value(&i, &v)) {
      o->sessions = std::atoi(v.c_str());
    } else if (name == "--threads" && next_value(&i, &v)) {
      o->threads = std::atoi(v.c_str());
    } else if (name == "--seconds" && next_value(&i, &v)) {
      o->seconds = std::atof(v.c_str());
    } else if (name == "--sf" && next_value(&i, &v)) {
      o->sf = std::atof(v.c_str());
    } else if (name == "--max_concurrent" && next_value(&i, &v)) {
      o->max_concurrent = std::atoi(v.c_str());
    } else if (name == "--zipf" && next_value(&i, &v)) {
      o->zipf = std::atof(v.c_str());
    } else if (name == "--write_pct" && next_value(&i, &v)) {
      o->write_pct = std::atoi(v.c_str());
    } else if (name == "--seed" && next_value(&i, &v)) {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (name == "--metrics_json" && next_value(&i, &v)) {
      o->metrics_json = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", argv[i]);
      return false;
    }
  }
  return o->tenants > 0 && o->sessions > 0 && o->threads > 0 &&
         o->seconds > 0 && o->write_pct >= 0 && o->write_pct <= 100;
}

/// One open connection plus its fixed statement role. Sessions are sharded
/// across workers by index, so no session is ever driven from two threads.
struct Connection {
  std::unique_ptr<mt::Session> session;
  bool analytic = false;  // SCOPE "IN ()" reader vs own-scope DML mixer
  int64_t custkey = 0;    // DML target row, owned by the session's tenant
                          // (0 = the tenant owns no customer: no writes)
};

struct WorkerTotals {
  uint64_t statements = 0;
  uint64_t writes = 0;
  uint64_t rows_updated = 0;
  uint64_t errors = 0;
  std::string first_error;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return 2;

  mth::MthConfig cfg;
  cfg.scale_factor = opt.sf;
  cfg.num_tenants = opt.tenants;
  cfg.distribution = mth::MthConfig::Distribution::kZipf;
  cfg.seed = opt.seed;
  auto env_or = mth::SetupEnvironment(cfg, engine::DbmsProfile::kPostgres,
                                      /*with_baseline=*/false);
  if (!env_or.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 env_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<mth::MthEnvironment> env = std::move(env_or).value();
  env->mth_db->set_max_concurrent_statements(opt.max_concurrent);

  // Each tenant's own customer keys: every customer row belongs to one
  // tenant, so an own-scope UPDATE only changes a row when its key is drawn
  // from the session tenant's own keys.
  std::vector<std::vector<int64_t>> owned(static_cast<size_t>(opt.tenants) +
                                          1);
  for (int64_t t = 1; t <= opt.tenants; ++t) {
    mt::Session s(env->middleware.get(), t);
    auto rs = s.Execute("SELECT c_custkey FROM customer ORDER BY c_custkey");
    if (!rs.ok()) {
      std::fprintf(stderr, "own-key lookup failed: %s\n",
                   rs.status().ToString().c_str());
      return 1;
    }
    for (const Row& row : rs.value().rows) {
      owned[static_cast<size_t>(t)].push_back(row[0].int_value());
    }
  }

  // Session population: Zipf-skewed client tenants; 1 in 3 sessions is a
  // cross-tenant analytic reader (the MT-H loader grants public READ, so
  // "IN ()" resolves to every registered tenant).
  ZipfGenerator tenant_pick(opt.tenants, opt.zipf, opt.seed * 31 + 7);
  Rng setup_rng(opt.seed * 17 + 3);
  std::vector<Connection> conns(static_cast<size_t>(opt.sessions));
  for (size_t i = 0; i < conns.size(); ++i) {
    const int64_t client = tenant_pick.Next();
    conns[i].session = std::make_unique<mt::Session>(env->middleware.get(),
                                                     client);
    conns[i].analytic = (i % 3 == 0);
    const std::vector<int64_t>& keys = owned[static_cast<size_t>(client)];
    if (!conns[i].analytic && !keys.empty()) {
      conns[i].custkey = setup_rng.Pick(keys);
    }
    if (conns[i].analytic) {
      auto st = conns[i].session->Execute("SET SCOPE = \"IN ()\"");
      if (!st.ok()) {
        std::fprintf(stderr, "SET SCOPE failed: %s\n",
                     st.status().ToString().c_str());
        return 1;
      }
    }
  }

  // Cross-tenant analytic statements (identical text across sessions, so the
  // shared plan cache collapses compilation to once per client tenant) and
  // the single-tenant mix.
  const std::vector<std::string> analytic_sql = {
      "SELECT COUNT(*), SUM(o_totalprice) FROM orders",
      "SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem "
      "GROUP BY l_returnflag ORDER BY l_returnflag",
      "SELECT c_mktsegment, COUNT(*) FROM customer "
      "GROUP BY c_mktsegment ORDER BY c_mktsegment",
  };
  const std::string lookup_sql =
      "SELECT COUNT(*), SUM(c_acctbal) FROM customer";

  std::atomic<bool> stop{false};
  std::vector<WorkerTotals> totals(static_cast<size_t>(opt.threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(opt.threads));
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < opt.threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(opt.seed + 1000u * static_cast<uint64_t>(t) + 1);
      WorkerTotals& mine = totals[static_cast<size_t>(t)];
      // Shard: worker t owns sessions t, t+threads, t+2*threads, ...
      size_t cursor = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        Connection& conn = conns[cursor];
        cursor += static_cast<size_t>(opt.threads);
        if (cursor >= conns.size()) cursor = static_cast<size_t>(t);
        Result<engine::ResultSet> r{engine::ResultSet{}};
        if (conn.analytic) {
          r = conn.session->Execute(rng.Pick(analytic_sql));
        } else if (conn.custkey != 0 &&
                   rng.Uniform(1, 100) <= opt.write_pct) {
          r = conn.session->Execute(
              "UPDATE customer SET c_acctbal = c_acctbal + 1.00 "
              "WHERE c_custkey = " + std::to_string(conn.custkey));
          ++mine.writes;
          if (r.ok() && !r.value().rows.empty() &&
              !r.value().rows[0].empty()) {
            mine.rows_updated +=
                static_cast<uint64_t>(r.value().rows[0][0].int_value());
          }
        } else {
          r = conn.session->Execute(lookup_sql);
        }
        ++mine.statements;
        if (!r.ok()) {
          ++mine.errors;
          if (mine.first_error.empty()) {
            mine.first_error = r.status().ToString();
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  WorkerTotals sum;
  for (const WorkerTotals& w : totals) {
    sum.statements += w.statements;
    sum.writes += w.writes;
    sum.rows_updated += w.rows_updated;
    sum.errors += w.errors;
    if (sum.first_error.empty()) sum.first_error = w.first_error;
  }

  obs::MetricsRegistry* metrics = obs::MetricsRegistry::Global();
  const char* lat = "mtbase_session_execute_seconds";
  std::printf("serving_bench: %d sessions (%lld tenants, zipf %.2f), "
              "%d workers, cap %d, %.2fs wall\n",
              opt.sessions, static_cast<long long>(opt.tenants), opt.zipf,
              opt.threads, opt.max_concurrent, wall);
  std::printf("  statements   %llu (%.0f/s), writes %llu, errors %llu\n",
              static_cast<unsigned long long>(sum.statements),
              wall > 0 ? static_cast<double>(sum.statements) / wall : 0.0,
              static_cast<unsigned long long>(sum.writes),
              static_cast<unsigned long long>(sum.errors));
  std::printf("  writes       %.2f rows updated per write\n",
              sum.writes > 0 ? static_cast<double>(sum.rows_updated) /
                                   static_cast<double>(sum.writes)
                             : 0.0);
  std::printf("  latency      p50 %.6fs  p95 %.6fs  p99 %.6fs\n",
              metrics->Quantile(lat, 0.5), metrics->Quantile(lat, 0.95),
              metrics->Quantile(lat, 0.99));
  std::printf("  plan cache   hits %llu  misses %llu\n",
              static_cast<unsigned long long>(
                  metrics->CounterValue("mtbase_mt_plan_cache_hits_total")),
              static_cast<unsigned long long>(
                  metrics->CounterValue("mtbase_mt_plan_cache_misses_total")));
  std::printf("  admission    admitted %llu  queued %llu  max in flight %d\n",
              static_cast<unsigned long long>(metrics->CounterValue(
                  "mtbase_engine_statements_admitted_total")),
              static_cast<unsigned long long>(metrics->CounterValue(
                  "mtbase_engine_statements_queued_total")),
              env->mth_db->admission()->max_in_flight_seen());
  if (sum.errors > 0) {
    std::fprintf(stderr, "first error: %s\n", sum.first_error.c_str());
  }

  if (!opt.metrics_json.empty()) {
    std::ofstream out(opt.metrics_json);
    out << metrics->RenderJson() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.metrics_json.c_str());
      return 1;
    }
  }
  return sum.errors > 0 ? 1 : 0;
}
