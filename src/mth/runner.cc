#include "mth/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace mtbase {
namespace mth {

Result<PreparedMthQuery> PrepareMthQuery(mt::Session* session,
                                         const std::string& sql,
                                         mt::OptLevel level) {
  session->set_optimization_level(level);
  MTB_ASSIGN_OR_RETURN(mt::PreparedQuery query, session->Prepare(sql));
  return PreparedMthQuery{session, level, std::move(query)};
}

Result<QueryRun> RunPrepared(PreparedMthQuery* prepared) {
  prepared->session->set_optimization_level(prepared->level);
  QueryRun run;
  engine::StatsScope stats(prepared->session->middleware()->db()->stats());
  auto t0 = std::chrono::steady_clock::now();
  auto result = prepared->query.Execute();
  auto t1 = std::chrono::steady_clock::now();
  if (!result.ok()) return result.status();
  run.seconds = std::chrono::duration<double>(t1 - t0).count();
  run.result = std::move(result).value();
  run.stats = stats.Delta();
  run.sql = prepared->query.sql();
  return run;
}

Result<QueryRun> RunMthQuery(mt::Session* session, const std::string& sql,
                             mt::OptLevel level) {
  MTB_ASSIGN_OR_RETURN(PreparedMthQuery prepared,
                       PrepareMthQuery(session, sql, level));
  return RunPrepared(&prepared);
}

Result<QueryRun> RunTpchQuery(engine::Database* db, const std::string& sql) {
  QueryRun run;
  engine::StatsScope stats(db->stats());
  auto t0 = std::chrono::steady_clock::now();
  auto result = db->Execute(sql);
  auto t1 = std::chrono::steady_clock::now();
  if (!result.ok()) return result.status();
  run.seconds = std::chrono::duration<double>(t1 - t0).count();
  run.result = std::move(result).value();
  run.stats = stats.Delta();
  run.sql = sql;
  return run;
}

namespace {

bool ValuesClose(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.AsDouble(), y = b.AsDouble();
    double tol = std::max(1e-2, 1e-7 * std::max(std::fabs(x), std::fabs(y)));
    return std::fabs(x - y) <= tol;
  }
  return a.StructuralEquals(b);
}

/// Canonical row key for multiset comparison: numerics rounded to 2 digits.
std::string RowKey(const Row& row) {
  std::string key;
  for (const Value& v : row) {
    if (v.is_numeric()) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.2f", v.AsDouble());
      key += buf;
    } else {
      key += v.ToString();
    }
    key += '\x1f';
  }
  return key;
}

}  // namespace

bool ResultsEqual(const engine::ResultSet& a, const engine::ResultSet& b,
                  std::string* why) {
  if (a.rows.size() != b.rows.size()) {
    if (why != nullptr) {
      *why = "row count " + std::to_string(a.rows.size()) + " vs " +
             std::to_string(b.rows.size());
    }
    return false;
  }
  if (!a.rows.empty() && a.rows[0].size() != b.rows[0].size()) {
    if (why != nullptr) *why = "column count differs";
    return false;
  }
  // Fast path: ordered comparison with tolerance.
  bool ordered_equal = true;
  for (size_t i = 0; i < a.rows.size() && ordered_equal; ++i) {
    for (size_t j = 0; j < a.rows[i].size(); ++j) {
      if (!ValuesClose(a.rows[i][j], b.rows[i][j])) {
        ordered_equal = false;
        break;
      }
    }
  }
  if (ordered_equal) return true;
  // Fallback: multiset comparison (ORDER BY ties may permute rows between
  // equivalent executions).
  std::vector<std::string> ka, kb;
  ka.reserve(a.rows.size());
  kb.reserve(b.rows.size());
  for (const Row& r : a.rows) ka.push_back(RowKey(r));
  for (const Row& r : b.rows) kb.push_back(RowKey(r));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  if (ka == kb) return true;
  if (why != nullptr) {
    for (size_t i = 0; i < ka.size(); ++i) {
      if (ka[i] != kb[i]) {
        *why = "first differing row (sorted) #" + std::to_string(i) + ": '" +
               ka[i] + "' vs '" + kb[i] + "'";
        break;
      }
    }
  }
  return false;
}

void SetMthThreads(MthEnvironment* env, int max_threads) {
  for (engine::Database* db : {env->mth_db.get(), env->tpch_db.get()}) {
    if (db == nullptr) continue;
    db->update_planner_options(
        [&](engine::PlannerOptions* opts) { opts->max_threads = max_threads; });
  }
}

Result<std::unique_ptr<MthEnvironment>> SetupEnvironment(
    const MthConfig& config, engine::DbmsProfile profile, bool with_baseline) {
  auto env = std::make_unique<MthEnvironment>();
  env->config = config;
  MTB_ASSIGN_OR_RETURN(MthData data, GenerateData(config));
  env->mth_db = std::make_unique<engine::Database>(profile);
  env->middleware = std::make_unique<mt::Middleware>(env->mth_db.get());
  MTB_RETURN_IF_ERROR(LoadMth(env->mth_db.get(), env->middleware.get(), data,
                              config));
  if (with_baseline) {
    env->tpch_db = std::make_unique<engine::Database>(profile);
    MTB_RETURN_IF_ERROR(LoadTpch(env->tpch_db.get(), data));
  }
  return env;
}

}  // namespace mth
}  // namespace mtbase
