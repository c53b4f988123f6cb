// mth-analytic: the paper's Table 3 shape. Client C = 1 queries all T = 10
// tenants (SCOPE "IN ()") of a flat MT-H database. The 22 queries are
// prepared once per level and timed warm at canonical, o3 and o4; the same
// 22 run prepared on the TPC-H baseline database loaded from the same
// generated data. Engine execution does almost all the work and the
// middleware none, so canonical vs o3/o4 shows the paper's headline and
// `tpch` is the single-tenant yardstick.
//
// Correctness: every execution's result equals the baseline's
// (mth::ResultsEqual; exact at C = 1, D = all). Work-count invariants: timed
// executions neither rewrite nor plan, invoke conversions the same number
// of times in every round, and scan and join the same rows in every round
// that executed no conversion body (bodies read meta tables, and how many
// run depends on the shared conversion cache).
//
// The traced pass runs every (query, level) once more under EXPLAIN
// (ANALYZE), checks its rows are byte-identical to the untraced run's, and
// turns the per-operator inclusive times into exclusive times per operator
// kind.
#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "mth/runner.h"
#include "sql/parser.h"

namespace mtbench {
namespace {

using mtbase::Result;
using mtbase::Status;
namespace engine = mtbase::engine;
namespace mt = mtbase::mt;
namespace mth = mtbase::mth;

constexpr double kScaleFactor = 0.01;
constexpr int64_t kTenants = 10;
constexpr int kMinRounds = 2;

constexpr int kLevels = 4;  // canonical, o3, o4 through the middleware; tpch
constexpr int kTpch = 3;
const char* const kLevelNames[kLevels] = {"canonical", "o3", "o4", "tpch"};
const mt::OptLevel kMtLevels[kTpch] = {mt::OptLevel::kCanonical,
                                       mt::OptLevel::kO3, mt::OptLevel::kO4};

// EXPLAIN (ANALYZE) operator kinds, in reporting order.
const char* const kOpKinds[] = {"scan",      "join", "filter",
                                "project",   "aggregate", "sort"};
constexpr int kNumOpKinds = 6;

struct Prepared {
  std::unique_ptr<mth::MthEnvironment> env;
  std::unique_ptr<mt::Session> session;
  std::vector<mth::MthQuery> queries;
  // mth[q][level] for the three middleware levels; tpch[q] on the baseline.
  std::vector<std::vector<mth::PreparedMthQuery>> mth;
  std::vector<engine::PreparedPlan> tpch;
};

/// Generate and load both databases, open the C = 1 session at SCOPE
/// "IN ()" and prepare every statement (no execution).
Result<std::unique_ptr<Prepared>> Setup(uint64_t seed, int threads) {
  auto p = std::make_unique<Prepared>();
  mth::MthConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.num_tenants = kTenants;
  cfg.distribution = mth::MthConfig::Distribution::kUniform;
  cfg.seed = seed;
  MTB_ASSIGN_OR_RETURN(p->env, mth::SetupEnvironment(
                                   cfg, engine::DbmsProfile::kPostgres,
                                   /*with_baseline=*/true));
  mth::SetMthThreads(p->env.get(), threads);
  p->session = std::make_unique<mt::Session>(p->env->middleware.get(), 1);
  MTB_ASSIGN_OR_RETURN(auto rs, p->session->Execute("SET SCOPE = \"IN ()\""));
  (void)rs;
  p->queries = mth::MthQueries(kScaleFactor);
  for (const mth::MthQuery& q : p->queries) {
    std::vector<mth::PreparedMthQuery> levels;
    for (mt::OptLevel level : kMtLevels) {
      MTB_ASSIGN_OR_RETURN(auto pq, mth::PrepareMthQuery(p->session.get(),
                                                         q.sql, level));
      levels.push_back(std::move(pq));
    }
    p->mth.push_back(std::move(levels));
    MTB_ASSIGN_OR_RETURN(auto plan, p->env->tpch_db->Prepare(q.sql));
    p->tpch.push_back(std::move(plan));
  }
  return p;
}

struct Run {
  double seconds = 0;
  engine::ResultSet result;
  engine::ExecStats stats;
};

Result<Run> RunOne(Prepared* p, size_t q, int level) {
  Run run;
  if (level == kTpch) {
    engine::StatsScope scope(p->env->tpch_db->stats());
    const Clock::time_point t0 = Clock::now();
    auto r = p->tpch[q].Execute();
    run.seconds = SecondsSince(t0);
    if (!r.ok()) return r.status();
    run.result = std::move(r).value();
    run.stats = scope.Delta();
    return run;
  }
  MTB_ASSIGN_OR_RETURN(mth::QueryRun r,
                       mth::RunPrepared(&p->mth[q][static_cast<size_t>(level)]));
  run.seconds = r.seconds;
  run.result = std::move(r.result);
  run.stats = r.stats;
  return run;
}

/// Per (query, level) record of the timed rounds.
struct Cell {
  std::vector<double> samples;
  std::vector<engine::ResultSet> results;
  engine::ExecStats first;  // first timed round: the invariant reference
  engine::ExecStats bodyless;  // first timed round that ran no UDF body
  bool has_bodyless = false;
  uint64_t udf_calls = 0;   // summed over timed rounds
  uint64_t udf_invocations = 0;
};

int OpKindIndex(const std::string& op) {
  if (op == "Scan" || op == "IndexScan") return 0;
  if (op == "HashJoin") return 1;
  if (op == "Filter") return 2;
  if (op == "Project") return 3;
  if (op == "Aggregate") return 4;
  if (op == "Sort" || op == "TopN" || op == "Limit" || op == "Distinct") {
    return 5;
  }
  return -1;
}

/// Read the number after `key` (e.g. "time=") up to "ms"; -1 if absent.
double NumberAfter(const std::string& line, size_t from,
                   const std::string& key) {
  const size_t at = line.find(key, from);
  if (at == std::string::npos) return -1;
  return std::strtod(line.c_str() + at + key.size(), nullptr);
}

/// Exclusive time per operator kind of one EXPLAIN (ANALYZE) rendering
/// (docs/explain.md grammar): an operator's inclusive `time=` minus the
/// inclusive times of its children. Children are the operator lines nested
/// one level deeper, or two levels deeper under a SubPlan/InitPlan header.
struct AnalyzeProfile {
  std::array<double, kNumOpKinds> exclusive_ms{};
  double exclusive_sum_ms = 0;
  double footer_ms = -1;
  std::string error;
};

AnalyzeProfile ParseAnalyze(const std::string& text) {
  AnalyzeProfile out;
  struct Op {
    int depth;
    int kind;
    double incl_ms;
    double excl_ms;
  };
  std::vector<Op> ops;
  std::vector<size_t> stack;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("[analyze:", 0) == 0) {
      out.footer_ms = NumberAfter(line, 0, " time=");
      continue;
    }
    const size_t actual = line.find("[actual: ");
    if (actual == std::string::npos) continue;  // sub-plan header, footer
    const size_t indent = line.find_first_not_of(' ');
    const size_t name_end = line.find_first_of(" (", indent);
    const std::string name = line.substr(indent, name_end - indent);
    const int kind = OpKindIndex(name);
    if (kind < 0) {
      out.error = "unknown EXPLAIN operator '" + name + "'";
      return out;
    }
    double incl = 0;
    if (line.compare(actual, 24, "[actual: never executed]") != 0) {
      incl = NumberAfter(line, actual, " time=");
      if (incl < 0) {
        out.error = "no time= in: " + line;
        return out;
      }
    }
    const int depth = static_cast<int>(indent / 2);
    while (!stack.empty() && ops[stack.back()].depth >= depth) {
      stack.pop_back();
    }
    if (!stack.empty()) ops[stack.back()].excl_ms -= incl;
    ops.push_back({depth, kind, incl, incl});
    stack.push_back(ops.size() - 1);
  }
  for (const Op& op : ops) {
    out.exclusive_ms[static_cast<size_t>(op.kind)] += op.excl_ms;
    out.exclusive_sum_ms += op.excl_ms;
  }
  if (ops.empty() || out.footer_ms < 0) out.error = "no operators or footer";
  return out;
}

}  // namespace

int RunAnalytic(const Options& opt, Report* report) {
  SetGate("MTBASE_AUDIT_REWRITES", false);
  SetGate("MTBASE_VERIFY_PLANS", false);
  const int threads = Nproc();
  RecordCommonConfig(opt, report);
  report->Config("sf", std::to_string(kScaleFactor));
  report->Config("tenants", std::to_string(kTenants) + " uniform");
  report->Config("client", "1, SCOPE IN ()");
  report->Config("partitions", "0");
  report->Config("intra_query_threads", std::to_string(threads));
  report->Config("udf_cache_capacity",
                 std::to_string(engine::SharedUdfCache::kDefaultCapacity));

  // Set-up: generate + load + prepare, several times; keep the last.
  std::vector<double> setups;
  std::unique_ptr<Prepared> p;
  for (int i = 0; i < kSetups; ++i) {
    p.reset();
    const Clock::time_point t0 = Clock::now();
    auto r = Setup(opt.seed, threads);
    setups.push_back(SecondsSince(t0));
    if (!r.ok()) {
      report->Attempt(r.status(), "set-up");
      return 1;
    }
    p = std::move(r).value();
  }
  const size_t nq = p->queries.size();

  // Warm-up: the first execution compiles; it is checked but not timed.
  std::vector<engine::ResultSet> reference(nq);
  for (size_t q = 0; q < nq; ++q) {
    for (int level = kTpch; level >= 0; --level) {
      auto r = RunOne(p.get(), q, level);
      report->Attempt(r.status(), p->queries[q].name + " warm-up");
      if (!r.ok()) continue;
      if (level == kTpch) reference[q] = std::move(r.value().result);
    }
  }
  if (!report->correct) return 1;

  // Timed rounds. The starting level rotates per round so no level always
  // runs right after another. After kMinRounds full rounds the loop stops
  // at the first query boundary past --seconds.
  std::vector<std::array<Cell, kLevels>> cells(nq);
  size_t timed = 0;
  int rounds = 0;
  const Clock::time_point loop_start = Clock::now();
  auto expired = [&] {
    return rounds >= kMinRounds && SecondsSince(loop_start) >= opt.seconds;
  };
  while (!expired()) {
    for (size_t q = 0; q < nq && !(q > 0 && expired()); ++q) {
      for (int k = 0; k < kLevels; ++k) {
        const int level = (k + rounds) % kLevels;
        auto r = RunOne(p.get(), q, level);
        report->Attempt(r.status(), p->queries[q].name + " " +
                                        kLevelNames[level]);
        if (!r.ok()) continue;
        Run run = std::move(r).value();
        Cell& cell = cells[q][static_cast<size_t>(level)];
        if (cell.samples.empty()) cell.first = run.stats;
        cell.samples.push_back(run.seconds);
        cell.results.push_back(std::move(run.result));
        cell.udf_calls += run.stats.udf_calls;
        cell.udf_invocations += run.stats.total_udf_invocations();
        const std::string where =
            p->queries[q].name + " " + kLevelNames[level];
        if (run.stats.statements_rewritten != 0 ||
            run.stats.statements_planned != 0) {
          report->Fail(where + ": a warm execution rewrote or planned");
        }
        // UDF bodies scan and join meta-table rows, and how many bodies
        // run depends on the shared conversion cache, which parallel
        // workers fill in no fixed order. So row counts are compared between
        // rounds that executed no body; invocations always.
        if (run.stats.total_udf_invocations() !=
            cell.first.total_udf_invocations()) {
          report->Fail(where + ": conversion invocations differ between rounds");
        }
        if (run.stats.udf_calls == 0) {
          if (!cell.has_bodyless) {
            cell.bodyless = run.stats;
            cell.has_bodyless = true;
          } else if (run.stats.rows_scanned != cell.bodyless.rows_scanned ||
                     run.stats.rows_joined != cell.bodyless.rows_joined) {
            report->Fail(where + ": rows scanned or joined differ between "
                                 "rounds");
          }
        }
        ++timed;
      }
    }
    ++rounds;
  }
  const double loop_s = SecondsSince(loop_start);

  // Every level's every result equals the TPC-H baseline's.
  for (size_t q = 0; q < nq; ++q) {
    for (int level = 0; level < kLevels; ++level) {
      for (const engine::ResultSet& rs : cells[q][level].results) {
        std::string why;
        if (!mth::ResultsEqual(rs, reference[q], &why)) {
          report->Fail(p->queries[q].name + " " + kLevelNames[level] +
                       " differs from the baseline: " + why);
          break;
        }
      }
    }
  }

  for (int level = 0; level < kLevels; ++level) {
    double suite = 0;
    uint64_t scanned = 0, joined = 0, invocations = 0, subqueries = 0;
    uint64_t threads_used = 0, body = 0, invoked = 0;
    for (size_t q = 0; q < nq; ++q) {
      const Cell& c = cells[q][level];
      suite += Median(c.samples);
      scanned += c.first.rows_scanned;
      joined += c.first.rows_joined;
      invocations += c.first.total_udf_invocations();
      subqueries += c.first.subquery_execs;
      threads_used = std::max(threads_used, c.first.threads_used);
      body += c.udf_calls;
      invoked += c.udf_invocations;
    }
    const std::string l = kLevelNames[level];
    report->Layer("suite_s." + l, suite, "s");
    report->Layer("engine.rows_scanned." + l, scanned, "count");
    report->Layer("engine.rows_joined." + l, joined, "count");
    report->Layer("engine.udf_invocations." + l, invocations, "count");
    report->Layer("engine.udf_body_ratio." + l,
                  invoked > 0 ? static_cast<double>(body) / invoked : 0,
                  "ratio");
    report->Layer("engine.subquery_execs." + l, subqueries, "count");
    report->Layer("engine.threads_used." + l, threads_used, "count");
  }
  report->Layer("engine.udf_cache_entries.mth-analytic",
                p->env->mth_db->shared_udf_cache()->size(), "count");
  report->Layer("mt.plan_cache_entries.mth-analytic",
                p->env->middleware->plan_cache()->size(), "count");
  report->Config("rounds", std::to_string(rounds));
  std::vector<std::vector<double>> shapes;
  for (const auto& row : cells) {
    for (const Cell& c : row) shapes.push_back(c.samples);
  }
  ReportEndToEnd(report, Median(setups), shapes,
                 static_cast<double>(timed) / loop_s);
  if (!opt.trace) return report->correct ? 0 : 1;

  // Traced pass: EXPLAIN (ANALYZE) of every (query, level).
  SpanLog spans;
  std::array<std::array<double, kNumOpKinds>, kLevels> op_ms{};
  double footer_total = 0, exclusive_total = 0, untraced_total = 0;
  int64_t stmt = 0;
  for (size_t q = 0; q < nq; ++q) {
    for (int level = 0; level < kLevels; ++level) {
      const std::string where =
          p->queries[q].name + " " + kLevelNames[level];
      engine::ResultSet rs;
      Result<std::string> text = std::string();
      {
        ScopedSpan span(&spans, std::string("analyze.") + kLevelNames[level],
                        -1, ++stmt);
        if (level == kTpch) {
          auto sel = mtbase::sql::ParseSelect(p->queries[q].sql);
          text = sel.ok() ? p->env->tpch_db->ExplainAnalyzeSelect(
                                *sel.value(), nullptr, &rs)
                          : Result<std::string>(sel.status());
        } else {
          p->session->set_optimization_level(kMtLevels[level]);
          mt::ExplainOptions eo;
          eo.analyze = true;
          text = p->session->Explain(p->queries[q].sql, eo, &rs);
        }
      }
      report->Attempt(text.status(), where + " ANALYZE");
      if (!text.ok()) continue;
      if (!SameResult(rs, cells[q][level].results.back())) {
        report->Fail(where + ": ANALYZE rows differ from the untraced run");
      }
      const AnalyzeProfile prof = ParseAnalyze(text.value());
      if (!prof.error.empty()) {
        report->Fail(where + ": " + prof.error);
        continue;
      }
      for (int k = 0; k < kNumOpKinds; ++k) {
        op_ms[level][k] += prof.exclusive_ms[k];
      }
      footer_total += prof.footer_ms;
      exclusive_total += prof.exclusive_sum_ms;
      untraced_total += Median(cells[q][level].samples) * 1e3;
    }
  }
  for (int level = 0; level < kLevels; ++level) {
    for (int k = 0; k < kNumOpKinds; ++k) {
      report->Layer(std::string("engine.op_ms.") + kOpKinds[k] + "." +
                        kLevelNames[level],
                    op_ms[level][k], "ms");
    }
  }
  report->Layer("trace.overhead_pct.mth-analytic",
                100.0 * (footer_total - untraced_total) / untraced_total, "%");
  report->Layer("trace.analyze_gap_pct",
                100.0 * (footer_total - exclusive_total) / footer_total, "%");
  spans.Write(opt.out_dir + "/spans-mth-analytic.jsonl");
  return report->correct ? 0 : 1;
}

}  // namespace mtbench
