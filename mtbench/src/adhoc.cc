// mth-adhoc: the compile path. Tiny data (sf 0.001, T = 3); the 22 MT-H
// queries at canonical and o4 run as one-shot Session::Execute text with the
// shared plan cache cleared before each statement, a serial engine, and the
// rewrite auditor and plan verifier gates on (as in CI). Parse, rewrite,
// optimize, audit, plan and verify do most of the work and execution little,
// so a change to the compile path shows here and not in mth-analytic.
//
// Correctness: every one-shot result equals the same statement's prepared
// run, and repeats exactly across rounds. Work-count invariants: no timed
// statement hits the plan cache or a cached rewrite, and each one rewrites,
// audits, plans and verifies.
//
// The traced pass replays every statement from outside through the public
// calls the session makes, each wrapped in a span: sql::ParseStatement,
// Session::ResolveDataset, Rewriter::RewriteStatement,
// RewriteAuditor::AuditRewrite, Optimizer::Optimize, AuditOptimized,
// sql::PrintStmt, Planner::PlanSelect, PlanVerifier::Verify, then
// Database::Prepare + PreparedPlan::Execute. The printed SQL must equal
// Session::Rewrite's and the result the one-shot run's.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "engine/planner.h"
#include "engine/verify/verifier.h"
#include "mt/audit/audit.h"
#include "mt/optimizer.h"
#include "mt/rewriter.h"
#include "mth/runner.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace mtbench {
namespace {

using mtbase::Result;
using mtbase::Status;
namespace engine = mtbase::engine;
namespace mt = mtbase::mt;
namespace mth = mtbase::mth;
namespace sql = mtbase::sql;

constexpr double kScaleFactor = 0.001;
constexpr int64_t kTenants = 3;
constexpr int kMinRounds = 3;
constexpr int kReplays = 3;
// The data is a fixed fixture: at sf 0.001 some queries' cost swings several
// fold with the generated values (Q21 by 4x between seeds), which would
// drown the compile-path signal. --seed draws the statement orders instead.
constexpr uint64_t kDataSeed = 42;

constexpr int kLevels = 2;
const mt::OptLevel kOptLevels[kLevels] = {mt::OptLevel::kCanonical,
                                          mt::OptLevel::kO4};
const char* const kLevelNames[kLevels] = {"canonical", "o4"};

struct Env {
  std::unique_ptr<mth::MthEnvironment> env;
  std::unique_ptr<mt::Session> session;
  std::vector<mth::MthQuery> queries;
};

Result<std::unique_ptr<Env>> Setup(uint64_t data_seed) {
  auto e = std::make_unique<Env>();
  mth::MthConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.num_tenants = kTenants;
  cfg.distribution = mth::MthConfig::Distribution::kUniform;
  cfg.seed = data_seed;
  MTB_ASSIGN_OR_RETURN(e->env, mth::SetupEnvironment(
                                   cfg, engine::DbmsProfile::kPostgres,
                                   /*with_baseline=*/false));
  mth::SetMthThreads(e->env.get(), 1);
  e->session = std::make_unique<mt::Session>(e->env->middleware.get(), 1);
  MTB_ASSIGN_OR_RETURN(auto rs, e->session->Execute("SET SCOPE = \"IN ()\""));
  (void)rs;
  e->queries = mth::MthQueries(kScaleFactor);
  return e;
}

// Replay phases, in call order. Audit has two spans (before and after the
// optimizer); prepare repeats the engine's parse/plan/verify and is left out
// of the attributed time.
enum Phase {
  kParse,
  kResolve,
  kRewrite,
  kAudit,
  kOptimize,
  kPrint,
  kPlan,
  kVerify,
  kPrepare,
  kExecute,
  kNumPhases
};
const char* const kPhaseNames[kNumPhases] = {
    "parse", "resolve", "rewrite", "audit",   "optimize",
    "print", "plan",    "verify",  "prepare", "execute"};

struct ReplayOut {
  std::vector<std::pair<Phase, int>> spans;  // (phase, span id)
  std::string printed;                       // the SQL sent to the engine
  engine::ResultSet result;
};

/// Run one statement through the session's compile path from outside.
/// Each call is one span under `root`; `out` receives their ids.
Status Replay(Env* e, const std::string& text, mt::OptLevel level,
              SpanLog* log, int root, int64_t stmt, ReplayOut* out) {
  mt::Session* session = e->session.get();
  mt::Middleware* mw = session->middleware();
  engine::Database* db = mw->db();
  session->set_optimization_level(level);
  auto timed = [&](Phase phase, auto&& fn) {
    const int id = log->Begin(kPhaseNames[phase], root, stmt);
    auto r = fn();
    log->End(id);
    out->spans.emplace_back(phase, id);
    return r;
  };

  Result<sql::Stmt> parsed =
      timed(kParse, [&] { return sql::ParseStatement(text); });
  if (!parsed.ok()) return parsed.status();
  Result<std::vector<int64_t>> resolved =
      timed(kResolve, [&] { return session->ResolveDataset(*parsed); });
  if (!resolved.ok()) return resolved.status();
  std::vector<int64_t> dataset = std::move(resolved).value();
  std::sort(dataset.begin(), dataset.end());

  // The session's o1 options for this dataset (trivial optimizations only
  // above canonical, paper section 4.1).
  mt::RewriteOptions options;
  options.universe = mw->tenants();
  if (level != mt::OptLevel::kCanonical) {
    options.drop_dfilters = mw->IsAllTenants(dataset);
    options.drop_ttid_joins = dataset.size() == 1;
    options.drop_conversions =
        dataset.size() == 1 && dataset[0] == session->client();
  }
  mt::Rewriter rewriter(mw->schema(), mw->conversions(), session->client(),
                        dataset, options);
  Result<std::vector<sql::Stmt>> rewritten =
      timed(kRewrite, [&] { return rewriter.RewriteStatement(*parsed); });
  if (!rewritten.ok()) return rewritten.status();
  std::vector<sql::Stmt> stmts = std::move(rewritten).value();

  mt::audit::AuditContext actx;
  actx.schema = mw->schema();
  actx.conversions = mw->conversions();
  actx.catalog = db->catalog();
  actx.udfs = db->udfs();
  actx.client = session->client();
  actx.dataset = dataset;
  actx.all_tenants = mw->tenants();
  actx.options = options;
  mt::audit::RewriteAuditor auditor(&actx);
  std::vector<mt::audit::StatementAudit> audits(stmts.size());
  std::vector<std::unique_ptr<sql::SelectStmt>> before(stmts.size());
  timed(kAudit, [&] {
    for (size_t i = 0; i < stmts.size(); ++i) {
      auditor.AuditRewrite(stmts[i], &audits[i]);
      if (stmts[i].kind == sql::Stmt::Kind::kSelect) {
        before[i] = stmts[i].select->Clone();
      }
    }
    return 0;
  });
  mt::Optimizer optimizer(mw->conversions(), session->client());
  Status optimized = timed(kOptimize, [&] {
    for (sql::Stmt& st : stmts) {
      if (st.kind != sql::Stmt::Kind::kSelect) continue;
      MTB_RETURN_IF_ERROR(optimizer.Optimize(st.select.get(), level));
    }
    return Status::OK();
  });
  if (!optimized.ok()) return optimized;
  timed(kAudit, [&] {
    for (size_t i = 0; i < stmts.size(); ++i) {
      if (before[i]) {
        auditor.AuditOptimized(*before[i], *stmts[i].select, &audits[i]);
      }
    }
    return 0;
  });
  for (const mt::audit::StatementAudit& a : audits) {
    if (!a.ok()) return Status::InvalidArgument("audit: " + a.Summary());
  }

  const std::vector<std::string> texts = timed(kPrint, [&] {
    std::vector<std::string> t;
    for (const sql::Stmt& st : stmts) t.push_back(sql::PrintStmt(st));
    return t;
  });
  for (const std::string& t : texts) {
    if (!out->printed.empty()) out->printed += ";\n";
    out->printed += t;
  }

  // What the session promises the verifier about plans compiled for D'.
  engine::verify::VerifyContext vctx;
  vctx.check_tenant = true;
  vctx.ttid_column = mt::kTtidColumn;
  vctx.tenant_tables = mw->schema()->TenantSpecificTables();
  vctx.expected_tenants = dataset;
  vctx.allow_unfiltered = options.drop_dfilters;
  db->EnsureUdfPlansFresh();

  std::vector<engine::PlanPtr> plans;
  engine::Planner planner(db->catalog(), db->udfs(), db->planner_options());
  Status planned = timed(kPlan, [&] {
    for (const sql::Stmt& st : stmts) {
      if (st.kind != sql::Stmt::Kind::kSelect) continue;
      MTB_ASSIGN_OR_RETURN(engine::PlanPtr plan,
                           planner.PlanSelect(*st.select));
      plans.push_back(std::move(plan));
    }
    return Status::OK();
  });
  if (!planned.ok()) return planned;
  engine::verify::PlanVerifier verifier(&vctx);
  const std::string verdict = timed(kVerify, [&] {
    std::string failed;
    for (const engine::PlanPtr& plan : plans) {
      const engine::verify::VerifyResult vr = verifier.Verify(*plan);
      if (!vr.ok()) failed = vr.Summary();
    }
    return failed;
  });
  if (!verdict.empty()) return Status::InvalidArgument("verify: " + verdict);

  db->set_verify_context(vctx);
  std::vector<engine::PreparedPlan> prepared;
  Status compiled = timed(kPrepare, [&] {
    for (const std::string& t : texts) {
      MTB_ASSIGN_OR_RETURN(engine::PreparedPlan pp, db->Prepare(t));
      prepared.push_back(std::move(pp));
    }
    return Status::OK();
  });
  if (!compiled.ok()) return compiled;
  return timed(kExecute, [&] {
    for (engine::PreparedPlan& pp : prepared) {
      MTB_ASSIGN_OR_RETURN(out->result, pp.Execute());
    }
    return Status::OK();
  });
}

/// One client's timed one-shot statements.
struct Stream {
  std::vector<std::array<std::vector<double>, kLevels>> samples;
  std::vector<std::array<engine::ResultSet, kLevels>> first;
  int rounds = 0;
  Report report;  // attempted/failed/errors of this client
};

/// Run rounds of the 22 queries × both levels as one-shot statements with
/// the plan cache cleared before each, until `seconds` have passed and at
/// least kMinRounds rounds are done. Each round runs the 44 statements in
/// a fresh order drawn from `seed`.
void RunStream(Env* e, uint64_t seed, Clock::time_point start,
               double seconds, Stream* out) {
  mt::Session* session = e->session.get();
  mt::Middleware* mw = session->middleware();
  engine::Database* db = mw->db();
  const size_t nq = e->queries.size();
  out->samples.resize(nq);
  out->first.resize(nq);
  std::vector<std::pair<size_t, int>> order;
  for (size_t q = 0; q < nq; ++q) {
    for (int li = 0; li < kLevels; ++li) order.emplace_back(q, li);
  }
  mtbase::Rng rng(seed);
  for (;; ++out->rounds) {
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<size_t>(
                              rng.Uniform(0, static_cast<int64_t>(i)))]);
    }
    for (const auto& [q, li] : order) {
      if (out->rounds >= kMinRounds && SecondsSince(start) >= seconds) {
        return;
      }
      const std::string where = e->queries[q].name + " " + kLevelNames[li];
      session->set_optimization_level(kOptLevels[li]);
      mw->plan_cache()->Clear();
      engine::StatsScope scope(db->stats());
      const Clock::time_point t0 = Clock::now();
      auto r = session->Execute(e->queries[q].sql);
      const double dt = SecondsSince(t0);
      const engine::ExecStats d = scope.Delta();
      out->report.Attempt(r.status(), where);
      if (!r.ok()) continue;
      out->samples[q][li].push_back(dt);
      if (d.plan_cache_hits != 0 || d.rewrite_cache_hits != 0) {
        out->report.Fail(where + ": a one-shot statement hit a cache");
      }
      if (d.statements_rewritten == 0 || d.statements_planned == 0 ||
          d.rewrites_audited == 0 || d.plans_verified == 0) {
        out->report.Fail(where + ": a one-shot statement skipped compilation");
      }
      if (out->samples[q][li].size() == 1) {
        out->first[q][li] = std::move(r).value();
      } else if (!SameResult(r.value(), out->first[q][li])) {
        out->report.Fail(where + ": result changed between rounds");
      }
    }
  }
}

}  // namespace

int RunAdhoc(const Options& opt, Report* report) {
  SetGate("MTBASE_AUDIT_REWRITES", true);
  SetGate("MTBASE_VERIFY_PLANS", true);
  RecordCommonConfig(opt, report);
  report->Config("sf", std::to_string(kScaleFactor));
  report->Config("tenants", std::to_string(kTenants) + " uniform");
  report->Config("data_seed", std::to_string(kDataSeed) + " (fixed)");
  report->Config("client", "1, SCOPE IN ()");
  report->Config("partitions", "0");
  report->Config("intra_query_threads", "1");
  report->Config("plan_cache", "cleared before every statement");

  // nproc independent clients, each with its own copy of the database and
  // middleware, so no client can hit another's plan-cache entry. A serial
  // statement stream runs as fast as the CPU it lands on; pooling clients
  // over every CPU keeps runs comparable.
  const int clients = Nproc();
  report->Config("clients", std::to_string(clients) + ", one database each");
  std::vector<double> setups;
  std::vector<std::unique_ptr<Env>> envs;
  for (int i = 0; i < kSetups; ++i) {
    envs.clear();
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c < clients; ++c) {
      auto r = Setup(kDataSeed);
      if (!r.ok()) {
        report->Attempt(r.status(), "set-up");
        return 1;
      }
      envs.push_back(std::move(r).value());
    }
    setups.push_back(SecondsSince(t0));
  }
  Env* e = envs[0].get();
  mt::Session* session = e->session.get();
  mt::Middleware* mw = session->middleware();
  engine::Database* db = mw->db();
  const size_t nq = e->queries.size();

  std::vector<Stream> streams(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  const Clock::time_point loop_start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      RunStream(envs[static_cast<size_t>(c)].get(),
                opt.seed * 1000 + static_cast<uint64_t>(c), loop_start,
                opt.seconds, &streams[static_cast<size_t>(c)]);
    });
  }
  for (std::thread& t : threads) t.join();
  const double loop_s = SecondsSince(loop_start);

  // Pool the clients' samples; every client's results equal client 0's.
  std::vector<std::array<std::vector<double>, kLevels>> samples(nq);
  std::vector<double> all;
  int rounds = 0;
  for (const Stream& st : streams) {
    report->attempted += st.report.attempted;
    report->failed += st.report.failed;
    for (const std::string& why : st.report.errors) report->Fail(why);
    if (!st.report.correct) report->Fail("a client failed its checks");
    rounds += st.rounds;
    for (size_t q = 0; q < nq; ++q) {
      for (int li = 0; li < kLevels; ++li) {
        const std::vector<double>& v = st.samples[q][li];
        samples[q][li].insert(samples[q][li].end(), v.begin(), v.end());
        all.insert(all.end(), v.begin(), v.end());
        if (!SameResult(st.first[q][li], streams[0].first[q][li])) {
          report->Fail(e->queries[q].name + " " + kLevelNames[li] +
                       ": clients disagree on the result");
        }
      }
    }
  }
  if (!report->correct) return 1;
  const auto& first = streams[0].first;

  // One-shot results equal a prepared run's. These runs go through the
  // plan cache without clearing it, which measures the statements' working
  // set in it.
  mw->plan_cache()->Clear();
  for (size_t q = 0; q < nq; ++q) {
    for (int li = 0; li < kLevels; ++li) {
      const std::string where = e->queries[q].name + " " + kLevelNames[li];
      auto r = mth::RunMthQuery(session, e->queries[q].sql, kOptLevels[li]);
      report->Attempt(r.status(), where + " prepared");
      if (r.ok() && !SameResult(r.value().result, first[q][li])) {
        report->Fail(where + ": one-shot and prepared results differ");
      }
    }
  }
  report->Layer("mt.plan_cache_entries.mth-adhoc", mw->plan_cache()->size(),
                "count");
  report->Layer("engine.udf_cache_entries.mth-adhoc",
                db->shared_udf_cache()->size(), "count");

  std::array<double, kLevels> untraced_us{};
  std::vector<std::vector<double>> shapes;
  for (size_t q = 0; q < nq; ++q) {
    for (int li = 0; li < kLevels; ++li) {
      untraced_us[li] += Median(samples[q][li]) * 1e6;
      shapes.push_back(samples[q][li]);
    }
  }
  report->Layer("adhoc_p50_ms", Quantile(all, 0.50) * 1e3, "ms");
  report->Layer("adhoc_p99_ms", Quantile(all, 0.99) * 1e3, "ms");
  report->Config("rounds", std::to_string(rounds));
  ReportEndToEnd(report, Median(setups), shapes,
                 static_cast<double>(all.size()) / loop_s);
  if (!opt.trace) return report->correct ? 0 : 1;

  // Traced replay: per (query, level) the median of each phase over
  // kReplays replays, then the mean over the 22 queries.
  SpanLog spans;
  std::array<std::array<double, kNumPhases>, kLevels> phase_us{};
  std::array<double, kLevels> root_us{};
  int64_t stmt = 0;
  for (size_t q = 0; q < nq; ++q) {
    for (int li = 0; li < kLevels; ++li) {
      const std::string where = e->queries[q].name + " " + kLevelNames[li];
      std::array<std::vector<double>, kNumPhases> per_phase;
      std::vector<double> roots;
      for (int rep = 0; rep < kReplays; ++rep) {
        ReplayOut out;
        int root = 0;
        Status st;
        {
          ScopedSpan span(&spans, "statement", -1, ++stmt);
          root = span.id();
          st = Replay(e, e->queries[q].sql, kOptLevels[li], &spans,
                      root, stmt, &out);
        }
        report->Attempt(st, where + " replay");
        if (!st.ok()) break;
        roots.push_back(spans.DurationUs(root));
        std::array<double, kNumPhases> us{};
        for (const auto& [phase, id] : out.spans) {
          us[phase] += spans.DurationUs(id);
        }
        for (int ph = 0; ph < kNumPhases; ++ph) per_phase[ph].push_back(us[ph]);
        if (rep == 0) {
          session->set_optimization_level(kOptLevels[li]);
          auto rewrite = session->Rewrite(e->queries[q].sql);
          report->Attempt(rewrite.status(), where + " Session::Rewrite");
          if (rewrite.ok() && rewrite.value() != out.printed) {
            report->Fail(where + ": replayed SQL differs from Session::Rewrite");
          }
          if (!SameResult(out.result, first[q][li])) {
            report->Fail(where + ": replayed result differs from one-shot");
          }
        }
      }
      for (int ph = 0; ph < kNumPhases; ++ph) {
        phase_us[li][ph] += Median(per_phase[ph]);
      }
      root_us[li] += Median(roots);
    }
  }

  const double n = static_cast<double>(nq);
  double parse_us = 0, resolve_us = 0, roots_total = 0, untraced_total = 0;
  for (int li = 0; li < kLevels; ++li) {
    const auto& us = phase_us[li];
    const std::string l = kLevelNames[li];
    parse_us += us[kParse];
    resolve_us += us[kResolve];
    report->Layer("sql.print_us." + l, us[kPrint] / n, "us");
    report->Layer("mt.rewrite_us." + l, us[kRewrite] / n, "us");
    report->Layer("mt.optimize_us." + l, us[kOptimize] / n, "us");
    report->Layer("mt.audit_us." + l, us[kAudit] / n, "us");
    report->Layer("engine.plan_us." + l, us[kPlan] / n, "us");
    report->Layer("engine.verify_us." + l, us[kVerify] / n, "us");
    report->Layer("engine.execute_us." + l, us[kExecute] / n, "us");
    const double middleware =
        us[kParse] + us[kRewrite] + us[kOptimize] + us[kAudit] + us[kPrint];
    report->Layer("mt.middleware_share." + l, middleware / untraced_us[li],
                  "ratio");
    double attributed = 0;
    for (int ph = 0; ph < kNumPhases; ++ph) {
      if (ph != kPrepare) attributed += us[ph];
    }
    report->Layer("trace.unattributed_pct." + l,
                  100.0 * (untraced_us[li] - attributed) / untraced_us[li],
                  "%");
    roots_total += root_us[li];
    untraced_total += untraced_us[li];
  }
  report->Layer("sql.parse_us", parse_us / (n * kLevels), "us");
  report->Layer("mt.resolve_us", resolve_us / (n * kLevels), "us");
  report->Layer("trace.overhead_pct.mth-adhoc",
                100.0 * (roots_total - untraced_total) / untraced_total, "%");
  spans.Write(opt.out_dir + "/spans-mth-adhoc.jsonl");
  return report->correct ? 0 : 1;
}

}  // namespace mtbench
