#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/str_util.h"
#include "engine/explain.h"
#include "engine/key_index.h"
#include "engine/obs/metrics.h"
#include "engine/obs/profile.h"
#include "engine/obs/statement.h"
#include "engine/obs/trace.h"
#include "engine/parallel/parallel.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace mtbase {
namespace engine {

thread_local Database::ThreadVerifyContext Database::tl_verify_ctx_;
thread_local obs::StatementTrace* Database::active_trace_ = nullptr;
thread_local Database::StatsFrame* Database::tl_stats_frame_ = nullptr;
thread_local const Database* Database::tl_guard_owner_ = nullptr;
thread_local int Database::tl_guard_depth_ = 0;
thread_local int Database::tl_admission_depth_ = 0;

Database::Database(DbmsProfile profile) : profile_(profile) {
  if (const char* env = std::getenv("MTBASE_MAX_CONCURRENT_STATEMENTS")) {
    admission_.set_limit(std::atoi(env));
  }
}

uint64_t Database::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

const verify::VerifyContext& Database::verify_context() const {
  static const verify::VerifyContext kEngineChecksOnly;
  return tl_verify_ctx_.owner == id_ ? tl_verify_ctx_.ctx : kEngineChecksOnly;
}

// ---------------------------------------------------------------------------
// Statement-scope concurrency plumbing
// ---------------------------------------------------------------------------

Database::StatsFrame::StatsFrame(Database* db) : db_(db) {
  for (StatsFrame* f = tl_stats_frame_; f != nullptr; f = f->prev_) {
    if (f->db_ == db) return;  // nested statement: share the outer frame
  }
  prev_ = tl_stats_frame_;
  tl_stats_frame_ = this;
  active_ = true;
}

Database::StatsFrame::~StatsFrame() {
  if (!active_) return;
  tl_stats_frame_ = prev_;
  std::lock_guard<std::mutex> lock(db_->stats_mu_);
  db_->stats_.Merge(local_);
}

ExecStats* Database::CurStats() {
  for (StatsFrame* f = tl_stats_frame_; f != nullptr; f = f->prev_) {
    if (f->db_ == this) return &f->local_;
  }
  return &stats_;
}

Database::StatementGuard::StatementGuard(Database* db, bool exclusive)
    : db_(db) {
  if (tl_guard_owner_ == db && tl_guard_depth_ > 0) {
    // Nested statement on the same database: the outer guard's lock covers
    // us. A nested exclusive request under a shared outer guard cannot occur
    // by construction (DDL only nests inside DDL).
    nested_ = true;
    ++tl_guard_depth_;
    return;
  }
  prev_owner_ = tl_guard_owner_;
  prev_depth_ = tl_guard_depth_;
  exclusive_ = exclusive;
  if (exclusive) {
    db->ddl_mu_.lock();
  } else {
    db->ddl_mu_.lock_shared();
  }
  tl_guard_owner_ = db;
  tl_guard_depth_ = 1;
}

Database::StatementGuard::~StatementGuard() {
  if (nested_) {
    --tl_guard_depth_;
    return;
  }
  if (exclusive_) {
    db_->ddl_mu_.unlock();
  } else {
    db_->ddl_mu_.unlock_shared();
  }
  tl_guard_owner_ = prev_owner_;
  tl_guard_depth_ = prev_depth_;
}

Database::AdmissionPass::AdmissionPass(Database* db) : db_(db) {
  outermost_ = tl_admission_depth_ == 0;
  ++tl_admission_depth_;
  if (outermost_) {
    status_ = db_->admission_.Acquire(ScopedCancelToken::Current());
  }
}

Database::AdmissionPass::~AdmissionPass() {
  --tl_admission_depth_;
  if (outermost_ && status_.ok()) db_->admission_.Release();
}

bool Database::IsDdlStmt(const sql::Stmt& stmt) {
  switch (stmt.kind) {
    case sql::Stmt::Kind::kCreateTable:
    case sql::Stmt::Kind::kCreateView:
    case sql::Stmt::Kind::kCreateFunction:
    case sql::Stmt::Kind::kCreateIndex:
    case sql::Stmt::Kind::kDrop:
      return true;
    default:
      return false;
  }
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out = JoinStrings(column_names, " | ") + "\n";
  size_t n = std::min(rows.size(), max_rows);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> cells;
    cells.reserve(rows[i].size());
    for (const Value& v : rows[i]) cells.push_back(v.ToString());
    out += JoinStrings(cells, " | ") + "\n";
  }
  if (rows.size() > n) {
    out += "... (" + std::to_string(rows.size()) + " rows)\n";
  }
  return out;
}

ExecContext Database::MakeContext(const std::vector<Value>* params) {
  ExecContext ctx;
  ctx.stats = CurStats();
  ctx.profile = profile_;
  ctx.params = params;
  ctx.snapshots = std::make_shared<TableSnapshots>();
  // Inter-query scheduling: concurrent statements split the intra-query
  // thread budget instead of each claiming the whole pool (in_flight counts
  // this statement, so a lone statement keeps the full budget).
  const int resolved =
      parallel::ResolveMaxThreads(planner_options_.max_threads);
  const int in_flight = std::max(1, admission_.in_flight());
  ctx.max_threads = std::max(1, resolved / in_flight);
  ctx.min_parallel_rows = planner_options_.min_parallel_rows;
  if (shared_udf_cache_enabled_) {
    // The data component read here is replaced at the statement's first
    // shared-cache access by one folded from the versions it pins (see
    // ExecContext::shared_udf_epoch): versions read now could be older than
    // the ones its UDF bodies later scan, if DML commits in between.
    ctx.shared_udf_cache = &shared_udf_cache_;
    ctx.shared_udf_epoch = CurrentUdfCacheEpoch();
    ctx.udf_read_tables = &udf_read_tables_;
  }
  return ctx;
}

namespace {

void CollectExprTables(const BoundExpr& e, std::set<const Table*>* out);

void CollectPlanTables(const Plan& p, std::set<const Table*>* out) {
  if (p.table != nullptr) out->insert(p.table);
  ForEachPlanExpr(p, [out](const BoundExpr& e) { CollectExprTables(e, out); });
  if (p.left) CollectPlanTables(*p.left, out);
  if (p.right) CollectPlanTables(*p.right, out);
}

void CollectExprTables(const BoundExpr& e, std::set<const Table*>* out) {
  if (e.subplan) CollectPlanTables(*e.subplan, out);
  ForEachExprChild(e, [out](const BoundExpr& c) { CollectExprTables(c, out); });
}

}  // namespace

void Database::RebuildUdfReadTables() {
  std::set<const Table*> tables;
  for (Udf* udf : udfs_.All()) {
    if (udf->body_plan != nullptr) CollectPlanTables(*udf->body_plan, &tables);
  }
  udf_read_tables_.assign(tables.begin(), tables.end());
}

UdfCacheEpoch Database::CurrentUdfCacheEpoch() const {
  uint64_t data = 0;
  for (const Table* t : udf_read_tables_) {
    data = UdfCacheEpoch::FoldData(data, t->data_version());
  }
  return UdfCacheEpoch{catalog_.version() + udfs_.version(), data,
                       shared_udf_external_epoch_};
}

void Database::EnableSharedUdfCache(size_t capacity) {
  // Only the enabling call sizes the cache: a later redundant call (e.g.
  // the Middleware constructor after an embedder already enabled with a
  // custom capacity) must not clobber it. Resize explicitly through
  // shared_udf_cache()->set_capacity().
  if (!shared_udf_cache_enabled_) shared_udf_cache_.set_capacity(capacity);
  shared_udf_cache_enabled_ = true;
}

// ---------------------------------------------------------------------------
// PreparedPlan
// ---------------------------------------------------------------------------

/// Bound DML: everything a prepared INSERT/UPDATE/DELETE needs at execution
/// time without touching the binder again. The raw Table pointer is safe for
/// the same reason cached SELECT plans are: any catalog DDL moves the
/// compilation version and forces a recompile before the next execution.
struct BoundDmlPlan {
  Table* table = nullptr;
  BoundExprPtr where;                                // UPDATE / DELETE
  std::vector<std::pair<int, BoundExprPtr>> sets;    // UPDATE assignments
  std::vector<int> targets;                          // INSERT column slots
  std::vector<std::vector<BoundExprPtr>> value_rows; // INSERT ... VALUES
};

/// Immutable compiled form of a PreparedPlan. Re-compiles build a fresh
/// block and swap it in under the handle mutex, so concurrent executions on
/// one shared handle either see the complete old state or the complete new
/// one — never a half-replaced plan.
struct PreparedPlan::CompiledState {
  uint64_t version = 0;
  /// First execution after a compile is amortization, not a cache hit.
  mutable std::atomic<bool> fresh{true};
  // SELECT: the statement's plan. INSERT ... SELECT: the source plan.
  std::shared_ptr<const Plan> plan;
  // INSERT/UPDATE/DELETE: the statement's bound form.
  std::unique_ptr<BoundDmlPlan> dml;
  std::vector<std::string> column_names;
};

PreparedPlan::PreparedPlan(Database* db, sql::Stmt stmt, std::string sql_text)
    : db_(db),
      sql_(std::move(sql_text)),
      stmt_(std::move(stmt)),
      param_count_(sql::MaxParamIndex(stmt_)) {}
PreparedPlan::PreparedPlan(PreparedPlan&&) noexcept = default;
PreparedPlan& PreparedPlan::operator=(PreparedPlan&&) noexcept = default;
PreparedPlan::~PreparedPlan() = default;

Result<std::shared_ptr<const PreparedPlan::CompiledState>>
PreparedPlan::CompileLocked() {
  auto state = std::make_shared<CompiledState>();
  // Snapshot the version before planning: a concurrent DDL that lands
  // mid-compile yields a state stamped stale, forcing a recompile on the
  // next execution instead of silently serving a half-old plan.
  state->version = db_->compilation_version();
  ExecStats* stats = db_->CurStats();
  ++stats->prepare_count;
  const sql::SelectStmt* sel =
      stmt_.kind == sql::Stmt::Kind::kSelect ? stmt_.select.get()
      : stmt_.kind == sql::Stmt::Kind::kInsert ? stmt_.insert->select.get()
                                               : nullptr;
  if (sel != nullptr) {
    PlanPtr plan;
    {
      obs::SpanTimer span(db_->active_trace_, "plan", stats);
      Planner planner(&db_->catalog_, &db_->udfs_, db_->planner_options_);
      MTB_ASSIGN_OR_RETURN(plan, planner.PlanSelect(*sel));
      ++stats->statements_planned;
    }
    MTB_RETURN_IF_ERROR(db_->VerifyPlan(plan.get()));
    for (const auto& c : plan->columns) state->column_names.push_back(c.name);
    state->plan = std::shared_ptr<const Plan>(std::move(plan));
  }
  if (stmt_.kind == sql::Stmt::Kind::kInsert ||
      stmt_.kind == sql::Stmt::Kind::kUpdate ||
      stmt_.kind == sql::Stmt::Kind::kDelete) {
    MTB_ASSIGN_OR_RETURN(state->dml, db_->BindDml(stmt_));
    // The bind is this statement's compilation — unless the INSERT ... SELECT
    // source plan above already counted it.
    if (sel == nullptr) ++stats->statements_planned;
  }
  return std::shared_ptr<const CompiledState>(std::move(state));
}

Result<std::shared_ptr<const PreparedPlan::CompiledState>>
PreparedPlan::State() {
  std::lock_guard<std::mutex> lock(*mu_);
  if (state_ == nullptr || state_->version != db_->compilation_version()) {
    // Invalidate first: a failed recompile (e.g. against a dropped table)
    // must not leave a handle that silently executes the stale plan.
    state_.reset();
    MTB_ASSIGN_OR_RETURN(auto compiled, CompileLocked());
    column_names_ = compiled->column_names;
    state_ = std::move(compiled);
  }
  return state_;
}

Result<ResultSet> PreparedPlan::Execute(const std::vector<Value>& params) {
  if (!db_->profile_execution()) return Run(params, nullptr);
  // Bench knob (Database::set_profile_execution): this execution pays the
  // ANALYZE instrumentation cost into its own, never-rendered profiler.
  obs::PlanProfiler profiler;
  return Run(params, &profiler);
}

Result<ResultSet> PreparedPlan::Run(const std::vector<Value>& params,
                                    obs::PlanProfiler* profiler) {
  // Admission first (blocking while holding no locks), then the stats frame
  // and the statement-scope lock: shared for SELECT/DML, exclusive for DDL
  // statement kinds executed through a handle. Then the observability
  // shell: one engine-layer trace record per statement (nested statements
  // append to the enclosing record via the Database slot) plus metrics.
  Database::AdmissionPass admission(db_);
  if (!admission.status().ok()) return admission.status();
  Database::StatsFrame frame(db_);
  Database::StatementGuard guard(db_, Database::IsDdlStmt(stmt_));
  obs::StatementShell shell(obs::Layer::kEngine, &db_->active_trace_, sql_,
                            db_->CurStats());
  Result<ResultSet> result = ExecuteInternal(params, profiler);
  shell.Finish(result.status(), result.ok() ? result.value().rows.size() : 0);
  return result;
}

namespace {

/// The one-row result of UPDATE / DELETE: the affected row count.
ResultSet RowCount(const char* column, int64_t n) {
  ResultSet rs;
  rs.column_names = {column};
  rs.rows.push_back({Value::Int(n)});
  return rs;
}

}  // namespace

Result<ResultSet> PreparedPlan::ExecuteInternal(
    const std::vector<Value>& params, obs::PlanProfiler* profiler) {
  if (static_cast<int>(params.size()) < param_count_) {
    return Status::InvalidArgument(
        "prepared statement needs " + std::to_string(param_count_) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  MTB_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledState> st, State());
  // The first execution after a compile is amortization, not reuse.
  if (!st->fresh.exchange(false, std::memory_order_acq_rel)) {
    ++db_->CurStats()->plan_cache_hits;
  }
  obs::SpanTimer exec_span(db_->active_trace_, "execute", db_->CurStats());
  const std::vector<Value>* bound = params.empty() ? nullptr : &params;
  switch (stmt_.kind) {
    case sql::Stmt::Kind::kSelect: {
      ExecContext ctx = db_->MakeContext(bound);
      ctx.profiler = profiler;
      const auto t0 = std::chrono::steady_clock::now();
      MTB_ASSIGN_OR_RETURN(auto rows, ExecutePlan(*st->plan, &ctx));
      if (profiler != nullptr) {
        profiler->set_total_wall_nanos(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
      }
      ResultSet rs;
      rs.column_names = st->column_names;
      rs.rows = rows.TakeRows();
      return rs;
    }
    // DML executes its bound form: no per-execution binder work.
    case sql::Stmt::Kind::kInsert:
      MTB_RETURN_IF_ERROR(
          db_->ExecuteBoundInsert(*st->dml, st->plan.get(), bound));
      return ResultSet();
    case sql::Stmt::Kind::kUpdate: {
      MTB_ASSIGN_OR_RETURN(int64_t n, db_->ExecuteBoundUpdate(*st->dml, bound));
      return RowCount("updated", n);
    }
    case sql::Stmt::Kind::kDelete: {
      MTB_ASSIGN_OR_RETURN(int64_t n, db_->ExecuteBoundDelete(*st->dml, bound));
      return RowCount("deleted", n);
    }
    default:
      return db_->ExecuteStmt(stmt_);
  }
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Result<PreparedPlan> Database::Prepare(const std::string& sql) {
  StatsFrame frame(this);
  ++CurStats()->statements_parsed;
  sql::Stmt stmt;
  {
    obs::SpanTimer span(active_trace_, "parse", CurStats());
    MTB_ASSIGN_OR_RETURN(stmt, sql::ParseStatement(sql));
  }
  return PrepareStmt(std::move(stmt), sql);
}

Result<PreparedPlan> Database::PrepareStmt(sql::Stmt stmt,
                                           std::string sql_text) {
  if (stmt.kind == sql::Stmt::Kind::kSetScope) {
    return Status::InvalidArgument(
        "SET SCOPE is an MTSQL statement; the engine only accepts SQL");
  }
  StatsFrame frame(this);
  // The compile reads the catalog/UDF registry: shared statement lock.
  StatementGuard guard(this, /*exclusive=*/false);
  PreparedPlan plan(this, std::move(stmt), std::move(sql_text));
  MTB_RETURN_IF_ERROR(plan.State().status());
  return plan;
}

Result<ResultSet> Database::Execute(const std::string& sql) {
  // Open the statement's trace record here so the compile-time spans
  // (parse/plan/verify, recorded inside Prepare) land in the same record as
  // the execute span; PreparedPlan::Execute's own record scope nests into
  // this one via the slot.
  obs::TraceRecordScope trace(obs::Tracer::Global(), &active_trace_, "engine",
                              sql);
  auto result = [&]() -> Result<ResultSet> {
    MTB_ASSIGN_OR_RETURN(PreparedPlan plan, Prepare(sql));
    return plan.Execute();
  }();
  trace.FinishFromStatus(result.ok() ? Status::OK() : result.status());
  return result;
}

Result<ResultSet> Database::ExecuteScript(const std::string& sql) {
  StatsFrame frame(this);
  MTB_ASSIGN_OR_RETURN(auto stmts, sql::ParseScript(sql));
  CurStats()->statements_parsed += stmts.size();
  ResultSet last;
  for (size_t i = 0; i < stmts.size(); ++i) {
    // The script owns the parsed statement: hand it to an uncompiled handle,
    // which compiles on its first (and only) execution, inside its own
    // trace record. The text is printed back for the trace only.
    std::string text = obs::Tracer::GlobalEnabled() ? sql::PrintStmt(stmts[i])
                                                    : std::string();
    auto r = PreparedPlan(this, std::move(stmts[i]), std::move(text)).Execute();
    if (!r.ok()) return AtScriptStatement(i + 1, r.status());
    last = std::move(r).value();
  }
  return last;
}

Result<ResultSet> Database::ExecuteStmt(const sql::Stmt& stmt) {
  AdmissionPass admission(this);
  if (!admission.status().ok()) return admission.status();
  StatsFrame frame(this);
  // DDL takes the statement lock exclusive; everything else shared. Every
  // DDL branch that changes what a UDF body may reference replans the bodies
  // before releasing the exclusive lock, so statements running under the
  // shared lock never observe a body plan mid-replan.
  StatementGuard guard(this, IsDdlStmt(stmt));
  ResultSet empty;
  switch (stmt.kind) {
    case sql::Stmt::Kind::kCreateTable:
      MTB_RETURN_IF_ERROR(ExecuteCreateTable(*stmt.create_table));
      RefreshUdfPlans();
      return empty;
    case sql::Stmt::Kind::kCreateView:
      MTB_RETURN_IF_ERROR(catalog_.CreateView(stmt.create_view->name,
                                              stmt.create_view->select->Clone()));
      RefreshUdfPlans();
      return empty;
    case sql::Stmt::Kind::kCreateFunction:
      MTB_RETURN_IF_ERROR(ExecuteCreateFunction(*stmt.create_function));
      return empty;
    case sql::Stmt::Kind::kCreateIndex:
      MTB_RETURN_IF_ERROR(catalog_.CreateIndex(stmt.create_index->name,
                                               stmt.create_index->table,
                                               stmt.create_index->columns));
      RefreshUdfPlans();
      return empty;
    case sql::Stmt::Kind::kGrant:
      // Privileges are enforced by the MT middleware (paper section 2.3);
      // the engine accepts and ignores plain-SQL grants.
      return empty;
    case sql::Stmt::Kind::kSetScope:
      return Status::InvalidArgument(
          "SET SCOPE is an MTSQL statement; the engine only accepts SQL");
    case sql::Stmt::Kind::kDrop:
      if (stmt.drop->what == sql::DropStmt::What::kTable) {
        MTB_RETURN_IF_ERROR(catalog_.DropTable(stmt.drop->name));
      } else if (stmt.drop->what == sql::DropStmt::What::kIndex) {
        MTB_RETURN_IF_ERROR(catalog_.DropIndex(stmt.drop->name));
      } else {
        MTB_RETURN_IF_ERROR(catalog_.DropView(stmt.drop->name));
      }
      RefreshUdfPlans();
      return empty;
    case sql::Stmt::Kind::kSelect:
    case sql::Stmt::Kind::kInsert:
    case sql::Stmt::Kind::kUpdate:
    case sql::Stmt::Kind::kDelete:
      break;
  }
  return Status::Internal(
      "SELECT and DML statements execute through a PreparedPlan");
}

void Database::EnsureUdfPlansFresh() {}

void Database::set_planner_options(const PlannerOptions& o) {
  StatementGuard guard(this, /*exclusive=*/true);
  planner_options_ = o;
  options_version_.fetch_add(1, std::memory_order_acq_rel);
  RefreshUdfPlans();
}

void Database::RefreshUdfPlans() {
  for (Udf* udf : udfs_.All()) {
    udf->body_plan.reset();
    auto body = sql::ParseSelect(udf->body_sql);
    if (!body.ok()) continue;
    Planner planner(&catalog_, &udfs_, planner_options_);
    auto plan = planner.PlanSelect(*body.value());
    if (!plan.ok()) continue;  // references dropped objects; stays null
    udf->body_plan = std::shared_ptr<const Plan>(std::move(plan).value());
  }
  RebuildUdfReadTables();
}

Status Database::VerifyPlan(Plan* plan) {
  if (plan_mutation_hook_) plan_mutation_hook_(plan);
  if (!verify::VerificationEnabled()) return Status::OK();
  ExecStats* stats = CurStats();
  obs::SpanTimer span(active_trace_, "verify", stats);
  ++stats->plans_verified;
  verify::PlanVerifier verifier(&verify_context());
  verify::VerifyResult result = verifier.Verify(*plan);
  if (result.ok()) return Status::OK();
  stats->verify_violations += result.violations.size();
  return Status::InvalidArgument("plan verification failed:\n" +
                                 result.Message());
}

Result<std::string> Database::ExplainSelect(
    const sql::SelectStmt& sel, const verify::VerifyContext* verify_ctx) {
  StatementGuard guard(this, /*exclusive=*/false);
  return engine::ExplainSelect(&catalog_, &udfs_, sel, planner_options_,
                               verify_ctx);
}

Result<std::string> Database::ExplainAnalyzeSelect(
    const sql::SelectStmt& sel, const verify::VerifyContext* footer_verify_ctx,
    ResultSet* result_out) {
  // The statement shell's own admission, frame and shared lock, held on past
  // the execution: rendering reads the plan's catalog objects.
  AdmissionPass admission(this);
  if (!admission.status().ok()) return admission.status();
  StatsFrame frame(this);
  StatementGuard guard(this, /*exclusive=*/false);
  sql::Stmt stmt;
  stmt.kind = sql::Stmt::Kind::kSelect;
  stmt.select = sel.Clone();
  PreparedPlan prepared(
      this, std::move(stmt),
      obs::Tracer::GlobalEnabled() ? sql::PrintSelect(sel) : std::string());
  // Instrumented execution: the same pipeline a plain run takes, plus a
  // profiler.
  obs::PlanProfiler profiler;
  StatsScope scope(CurStats());
  MTB_ASSIGN_OR_RETURN(ResultSet rs, prepared.Run({}, &profiler));
  const ExecStats d = scope.Delta();
  const Plan& plan = *prepared.state_->plan;
  std::string out = ExplainPlan(plan, &planner_options_, &profiler);
  // Footer order is fixed (docs/observability.md): verify, analyze; the
  // session layer appends its audit footer after both.
  if (footer_verify_ctx != nullptr) {
    verify::PlanVerifier verifier(footer_verify_ctx);
    out += "[verify: " + verifier.Verify(plan).Summary() + "]\n";
  }
  char footer[160];
  std::snprintf(footer, sizeof(footer),
                "[analyze: rows=%llu workers=%d time=%.3fms udf_calls=%llu"
                " udf_cache_hits=%llu]\n",
                static_cast<unsigned long long>(rs.rows.size()),
                profiler.MaxWorkers(), profiler.total_wall_nanos() / 1e6,
                static_cast<unsigned long long>(d.udf_calls),
                static_cast<unsigned long long>(d.udf_cache_hits));
  out += footer;
  obs::MetricsRegistry::Global()->Add("mtbase_engine_analyze_runs_total");
  if (result_out != nullptr) *result_out = std::move(rs);
  return out;
}

std::string Database::DumpMetrics() const {
  return obs::MetricsRegistry::Global()->RenderPrometheus();
}

Status Database::ExecuteCreateTable(const sql::CreateTableStmt& ct) {
  TableSchema schema;
  schema.name = ct.name;
  for (const auto& c : ct.columns) {
    schema.columns.push_back({c.name, c.type, c.not_null});
  }
  for (const auto& c : ct.constraints) {
    switch (c.kind) {
      case sql::TableConstraint::Kind::kPrimaryKey:
        schema.primary_key = c.columns;
        break;
      case sql::TableConstraint::Kind::kForeignKey:
        schema.foreign_keys.push_back(
            {c.name, c.columns, c.ref_table, c.ref_columns});
        break;
      case sql::TableConstraint::Kind::kCheck:
        schema.checks.push_back({c.name, sql::PrintExpr(*c.check)});
        break;
    }
  }
  if (ct.partition.method != sql::PartitionSpec::Method::kNone) {
    PartitionScheme ps;
    ps.method = ct.partition.method == sql::PartitionSpec::Method::kHash
                    ? PartitionScheme::Method::kHash
                    : PartitionScheme::Method::kList;
    ps.column = schema.FindColumn(ct.partition.column);
    if (ps.column < 0) {
      return Status::NotFound("partition column " + ct.partition.column +
                              " does not exist in " + ct.name);
    }
    if (schema.columns[static_cast<size_t>(ps.column)].type.id !=
        TypeId::kInt) {
      return Status::InvalidArgument("partition column " + ct.partition.column +
                                     " must be INTEGER");
    }
    ps.column_name = schema.columns[static_cast<size_t>(ps.column)].name;
    ps.hash_count = ct.partition.count;
    ps.lists = ct.partition.lists;
    schema.partition = std::move(ps);
  }
  return catalog_.CreateTable(std::move(schema));
}

Status Database::ExecuteCreateFunction(const sql::CreateFunctionStmt& cf) {
  auto udf = std::make_unique<Udf>();
  udf->name = cf.name;
  udf->arg_types = cf.arg_types;
  udf->return_type = cf.return_type;
  udf->body_sql = cf.body_sql;
  udf->volatility = cf.volatility;
  MTB_ASSIGN_OR_RETURN(auto body, sql::ParseSelect(cf.body_sql));
  Planner planner(&catalog_, &udfs_, planner_options_);
  MTB_ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanSelect(*body));
  ++CurStats()->statements_planned;
  udf->body_plan = std::shared_ptr<const Plan>(std::move(plan));
  MTB_RETURN_IF_ERROR(udfs_.Register(std::move(udf)));
  RebuildUdfReadTables();
  return Status::OK();
}

namespace {

/// Map source rows through the target column slots and append to the table.
/// Evaluate-all-before-mutating: every row is built and checked before the
/// first one is appended, so an arity/constraint error on row k leaves the
/// table — and with it every derived partition list and index order —
/// exactly as it was. (A half-applied multi-row INSERT used to leave rows
/// 1..k-1 behind; docs/ARCHITECTURE.md "Physical design".)
Status ApplyInsertRows(Table* table, const std::vector<int>& targets,
                       std::vector<Row> source_rows) {
  const TableSchema& schema = table->schema();
  std::vector<Row> staged;
  staged.reserve(source_rows.size());
  for (Row& src : source_rows) {
    if (src.size() != targets.size()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    Row row(schema.columns.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      row[static_cast<size_t>(targets[i])] = std::move(src[i]);
    }
    MTB_RETURN_IF_ERROR(table->CheckRow(row));
    staged.push_back(std::move(row));
  }
  // One publication: AppendRows re-checks, serializes against other DML on
  // this table, and bumps the data version once for the whole batch.
  return table->AppendRows(std::move(staged));
}

/// Resolve the INSERT target column list to schema slots.
Result<std::vector<int>> ResolveInsertTargets(const sql::InsertStmt& ins,
                                              const TableSchema& schema) {
  std::vector<int> targets;
  if (ins.columns.empty()) {
    for (size_t i = 0; i < schema.columns.size(); ++i) {
      targets.push_back(static_cast<int>(i));
    }
  } else {
    for (const auto& c : ins.columns) {
      int idx = schema.FindColumn(c);
      if (idx < 0) {
        return Status::NotFound("column " + c + " does not exist in " +
                                ins.table);
      }
      targets.push_back(idx);
    }
  }
  return targets;
}

}  // namespace

Result<std::unique_ptr<BoundDmlPlan>> Database::BindDml(const sql::Stmt& stmt) {
  auto dml = std::make_unique<BoundDmlPlan>();
  Planner planner(&catalog_, &udfs_, planner_options_);
  switch (stmt.kind) {
    case sql::Stmt::Kind::kInsert: {
      const sql::InsertStmt& ins = *stmt.insert;
      dml->table = catalog_.FindTable(ins.table);
      if (dml->table == nullptr) {
        return Status::NotFound("table " + ins.table + " does not exist");
      }
      MTB_ASSIGN_OR_RETURN(dml->targets,
                           ResolveInsertTargets(ins, dml->table->schema()));
      for (const auto& value_row : ins.rows) {
        std::vector<BoundExprPtr> bound_row;
        bound_row.reserve(value_row.size());
        for (const auto& e : value_row) {
          MTB_ASSIGN_OR_RETURN(auto bound, planner.BindExpr(*e, {}));
          bound_row.push_back(std::move(bound));
        }
        dml->value_rows.push_back(std::move(bound_row));
      }
      break;
    }
    case sql::Stmt::Kind::kUpdate: {
      const sql::UpdateStmt& up = *stmt.update;
      dml->table = catalog_.FindTable(up.table);
      if (dml->table == nullptr) {
        return Status::NotFound("table " + up.table + " does not exist");
      }
      const TableSchema& schema = dml->table->schema();
      std::vector<ColumnMeta> layout;
      for (const auto& c : schema.columns) layout.push_back({up.table, c.name});
      if (up.where) {
        MTB_ASSIGN_OR_RETURN(dml->where, planner.BindExpr(*up.where, layout));
      }
      for (const auto& [col, expr] : up.assignments) {
        int idx = schema.FindColumn(col);
        if (idx < 0) {
          return Status::NotFound("column " + col + " does not exist in " +
                                  up.table);
        }
        MTB_ASSIGN_OR_RETURN(auto bound, planner.BindExpr(*expr, layout));
        dml->sets.emplace_back(idx, std::move(bound));
      }
      break;
    }
    case sql::Stmt::Kind::kDelete: {
      const sql::DeleteStmt& del = *stmt.del;
      dml->table = catalog_.FindTable(del.table);
      if (dml->table == nullptr) {
        return Status::NotFound("table " + del.table + " does not exist");
      }
      std::vector<ColumnMeta> layout;
      for (const auto& c : dml->table->schema().columns) {
        layout.push_back({del.table, c.name});
      }
      if (del.where) {
        MTB_ASSIGN_OR_RETURN(dml->where, planner.BindExpr(*del.where, layout));
      }
      break;
    }
    default:
      return Status::Internal("BindDml called on a non-DML statement");
  }
  return dml;
}

Status Database::ExecuteBoundInsert(const BoundDmlPlan& dml,
                                    const Plan* select_plan,
                                    const std::vector<Value>* params) {
  std::vector<Row> source_rows;
  ExecContext ctx = MakeContext(params);
  if (select_plan != nullptr) {
    MTB_ASSIGN_OR_RETURN(auto rows, ExecutePlan(*select_plan, &ctx));
    source_rows = rows.TakeRows();
  } else {
    Row empty_row;
    for (const auto& bound_row : dml.value_rows) {
      Row r;
      r.reserve(bound_row.size());
      for (const auto& e : bound_row) {
        MTB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, empty_row, &ctx));
        r.push_back(std::move(v));
      }
      source_rows.push_back(std::move(r));
    }
  }
  return ApplyInsertRows(dml.table, dml.targets, std::move(source_rows));
}

Result<int64_t> Database::ExecuteBoundUpdate(const BoundDmlPlan& dml,
                                             const std::vector<Value>* params) {
  ExecContext ctx = MakeContext(params);
  // DML on a table is serialized by its write lock; concurrent readers keep
  // scanning the snapshot they pinned and flip to the new version only at
  // their next statement. Evaluate predicates and assignments over every row
  // before publishing anything (same atomic shape as DELETE below): an
  // expression error must leave the table — and therefore the
  // shared-UDF-cache epoch — exactly as it was.
  auto write_lock = dml.table->LockForWrite();
  const auto snap = dml.table->Snapshot();
  const std::vector<Row>& rows = snap->rows();
  std::vector<std::pair<size_t, Row>> next_rows;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (dml.where) {
      MTB_ASSIGN_OR_RETURN(Value v, EvalExpr(*dml.where, r, &ctx));
      if (!IsTrue(v)) continue;
    }
    Row next = r;
    for (const auto& [idx, expr] : dml.sets) {
      MTB_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, r, &ctx));
      next[static_cast<size_t>(idx)] = std::move(v);
    }
    next_rows.emplace_back(i, std::move(next));
  }
  if (!next_rows.empty()) {
    std::vector<Row> updated(rows);
    for (auto& [i, next] : next_rows) updated[i] = std::move(next);
    dml.table->ReplaceRows(std::move(updated));
  }
  return static_cast<int64_t>(next_rows.size());
}

Result<int64_t> Database::ExecuteBoundDelete(const BoundDmlPlan& dml,
                                             const std::vector<Value>* params) {
  ExecContext ctx = MakeContext(params);
  // Same discipline as UPDATE: hold the table's write lock, evaluate the
  // predicate over every row of a pinned snapshot before publishing, then
  // swap in the surviving rows as one new version.
  auto write_lock = dml.table->LockForWrite();
  const auto snap = dml.table->Snapshot();
  const std::vector<Row>& rows = snap->rows();
  std::vector<char> remove(rows.size(), 1);
  if (dml.where) {
    for (size_t i = 0; i < rows.size(); ++i) {
      MTB_ASSIGN_OR_RETURN(Value v, EvalExpr(*dml.where, rows[i], &ctx));
      remove[i] = IsTrue(v) ? 1 : 0;
    }
  }
  std::vector<Row> kept;
  kept.reserve(rows.size());
  int64_t deleted = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (remove[i]) {
      ++deleted;
    } else {
      kept.push_back(rows[i]);
    }
  }
  if (deleted > 0) dml.table->ReplaceRows(std::move(kept));
  return deleted;
}

Status Database::ValidateTable(const Table& table) {
  const TableSchema& schema = table.schema();
  // Validation reads one consistent snapshot of each table involved; DML
  // racing with it lands in a later version.
  const auto table_snap = table.Snapshot();
  const std::vector<Row>& table_rows = table_snap->rows();
  // The key of `row` over the columns `cols`, into `key`; whether any key
  // column is NULL.
  auto gather = [](const Row& row, const std::vector<int>& cols,
                   std::vector<Value>* key) {
    key->resize(cols.size());
    bool any_null = false;
    for (size_t k = 0; k < cols.size(); ++k) {
      (*key)[k] = row[static_cast<size_t>(cols[k])];
      any_null = any_null || (*key)[k].is_null();
    }
    return any_null;
  };
  std::vector<Value> key;
  // Primary key uniqueness (NULL equals NULL here, as in every KeyIndex).
  if (!schema.primary_key.empty()) {
    std::vector<int> pk;
    for (const auto& c : schema.primary_key) pk.push_back(schema.FindColumn(c));
    KeyIndex seen(pk.size(), table_rows.size());
    for (const Row& r : table_rows) {
      gather(r, pk, &key);
      if (!seen.FindOrInsert(key.data(), HashRow(key)).inserted) {
        return Status::ConstraintViolation("duplicate primary key in " +
                                           schema.name);
      }
    }
  }
  // Foreign keys.
  for (const auto& fk : schema.foreign_keys) {
    const Table* ref = catalog_.FindTable(fk.ref_table);
    if (ref == nullptr) {
      return Status::NotFound("FK reference table " + fk.ref_table +
                              " does not exist");
    }
    std::vector<int> local, remote;
    for (const auto& c : fk.columns) local.push_back(schema.FindColumn(c));
    for (const auto& c : fk.ref_columns) {
      remote.push_back(ref->schema().FindColumn(c));
    }
    const auto ref_snap = ref->Snapshot();
    KeyIndex keys(remote.size(), ref_snap->rows().size());
    for (const Row& r : ref_snap->rows()) {
      gather(r, remote, &key);
      keys.FindOrInsert(key.data(), HashRow(key));
    }
    for (const Row& r : table_rows) {
      if (gather(r, local, &key)) continue;
      if (keys.width() != key.size() ||
          keys.Find(key.data(), HashRow(key)) == KeyIndex::kNone) {
        return Status::ConstraintViolation(
            "FK violation in " + schema.name + " (" + fk.name + ")");
      }
    }
  }
  // Database-level check constraints (see paper Appendix A.1).
  for (const auto& check : schema.checks) {
    MTB_ASSIGN_OR_RETURN(auto expr, sql::ParseExpression(check.expr_sql));
    Planner planner(&catalog_, &udfs_, planner_options_);
    MTB_ASSIGN_OR_RETURN(auto bound, planner.BindExpr(*expr, {}));
    ExecContext ctx = MakeContext();
    Row empty;
    MTB_ASSIGN_OR_RETURN(Value v, EvalExpr(*bound, empty, &ctx));
    if (!IsTrue(v)) {
      return Status::ConstraintViolation("check constraint " + check.name +
                                         " violated in " + schema.name);
    }
  }
  return Status::OK();
}

Status Database::ValidateConstraints(const std::string& table) {
  if (!table.empty()) {
    const Table* t = catalog_.FindTable(table);
    if (t == nullptr) {
      return Status::NotFound("table " + table + " does not exist");
    }
    return ValidateTable(*t);
  }
  for (const auto& name : catalog_.TableNames()) {
    MTB_RETURN_IF_ERROR(ValidateTable(*catalog_.FindTable(name)));
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace mtbase
