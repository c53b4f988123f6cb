#include "mt/session.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"
#include "engine/obs/statement.h"
#include "engine/obs/trace.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace mtbase {
namespace mt {

thread_local const Middleware* Middleware::tl_meta_owner_ = nullptr;
thread_local int Middleware::tl_meta_depth_ = 0;

Middleware::MetaGuard::MetaGuard(const Middleware* mw, bool exclusive)
    : mw_(mw) {
  if (tl_meta_owner_ == mw) {
    // Re-entrant: adopt the outer guard's mode. Nested exclusive requests
    // under an outer shared guard do not occur (meta mutations are only
    // initiated at statement top level).
    ++tl_meta_depth_;
    return;
  }
  prev_owner_ = tl_meta_owner_;
  prev_depth_ = tl_meta_depth_;
  if (exclusive) {
    mw->meta_mu_.lock();
  } else {
    mw->meta_mu_.lock_shared();
  }
  owns_ = true;
  exclusive_ = exclusive;
  tl_meta_owner_ = mw;
  tl_meta_depth_ = 1;
}

Middleware::MetaGuard::~MetaGuard() {
  if (!owns_) {
    --tl_meta_depth_;
    return;
  }
  tl_meta_owner_ = prev_owner_;
  tl_meta_depth_ = prev_depth_;
  if (exclusive_) {
    mw_->meta_mu_.unlock();
  } else {
    mw_->meta_mu_.unlock_shared();
  }
}

void Middleware::RegisterTenant(int64_t ttid) {
  MetaGuard guard(this, /*exclusive=*/true);
  auto it = std::lower_bound(tenants_.begin(), tenants_.end(), ttid);
  if (it == tenants_.end() || *it != ttid) {
    tenants_.insert(it, ttid);
    tenant_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
}

std::vector<int64_t> Middleware::tenants() const {
  MetaGuard guard(this, /*exclusive=*/false);
  return tenants_;
}

void Middleware::SetMaxThreads(int max_threads) {
  // One read-modify-write under the engine's exclusive statement lock; bumps
  // the fingerprinted options version.
  db_->update_planner_options(
      [&](engine::PlannerOptions* opts) { opts->max_threads = max_threads; });
}

bool Middleware::IsAllTenants(const std::vector<int64_t>& dataset) const {
  MetaGuard guard(this, /*exclusive=*/false);
  if (dataset.size() != tenants_.size()) return false;
  std::vector<int64_t> sorted = dataset;
  std::sort(sorted.begin(), sorted.end());
  return sorted == tenants_;
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Status Session::SetScope(const std::string& scope_text) {
  MTB_ASSIGN_OR_RETURN(Scope s, Scope::Parse(scope_text));
  scope_ = std::move(s);
  return Status::OK();
}

namespace {

void CollectTsTablesFromSelect(const sql::SelectStmt& sel,
                               const MTSchema& schema,
                               std::set<std::string>* out);

void CollectTsTablesFromExpr(const sql::Expr& e, const MTSchema& schema,
                             std::set<std::string>* out) {
  if (e.subquery) CollectTsTablesFromSelect(*e.subquery, schema, out);
  for (const auto& a : e.args) CollectTsTablesFromExpr(*a, schema, out);
  if (e.case_operand) CollectTsTablesFromExpr(*e.case_operand, schema, out);
  if (e.else_expr) CollectTsTablesFromExpr(*e.else_expr, schema, out);
}

void CollectTsTablesFromTref(const sql::TableRef& t, const MTSchema& schema,
                             std::set<std::string>* out) {
  switch (t.kind) {
    case sql::TableRef::Kind::kBase: {
      const MTTableInfo* info = schema.FindTable(t.name);
      if (info != nullptr && info->tenant_specific()) {
        out->insert(ToLowerCopy(t.name));
      }
      break;
    }
    case sql::TableRef::Kind::kSubquery:
      CollectTsTablesFromSelect(*t.subquery, schema, out);
      break;
    case sql::TableRef::Kind::kJoin:
      CollectTsTablesFromTref(*t.left, schema, out);
      CollectTsTablesFromTref(*t.right, schema, out);
      if (t.join_cond) CollectTsTablesFromExpr(*t.join_cond, schema, out);
      break;
  }
}

void CollectTsTablesFromSelect(const sql::SelectStmt& sel,
                               const MTSchema& schema,
                               std::set<std::string>* out) {
  for (const auto& t : sel.from) CollectTsTablesFromTref(*t, schema, out);
  for (const auto& item : sel.items) {
    if (item.expr->kind != sql::ExprKind::kStar) {
      CollectTsTablesFromExpr(*item.expr, schema, out);
    }
  }
  if (sel.where) CollectTsTablesFromExpr(*sel.where, schema, out);
  for (const auto& g : sel.group_by) CollectTsTablesFromExpr(*g, schema, out);
  if (sel.having) CollectTsTablesFromExpr(*sel.having, schema, out);
  for (const auto& o : sel.order_by) {
    CollectTsTablesFromExpr(*o.expr, schema, out);
  }
}

}  // namespace

void Session::CollectTsTables(const sql::Stmt& stmt,
                              std::vector<std::string>* out) const {
  std::set<std::string> set;
  switch (stmt.kind) {
    case sql::Stmt::Kind::kSelect:
      CollectTsTablesFromSelect(*stmt.select, *mw_->schema(), &set);
      break;
    case sql::Stmt::Kind::kInsert: {
      const MTTableInfo* info = mw_->schema()->FindTable(stmt.insert->table);
      if (info != nullptr && info->tenant_specific()) {
        set.insert(ToLowerCopy(stmt.insert->table));
      }
      if (stmt.insert->select) {
        CollectTsTablesFromSelect(*stmt.insert->select, *mw_->schema(), &set);
      }
      break;
    }
    case sql::Stmt::Kind::kUpdate: {
      const MTTableInfo* info = mw_->schema()->FindTable(stmt.update->table);
      if (info != nullptr && info->tenant_specific()) {
        set.insert(ToLowerCopy(stmt.update->table));
      }
      break;
    }
    case sql::Stmt::Kind::kDelete: {
      const MTTableInfo* info = mw_->schema()->FindTable(stmt.del->table);
      if (info != nullptr && info->tenant_specific()) {
        set.insert(ToLowerCopy(stmt.del->table));
      }
      break;
    }
    default:
      break;
  }
  out->assign(set.begin(), set.end());
}

Result<std::vector<int64_t>> Session::ResolveDataset(const sql::Stmt& stmt) {
  std::vector<int64_t> dataset;
  switch (scope_.kind) {
    case Scope::Kind::kDefault:
      dataset = {client_};
      break;
    case Scope::Kind::kSimple:
      // The empty IN list means "all tenants" (paper section 2.1).
      dataset = scope_.ids.empty() ? mw_->tenants() : scope_.ids;
      break;
    case Scope::Kind::kComplex: {
      // Build "SELECT ttid FROM <table> WHERE <pred>" and run it through the
      // canonical rewriter so constants are interpreted in C's format
      // (paper Listing 12).
      const MTTableInfo* info = mw_->schema()->FindTable(scope_.table);
      if (info == nullptr || !info->tenant_specific()) {
        return Status::InvalidArgument(
            "complex scope must reference a tenant-specific table: " +
            scope_.table);
      }
      auto q = std::make_unique<sql::SelectStmt>();
      q->distinct = true;
      sql::SelectItem item;
      item.expr = sql::Col(scope_.table, kTtidColumn);
      q->items.push_back(std::move(item));
      auto tref = std::make_unique<sql::TableRef>();
      tref->kind = sql::TableRef::Kind::kBase;
      tref->name = scope_.table;
      q->from.push_back(std::move(tref));
      if (scope_.where) q->where = scope_.where->Clone();
      // Conversions in the scope predicate run with D = all tenants; the
      // scope query itself is not D-filtered.
      RewriteOptions opts;
      opts.drop_dfilters = true;
      opts.universe = mw_->tenants();
      Rewriter rewriter(mw_->schema(), mw_->conversions(), client_,
                        mw_->tenants(), opts);
      // The projected ttid is the meta column; rewrite only the predicate.
      auto rewritten = std::make_unique<sql::SelectStmt>(std::move(*q));
      MTB_ASSIGN_OR_RETURN(rewritten, rewriter.RewriteQuery(*rewritten));
      Optimizer opt(mw_->conversions(), client_);
      MTB_RETURN_IF_ERROR(opt.Optimize(rewritten.get(), level_));
      std::string sql_text = sql::PrintSelect(*rewritten);
      // The scope query itself is contractually unfiltered (it determines
      // D); tell the verifier so before the engine compiles it.
      engine::verify::VerifyContext vctx;
      vctx.check_tenant = true;
      vctx.ttid_column = kTtidColumn;
      vctx.tenant_tables = mw_->schema()->TenantSpecificTables();
      vctx.expected_tenants = mw_->tenants();
      vctx.allow_unfiltered = true;
      mw_->db()->set_verify_context(std::move(vctx));
      MTB_ASSIGN_OR_RETURN(auto rs, mw_->db()->Execute(sql_text));
      for (const auto& row : rs.rows) {
        if (!row.empty() && !row[0].is_null()) {
          dataset.push_back(row[0].int_value());
        }
      }
      std::sort(dataset.begin(), dataset.end());
      break;
    }
  }
  // Prune against privileges: D -> D' (paper section 3).
  std::vector<std::string> ts_tables;
  CollectTsTables(stmt, &ts_tables);
  return mw_->privileges()->PruneDataset(dataset, ts_tables, client_);
}

engine::verify::VerifyContext Session::MakeVerifyContext(
    const std::vector<int64_t>& dataset) const {
  engine::verify::VerifyContext ctx;
  ctx.check_tenant = true;
  ctx.ttid_column = kTtidColumn;
  ctx.tenant_tables = mw_->schema()->TenantSpecificTables();
  ctx.expected_tenants = dataset;
  std::sort(ctx.expected_tenants.begin(), ctx.expected_tenants.end());
  // When o1 elides the D-filters (D' = all tenants), unfiltered access is
  // exactly what the rewrite contract promises.
  ctx.allow_unfiltered = OptionsFor(dataset).drop_dfilters;
  return ctx;
}

RewriteOptions Session::OptionsFor(const std::vector<int64_t>& dataset) const {
  RewriteOptions opts;
  opts.universe = mw_->tenants();
  if (level_ == OptLevel::kCanonical) return opts;
  // o1, trivial semantic optimizations (paper section 4.1).
  opts.drop_dfilters = mw_->IsAllTenants(dataset);
  opts.drop_ttid_joins = dataset.size() == 1;
  opts.drop_conversions = dataset.size() == 1 && dataset[0] == client_;
  return opts;
}

Result<std::vector<sql::Stmt>> Session::RewriteStmt(
    const sql::Stmt& stmt, std::vector<int64_t>* dataset_out) {
  MTB_ASSIGN_OR_RETURN(std::vector<int64_t> dataset, ResolveDataset(stmt));
  if (dataset_out != nullptr) *dataset_out = dataset;
  return RewriteWithDataset(stmt, dataset);
}

audit::AuditContext Session::MakeAuditContext(
    const std::vector<int64_t>& dataset) const {
  audit::AuditContext ctx;
  ctx.schema = mw_->schema();
  ctx.conversions = mw_->conversions();
  ctx.catalog = mw_->db()->catalog();
  ctx.udfs = mw_->db()->udfs();
  ctx.client = client_;
  ctx.dataset = dataset;
  std::sort(ctx.dataset.begin(), ctx.dataset.end());
  ctx.all_tenants = mw_->tenants();  // kept sorted by RegisterTenant
  ctx.options = OptionsFor(dataset);
  return ctx;
}

namespace {

/// The SELECT body the optimizer will transform, if any.
sql::SelectStmt* OptimizableSelect(sql::Stmt* s) {
  if (s->kind == sql::Stmt::Kind::kSelect) return s->select.get();
  if (s->kind == sql::Stmt::Kind::kInsert && s->insert->select) {
    return s->insert->select.get();
  }
  return nullptr;
}

}  // namespace

Result<std::vector<sql::Stmt>> Session::RewriteWithDataset(
    const sql::Stmt& stmt, const std::vector<int64_t>& dataset,
    audit::AuditReport* audit_out) {
  engine::ExecStats* stats = mw_->db()->CurStats();
  ++stats->statements_rewritten;
  std::vector<sql::Stmt> stmts;
  {
    obs::SpanTimer span(active_trace_, "rewrite", stats);
    Rewriter rewriter(mw_->schema(), mw_->conversions(), client_, dataset,
                      OptionsFor(dataset));
    MTB_ASSIGN_OR_RETURN(stmts, rewriter.RewriteStatement(stmt));
    if (mw_->rewrite_mutation_hook()) {
      for (auto& s : stmts) mw_->rewrite_mutation_hook()(&s);
    }
  }

  // Audit the rewriter's output before the optimizer touches it; keep
  // pre-optimizer clones of the SELECT bodies as the canonical side of the
  // cross-level equivalence comparison. Enforcement refuses before any
  // further compilation work — except on the EXPLAIN (AUDIT) surface
  // (audit_out != nullptr), which reports instead of refusing.
  const bool auditing = audit_out != nullptr || audit::AuditEnabled();
  audit::AuditReport report;
  audit::AuditContext actx;
  std::vector<std::unique_ptr<sql::SelectStmt>> pre_opt;
  if (auditing) {
    // Traced as "audit" even though it interleaves with optimization below:
    // repeated phases in one record sum to the phase total.
    obs::SpanTimer span(active_trace_, "audit", stats);
    actx = MakeAuditContext(dataset);
    audit::RewriteAuditor auditor(&actx);
    report.statements.resize(stmts.size());
    pre_opt.resize(stmts.size());
    for (size_t i = 0; i < stmts.size(); ++i) {
      auditor.AuditRewrite(stmts[i], &report.statements[i]);
      if (const sql::SelectStmt* sel = OptimizableSelect(&stmts[i])) {
        pre_opt[i] = sel->Clone();
      }
    }
    stats->rewrites_audited += stmts.size();
    if (!report.ok() && audit_out == nullptr) {
      stats->audit_violations += report.total_violations();
      return Status::InvalidArgument("rewrite audit failed (" +
                                     report.Codes() + "):\n" +
                                     report.Message());
    }
  }

  {
    obs::SpanTimer span(active_trace_, "rewrite", stats);
    Optimizer opt(mw_->conversions(), client_);
    for (auto& s : stmts) {
      if (sql::SelectStmt* sel = OptimizableSelect(&s)) {
        MTB_RETURN_IF_ERROR(opt.Optimize(sel, level_));
      }
    }
  }

  if (auditing) {
    obs::SpanTimer span(active_trace_, "audit", stats);
    audit::RewriteAuditor auditor(&actx);
    for (size_t i = 0; i < stmts.size(); ++i) {
      if (!pre_opt[i]) continue;
      auditor.AuditOptimized(*pre_opt[i], *OptimizableSelect(&stmts[i]),
                             &report.statements[i]);
    }
    stats->audit_violations += report.total_violations();
    if (!report.ok() && audit_out == nullptr) {
      return Status::InvalidArgument("rewrite audit failed (" +
                                     report.Codes() + "):\n" +
                                     report.Message());
    }
    if (audit_out != nullptr) *audit_out = std::move(report);
  }
  return stmts;
}

bool Session::MatchesCompilationKey(const CompilationKey& key) const {
  return key.valid && key.client == client_ && key.level == level_ &&
         key.scope_kind == scope_.kind && key.scope_text == scope_.text &&
         key.privilege_epoch == mw_->privileges()->epoch() &&
         key.schema_epoch == mw_->schema()->epoch() &&
         key.tenant_epoch == mw_->tenant_epoch() &&
         key.conversion_epoch == mw_->conversions()->epoch() &&
         key.engine_version == mw_->db()->compilation_version();
}

CompilationKey Session::CurrentCompilationKey() const {
  CompilationKey key;
  key.valid = true;
  key.client = client_;
  key.level = level_;
  key.scope_kind = scope_.kind;
  key.scope_text = scope_.text;
  key.privilege_epoch = mw_->privileges()->epoch();
  key.schema_epoch = mw_->schema()->epoch();
  key.tenant_epoch = mw_->tenant_epoch();
  key.conversion_epoch = mw_->conversions()->epoch();
  key.engine_version = mw_->db()->compilation_version();
  return key;
}

// ---------------------------------------------------------------------------
// PreparedQuery
// ---------------------------------------------------------------------------

namespace {

/// Serialize everything a cached compilation's validity depends on into the
/// cross-session cache key. Statement text is appended by the caller; all
/// epochs are in the key, so state changes invalidate by ceasing to match
/// (mt/plan_cache.h).
std::string SerializeCompilationKey(const CompilationKey& key) {
  std::string out;
  out += std::to_string(key.client);
  out += '|';
  out += std::to_string(static_cast<int>(key.level));
  out += '|';
  out += std::to_string(static_cast<int>(key.scope_kind));
  out += '|';
  out += key.scope_text;
  out += '|';
  out += std::to_string(key.privilege_epoch);
  out += '|';
  out += std::to_string(key.schema_epoch);
  out += '|';
  out += std::to_string(key.tenant_epoch);
  out += '|';
  out += std::to_string(key.conversion_epoch);
  out += '|';
  out += std::to_string(key.engine_version);
  out += '|';
  for (int64_t t : key.dataset) {
    out += std::to_string(t);
    out += ',';
  }
  return out;
}

}  // namespace

PreparedQuery::PreparedQuery(Session* session, sql::Stmt stmt,
                             std::string mtsql)
    : session_(session),
      mtsql_(std::move(mtsql)),
      stmt_(std::move(stmt)),
      param_count_(sql::MaxParamIndex(stmt_)) {}

Status PreparedQuery::Recompile(const std::vector<int64_t>& dataset) {
  // Invalidate first so a failed compile cannot leave a usable stale handle.
  key_.valid = false;
  plans_.reset();
  sql_.clear();
  CompilationKey key = session_->CurrentCompilationKey();
  key.dataset = dataset;
  MTB_ASSIGN_OR_RETURN(auto stmts,
                       session_->RewriteWithDataset(stmt_, dataset));
  // Tell the verifier what the rewrite just promised: every plan compiled
  // below must restrict tenant-specific access to this dataset.
  session_->mw_->db()->set_verify_context(
      session_->MakeVerifyContext(dataset));
  auto plans = std::make_shared<std::vector<engine::PreparedPlan>>();
  for (auto& s : stmts) {
    std::string text = sql::PrintStmt(s);
    if (!sql_.empty()) sql_ += ";\n";
    sql_ += text;
    MTB_ASSIGN_OR_RETURN(
        auto plan,
        session_->mw_->db()->PrepareStmt(std::move(s), std::move(text)));
    plans->push_back(std::move(plan));
  }
  plans_ = std::move(plans);
  key_ = std::move(key);
  return Status::OK();
}

Result<engine::ResultSet> PreparedQuery::Execute(
    const std::vector<Value>& params) {
  if (session_->closed()) {
    return Status::Internal("statement cancelled: session closed");
  }
  // Concurrency shell: the session's closed flag cancels admission waits,
  // the stats frame keeps this statement's counters race-free until they
  // merge into the database totals, and the shared meta lock holds the MT
  // meta state (schema, privileges, conversions, tenants) still for the
  // whole compile+execute path. Then the session-layer observability shell
  // (engine/obs/statement.h). Nested statements (e.g. a one-shot
  // Session::Execute that already opened a record) append their spans to
  // the enclosing record via the Session slot. The MTSQL text is empty on
  // the one-shot path — print the AST back only when tracing is on.
  engine::ScopedCancelToken cancel(session_->closed_.get());
  engine::Database::StatsFrame frame(session_->mw_->db());
  Middleware::MetaGuard meta(session_->mw_, /*exclusive=*/false);
  obs::StatementShell shell(
      obs::Layer::kSession, &session_->active_trace_,
      !mtsql_.empty() || !obs::Tracer::GlobalEnabled() ? mtsql_
                                                       : sql::PrintStmt(stmt_),
      session_->mw_->db()->CurStats());
  Result<engine::ResultSet> result = ExecuteImpl(params);
  shell.Finish(result.status());
  return result;
}

Result<engine::ResultSet> PreparedQuery::ExecuteImpl(
    const std::vector<Value>& params) {
  std::vector<int64_t> dataset;
  bool resolved = false;
  if (session_->scope_.kind == Scope::Kind::kComplex) {
    // A complex scope is data-dependent: re-resolve D' on every execution
    // and key the cache on the resolved tenant set.
    MTB_ASSIGN_OR_RETURN(dataset, session_->ResolveDataset(stmt_));
    resolved = true;
  }
  bool hit = session_->MatchesCompilationKey(key_) &&
             (!resolved || dataset == key_.dataset);
  if (!hit) {
    if (!resolved) {
      MTB_ASSIGN_OR_RETURN(dataset, session_->ResolveDataset(stmt_));
    }
    // Cross-session cache: before recompiling, adopt another session's (or
    // another handle's) compilation of this statement under identical state.
    // The adopted plans were verified at their compile under the same
    // context this session would install (same client, dataset, epochs).
    CompilationKey key = session_->CurrentCompilationKey();
    key.dataset = dataset;
    std::string cache_key = SerializeCompilationKey(key);
    cache_key += '\n';
    cache_key += mtsql_.empty() ? sql::PrintStmt(stmt_) : mtsql_;
    SharedPlanCache* cache = session_->mw_->plan_cache();
    CachedPlans cached;
    if (cache->Lookup(cache_key, &cached)) {
      sql_ = cached.sql;
      plans_ = cached.plans;
      key_ = std::move(key);
      // A shared hit skips the rewriter and the planner exactly like a
      // private fingerprint hit does.
      ++session_->mw_->db()->CurStats()->rewrite_cache_hits;
    } else {
      MTB_RETURN_IF_ERROR(Recompile(dataset));
      cache->Insert(std::move(cache_key), {sql_, plans_});
    }
  } else {
    ++session_->mw_->db()->CurStats()->rewrite_cache_hits;
  }
  session_->last_sql_ = sql_;
  obs::SpanTimer span(session_->active_trace_, "execute",
                      session_->mw_->db()->CurStats());
  engine::ResultSet last;
  for (auto& plan : *plans_) {
    MTB_ASSIGN_OR_RETURN(last, plan.Execute(params));
  }
  return last;
}

Status Session::HandleGrant(const sql::GrantStmt& grant) {
  std::vector<int64_t> grantees;
  if (grant.to_all) {
    // GRANT ... TO ALL resolves against the current dataset D (paper §2.3).
    sql::Stmt dummy;
    dummy.kind = sql::Stmt::Kind::kSelect;
    dummy.select = std::make_unique<sql::SelectStmt>();
    MTB_ASSIGN_OR_RETURN(grantees, ResolveDataset(dummy));
  } else {
    grantees = {grant.grantee};
  }
  for (const auto& priv_name : grant.privileges) {
    std::vector<Privilege> privs;
    if (EqualsIgnoreCase(priv_name, "ALL")) {
      privs = {Privilege::kRead, Privilege::kInsert, Privilege::kUpdate,
               Privilege::kDelete};
    } else {
      MTB_ASSIGN_OR_RETURN(Privilege p, ParsePrivilege(priv_name));
      privs = {p};
    }
    const std::string table = grant.on_database ? "" : grant.table;
    for (Privilege p : privs) {
      for (int64_t g : grantees) {
        if (grant.revoke) {
          mw_->privileges()->Revoke(client_, table, p, g);
        } else {
          mw_->privileges()->Grant(client_, table, p, g);
        }
      }
    }
  }
  return Status::OK();
}

Result<engine::ResultSet> Session::ExecuteStmt(const sql::Stmt& stmt) {
  engine::ResultSet empty;
  switch (stmt.kind) {
    case sql::Stmt::Kind::kSetScope:
      // Session-local state: a Session serves one client thread at a time.
      MTB_RETURN_IF_ERROR(SetScope(stmt.set_scope->scope_text));
      return empty;
    case sql::Stmt::Kind::kGrant: {
      // DCL mutates the privilege matrix: exclusive over the MT meta state.
      Middleware::MetaGuard meta(mw_, /*exclusive=*/true);
      MTB_RETURN_IF_ERROR(HandleGrant(*stmt.grant));
      return empty;
    }
    case sql::Stmt::Kind::kCreateFunction:
      // Conversion functions pass through to the DBMS unchanged.
      return mw_->db()->ExecuteStmt(stmt);
    case sql::Stmt::Kind::kCreateIndex:
      // Physical-design DDL passes through: index keys name lowered physical
      // columns (ttid included). The catalog version bump recompiles every
      // prepared query's fingerprint, so new access paths are picked up.
      return mw_->db()->ExecuteStmt(stmt);
    case sql::Stmt::Kind::kCreateTable: {
      // MTSQL DDL mutates the MT schema registry: exclusive meta lock, then
      // the engine's own exclusive statement lock nests inside.
      Middleware::MetaGuard meta(mw_, /*exclusive=*/true);
      MTB_RETURN_IF_ERROR(mw_->schema()->RegisterTable(*stmt.create_table));
      Rewriter rewriter(mw_->schema(), mw_->conversions(), client_, {client_},
                        RewriteOptions{});
      auto lowered = rewriter.LowerCreateTable(*stmt.create_table);
      if (!lowered.ok()) {
        (void)mw_->schema()->DropTable(stmt.create_table->name);
        return lowered.status();
      }
      sql::Stmt s;
      s.kind = sql::Stmt::Kind::kCreateTable;
      s.create_table =
          std::make_unique<sql::CreateTableStmt>(std::move(lowered).value());
      last_sql_ = sql::PrintStmt(s);
      auto rs = mw_->db()->ExecuteStmt(s);
      if (!rs.ok()) {
        (void)mw_->schema()->DropTable(stmt.create_table->name);
        return rs.status();
      }
      return rs;
    }
    case sql::Stmt::Kind::kDrop: {
      Middleware::MetaGuard meta(mw_, /*exclusive=*/true);
      if (stmt.drop->what == sql::DropStmt::What::kTable) {
        (void)mw_->schema()->DropTable(stmt.drop->name);
      }
      return mw_->db()->ExecuteStmt(stmt);
    }
    default: {
      Middleware::MetaGuard meta(mw_, /*exclusive=*/false);
      std::vector<int64_t> dataset;
      MTB_ASSIGN_OR_RETURN(auto stmts, RewriteStmt(stmt, &dataset));
      mw_->db()->set_verify_context(MakeVerifyContext(dataset));
      engine::ResultSet last;
      last_sql_.clear();
      for (const auto& s : stmts) {
        std::string text = sql::PrintStmt(s);
        if (!last_sql_.empty()) last_sql_ += ";\n";
        last_sql_ += text;
        MTB_ASSIGN_OR_RETURN(last, mw_->db()->Execute(text));
      }
      return last;
    }
  }
}

Result<engine::ResultSet> Session::ExecuteOwned(sql::Stmt stmt) {
  switch (stmt.kind) {
    case sql::Stmt::Kind::kSelect:
    case sql::Stmt::Kind::kInsert:
    case sql::Stmt::Kind::kUpdate:
    case sql::Stmt::Kind::kDelete: {
      // One-shot = prepare + execute through the same compilation path the
      // prepared API uses.
      PreparedQuery pq(this, std::move(stmt), std::string());
      return pq.Execute();
    }
    default:
      return ExecuteStmt(stmt);
  }
}

void Session::Close() {
  closed_->store(true, std::memory_order_release);
  // Wake this session's statements queued at admission control so they
  // observe the flag and abort instead of executing.
  mw_->db()->admission()->NotifyAll();
}

Result<PreparedQuery> Session::Prepare(const std::string& mtsql) {
  engine::Database::StatsFrame frame(mw_->db());
  ++mw_->db()->CurStats()->statements_parsed;
  MTB_ASSIGN_OR_RETURN(sql::Stmt stmt, sql::ParseStatement(mtsql));
  switch (stmt.kind) {
    case sql::Stmt::Kind::kSelect:
    case sql::Stmt::Kind::kInsert:
    case sql::Stmt::Kind::kUpdate:
    case sql::Stmt::Kind::kDelete:
      return PreparedQuery(this, std::move(stmt), mtsql);
    default:
      return Status::InvalidArgument(
          "only queries and DML can be prepared; run session, DCL and DDL "
          "statements through Execute()");
  }
}

Result<engine::ResultSet> Session::Execute(const std::string& mtsql) {
  // Open the session-layer trace record here so the parse span and the
  // rewrite/audit/execute spans of the nested prepared path all land in one
  // record for the one-shot surface.
  engine::Database::StatsFrame frame(mw_->db());
  obs::TraceRecordScope trace(obs::Tracer::Global(), &active_trace_,
                              "session", mtsql);
  auto result = [&]() -> Result<engine::ResultSet> {
    engine::ExecStats* stats = mw_->db()->CurStats();
    ++stats->statements_parsed;
    sql::Stmt stmt;
    {
      obs::SpanTimer span(active_trace_, "parse", stats);
      MTB_ASSIGN_OR_RETURN(stmt, sql::ParseStatement(mtsql));
    }
    return ExecuteOwned(std::move(stmt));
  }();
  trace.FinishFromStatus(result.ok() ? Status::OK() : result.status());
  return result;
}

Result<engine::ResultSet> Session::ExecuteScript(const std::string& mtsql) {
  engine::Database::StatsFrame frame(mw_->db());
  MTB_ASSIGN_OR_RETURN(auto stmts, sql::ParseScript(mtsql));
  mw_->db()->CurStats()->statements_parsed += stmts.size();
  engine::ResultSet last;
  for (size_t i = 0; i < stmts.size(); ++i) {
    auto r = ExecuteOwned(std::move(stmts[i]));
    if (!r.ok()) return AtScriptStatement(i + 1, r.status());
    last = std::move(r).value();
  }
  return last;
}

Result<std::string> Session::Explain(const std::string& mtsql,
                                     const ExplainOptions& options,
                                     engine::ResultSet* analyze_result) {
  engine::Database::StatsFrame frame(mw_->db());
  Middleware::MetaGuard meta(mw_, /*exclusive=*/false);
  MTB_ASSIGN_OR_RETURN(sql::Stmt stmt, sql::ParseStatement(mtsql));
  MTB_ASSIGN_OR_RETURN(std::vector<int64_t> dataset, ResolveDataset(stmt));
  audit::AuditReport report;
  MTB_ASSIGN_OR_RETURN(
      auto stmts,
      RewriteWithDataset(stmt, dataset, options.audit ? &report : nullptr));
  engine::verify::VerifyContext vctx;
  if (options.verify || options.analyze) vctx = MakeVerifyContext(dataset);
  if (options.analyze) {
    // ANALYZE executes the plans, so install this session's verify context
    // first — enforcement (debug builds / MTBASE_VERIFY_PLANS=1) proves the
    // same invariants a plain execution of the statement would.
    mw_->db()->set_verify_context(MakeVerifyContext(dataset));
  }
  std::string out;
  for (size_t i = 0; i < stmts.size(); ++i) {
    const sql::Stmt& s = stmts[i];
    std::string text;
    if (s.kind == sql::Stmt::Kind::kUpdate ||
        s.kind == sql::Stmt::Kind::kDelete) {
      // A write renders its target plan; ANALYZE never executes it.
      MTB_ASSIGN_OR_RETURN(
          text, mw_->db()->ExplainDml(s, options.verify ? &vctx : nullptr));
    } else if (s.kind != sql::Stmt::Kind::kSelect) {
      continue;
    } else if (options.analyze) {
      MTB_ASSIGN_OR_RETURN(
          text, mw_->db()->ExplainAnalyzeSelect(
                    *s.select, options.verify ? &vctx : nullptr,
                    analyze_result));
    } else {
      MTB_ASSIGN_OR_RETURN(
          text, mw_->db()->ExplainSelect(*s.select,
                                         options.verify ? &vctx : nullptr));
    }
    out += text;
    // Fixed footer order: the engine renders the verify and analyze lines
    // above, the audit footer always comes last.
    if (options.audit && i < report.statements.size()) {
      out += "[audit: " + report.statements[i].Summary() + "]\n";
    }
  }
  return out;
}

Result<std::string> Session::Rewrite(const std::string& mtsql) {
  engine::Database::StatsFrame frame(mw_->db());
  Middleware::MetaGuard meta(mw_, /*exclusive=*/false);
  MTB_ASSIGN_OR_RETURN(sql::Stmt stmt, sql::ParseStatement(mtsql));
  MTB_ASSIGN_OR_RETURN(auto stmts, RewriteStmt(stmt, nullptr));
  std::string out;
  for (const auto& s : stmts) {
    if (!out.empty()) out += ";\n";
    out += sql::PrintStmt(s);
  }
  return out;
}

}  // namespace mt
}  // namespace mtbase
