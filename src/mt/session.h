// MTBase middleware and client sessions (paper Figure 4).
//
// The Middleware owns the MT meta data (schema comparability, conversion
// pairs, privileges, tenant registry) and sits in front of an engine
// Database. A Session represents one client connection: the client's ttid C
// is fixed at connection time, the SCOPE runtime parameter defines D, and
// every statement is rewritten to plain SQL, printed and sent to the engine.
//
// The execution API is prepared-statement shaped: Session::Prepare() parses
// an MTSQL query or DML statement once and returns a PreparedQuery whose
// Execute() caches the rewritten SQL *and* the engine plans, keyed by a
// compilation fingerprint (client ttid, optimization level, scope/dataset,
// privilege/schema/tenant epochs and the engine catalog version). SET SCOPE,
// GRANT/REVOKE, DDL and tenant registration move an epoch and transparently
// invalidate; re-executing under an unchanged fingerprint skips the parser,
// the rewriter and the planner entirely.
#ifndef MTBASE_MT_SESSION_H_
#define MTBASE_MT_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/database.h"
#include "mt/audit/audit.h"
#include "mt/conversion.h"
#include "mt/mt_schema.h"
#include "mt/optimizer.h"
#include "mt/plan_cache.h"
#include "mt/privilege.h"
#include "mt/rewriter.h"
#include "mt/scope.h"

namespace mtbase {
namespace mt {

class Session;

/// Everything a cached rewrite's validity depends on. Compared field-wise on
/// every PreparedQuery::Execute — the hit path stays allocation-free (the
/// key is only materialized when recompiling).
struct CompilationKey {
  bool valid = false;  // false until the first successful compile
  int64_t client = 0;
  OptLevel level = OptLevel::kO4;
  Scope::Kind scope_kind = Scope::Kind::kDefault;
  std::string scope_text;  // canonical: scopes are only set via Scope::Parse
  uint64_t privilege_epoch = 0;
  uint64_t schema_epoch = 0;
  uint64_t tenant_epoch = 0;
  uint64_t conversion_epoch = 0;
  uint64_t engine_version = 0;
  /// Complex scopes only: the resolved D' (data-dependent, re-resolved and
  /// re-compared on every execution).
  std::vector<int64_t> dataset;
};

class Middleware {
 public:
  /// Wrapping a Database in a Middleware enables the engine's shared
  /// dictionary-conversion cache on it: the middleware controls every write
  /// path that could change a conversion dictionary (DML moves the catalog
  /// data version, conversion registration bumps the external epoch via the
  /// registry hook installed here), so cross-statement caching of immutable
  /// conversion UDF results is safe.
  explicit Middleware(engine::Database* db) : db_(db) {
    db_->EnableSharedUdfCache();
    conversions_.set_on_register([db] { db->BumpSharedUdfEpoch(); });
  }

  engine::Database* db() { return db_; }
  MTSchema* schema() { return &schema_; }
  const MTSchema* schema() const { return &schema_; }
  /// Conversion registration goes through the registry directly; its
  /// on-register hook (installed in the constructor) moves the shared-UDF-
  /// cache epoch on every path, so results cached under an old registration
  /// are never served.
  ConversionRegistry* conversions() { return &conversions_; }
  PrivilegeManager* privileges() { return &privileges_; }

  /// Tenants known to the system (kept sorted). The empty simple scope
  /// ("IN ()") and o1's D-filter elision both resolve against this list.
  /// Returns by value: registration from another session may mutate the
  /// list concurrently; the copy is taken under the meta lock.
  void RegisterTenant(int64_t ttid);
  std::vector<int64_t> tenants() const;
  bool IsAllTenants(const std::vector<int64_t>& dataset) const;

  /// Monotonic counter bumped by RegisterTenant; part of every prepared
  /// query's fingerprint (datasets like "IN ()" resolve against the
  /// registry, so registration must invalidate cached rewrites).
  uint64_t tenant_epoch() const {
    return tenant_epoch_.load(std::memory_order_acquire);
  }

  /// Cross-session compiled-statement cache (see mt/plan_cache.h). Sessions
  /// consult it on every fingerprint miss and publish every successful
  /// compilation.
  SharedPlanCache* plan_cache() { return &plan_cache_; }

  /// RAII reader/writer lock over the MT meta state (schema, privileges,
  /// conversions, tenant registry). Statement execution holds it shared;
  /// meta mutations (GRANT/REVOKE, MTSQL DDL, tenant registration) hold it
  /// exclusive. Re-entrant per thread: a nested guard on the same middleware
  /// is a no-op adopting the outer mode, so nested statement machinery
  /// (complex-scope resolution, GRANT TO ALL dataset resolution) never
  /// self-deadlocks. Lock order: meta lock, then the engine statement lock.
  class MetaGuard {
   public:
    MetaGuard(const Middleware* mw, bool exclusive);
    ~MetaGuard();
    MetaGuard(const MetaGuard&) = delete;
    MetaGuard& operator=(const MetaGuard&) = delete;

   private:
    const Middleware* mw_;
    bool owns_ = false;
    bool exclusive_ = false;
    const Middleware* prev_owner_ = nullptr;
    int prev_depth_ = 0;
  };

  /// Intra-query parallelism budget for the engine behind this middleware
  /// (PlannerOptions::max_threads; 0 = auto via MTBASE_THREADS /
  /// hardware_concurrency, 1 = serial). Changing it moves the engine's
  /// compilation version, which every PreparedQuery fingerprints — cached
  /// rewrites and plans transparently recompile under the new budget.
  void SetMaxThreads(int max_threads);
  /// Read under the engine's shared statement lock.
  int max_threads() const { return db_->planner_options().max_threads; }

  /// Test-only: mutate each rewritten statement before it is audited,
  /// optimized and compiled. The negative audit suites install the
  /// mt/audit/mutators.h mutators here to prove each invariant violation is
  /// caught; pass nullptr to uninstall.
  void set_rewrite_mutation_hook_for_testing(
      std::function<void(sql::Stmt*)> hook) {
    rewrite_mutation_hook_ = std::move(hook);
  }
  const std::function<void(sql::Stmt*)>& rewrite_mutation_hook() const {
    return rewrite_mutation_hook_;
  }

 private:
  friend class MetaGuard;

  engine::Database* db_;
  MTSchema schema_;
  ConversionRegistry conversions_;
  PrivilegeManager privileges_;
  std::vector<int64_t> tenants_;
  std::atomic<uint64_t> tenant_epoch_{0};
  SharedPlanCache plan_cache_;
  /// Guards schema_ / conversions_ / privileges_ / tenants_ structure (their
  /// epochs are atomics readable without it). See MetaGuard.
  mutable std::shared_mutex meta_mu_;
  static thread_local const Middleware* tl_meta_owner_;
  static thread_local int tl_meta_depth_;
  std::function<void(sql::Stmt*)> rewrite_mutation_hook_;
};

/// What Session::Explain annotates beyond the engine's plan rendering. The
/// footers compose in a fixed order: the verifier's `[verify: ...]` line
/// (rendered by the engine), then the `[analyze: ...]` statement footer,
/// then the auditor's `[audit: ...]` line — always last.
struct ExplainOptions {
  /// EXPLAIN (VERIFY): run each physical plan through the static
  /// PlanVerifier and append `[verify: ok]` / `[verify: FAILED <codes>]`.
  bool verify = false;
  /// EXPLAIN (AUDIT): run the rewrite through the RewriteAuditor and append
  /// `[audit: <summary>]` per statement (StatementAudit::Summary()). The
  /// annotation never refuses: violating rewrites explain with their FAILED
  /// summary even under enforcement.
  bool audit = false;
  /// EXPLAIN (ANALYZE): actually execute each rewritten SELECT with
  /// per-operator instrumentation, annotate every plan line with its
  /// `[actual: ...]` measurements and append an `[analyze: ...]` statement
  /// footer (docs/observability.md). Unlike verify/audit this runs the
  /// query; plan verification is enforced exactly as for a normal execution.
  bool analyze = false;
};

/// An MTSQL statement parsed once and executable many times. The first
/// Execute() (and every Execute() after the fingerprint moved) resolves the
/// dataset, rewrites, optimizes, prints and prepares the engine plans; an
/// Execute() under an unchanged fingerprint reuses all of it and only runs
/// the compiled plans (ExecStats::rewrite_cache_hits / plan_cache_hits).
///
/// Complex scopes ("FROM ... WHERE ...") are data-dependent, so their
/// dataset is re-resolved on every Execute and folded into the fingerprint;
/// simple and default scopes derive purely from the epochs and skip
/// resolution on a hit.
class PreparedQuery {
 public:
  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;

  /// Execute with `params` bound to the statement's $n / ? placeholders.
  /// Parameters pass through the rewriter untouched (they are constants in
  /// C's own format, like literals) and bind at the engine.
  Result<engine::ResultSet> Execute(const std::vector<Value>& params = {});

  /// The MTSQL text this handle was prepared from.
  const std::string& mtsql() const { return mtsql_; }
  /// The currently cached rewritten SQL (empty before the first Execute).
  const std::string& sql() const { return sql_; }
  /// Number of parameter slots the statement references.
  int param_count() const { return param_count_; }

 private:
  friend class Session;
  PreparedQuery(Session* session, sql::Stmt stmt, std::string mtsql);

  Status Recompile(const std::vector<int64_t>& dataset);
  /// The execution body. Execute() wraps it with the observability surface
  /// (session-layer trace record, execute span, metrics).
  Result<engine::ResultSet> ExecuteImpl(const std::vector<Value>& params);

  Session* session_;
  std::string mtsql_;
  sql::Stmt stmt_;
  int param_count_ = 0;
  CompilationKey key_;  // invalid until the first successful compile
  std::string sql_;
  /// Compiled engine plans, shared with the middleware's cross-session plan
  /// cache: a fingerprint miss first consults the cache (adopting another
  /// session's compilation of the same statement under identical state)
  /// before recompiling, and every successful recompile publishes here.
  /// The vector is immutable once built; engine::PreparedPlan handles are
  /// internally synchronized, so many sessions execute one entry at once.
  std::shared_ptr<std::vector<engine::PreparedPlan>> plans_;
};

class Session {
 public:
  Session(Middleware* mw, int64_t client_ttid)
      : mw_(mw), client_(client_ttid) {}

  int64_t client() const { return client_; }
  Middleware* middleware() { return mw_; }

  /// Tear the session down: statements of this session queued at admission
  /// control abort with a clean error instead of executing, and new
  /// Execute() calls are refused. In-flight statements finish normally.
  void Close();
  bool closed() const { return closed_->load(std::memory_order_acquire); }

  void set_optimization_level(OptLevel level) { level_ = level; }
  OptLevel optimization_level() const { return level_; }

  /// Parse an MTSQL query or DML statement once for repeated execution.
  /// SET SCOPE, DCL and DDL are session/metadata operations and cannot be
  /// prepared — run them through Execute().
  Result<PreparedQuery> Prepare(const std::string& mtsql);

  /// Execute one MTSQL statement (SET SCOPE, DDL, DML, DCL or query).
  /// Queries and DML run through the prepared path (prepare + execute).
  Result<engine::ResultSet> Execute(const std::string& mtsql);
  /// Execute a ';'-separated MTSQL script; returns the last result. Errors
  /// are prefixed with the 1-based statement index.
  Result<engine::ResultSet> ExecuteScript(const std::string& mtsql);

  /// Rewrite a query without executing it (returns the SQL text that would
  /// be sent to the DBMS) — used by tests, examples and the rewrite explorer.
  Result<std::string> Rewrite(const std::string& mtsql);

  /// Rewrite a query and return the engine's physical plan rendering —
  /// shows how D-filters, ttid joins and inlined conversion joins execute.
  /// With `verify` — the EXPLAIN (VERIFY) surface — each plan additionally
  /// runs through the static verifier under this session's expected tenant
  /// set and a `[verify: ok]` / `[verify: FAILED <codes>]` line is appended.
  Result<std::string> Explain(const std::string& mtsql, bool verify = false) {
    ExplainOptions options;
    options.verify = verify;
    return Explain(mtsql, options);
  }
  /// Full EXPLAIN surface: `options.audit` additionally runs the rewrite
  /// through the RewriteAuditor and appends an `[audit: ...]` footer per
  /// statement; `options.analyze` executes each SELECT instrumented and adds
  /// `[actual: ...]` annotations plus an `[analyze: ...]` footer. Footer
  /// order is fixed: verify, analyze, audit. With `analyze_result` non-null
  /// the instrumented run's result set is returned through it (tests prove
  /// byte-identity against an uninstrumented execution).
  Result<std::string> Explain(const std::string& mtsql,
                              const ExplainOptions& options,
                              engine::ResultSet* analyze_result = nullptr);

  Status SetScope(const std::string& scope_text);
  const Scope& scope() const { return scope_; }

  /// The SQL text of the last rewritten statement sent to the engine.
  const std::string& last_sql() const { return last_sql_; }

  /// Resolve the current dataset D (evaluating complex scopes) and prune it
  /// against privileges for the tables of `stmt` (D'; paper section 3).
  Result<std::vector<int64_t>> ResolveDataset(const sql::Stmt& stmt);

 private:
  friend class PreparedQuery;

  Result<engine::ResultSet> ExecuteStmt(const sql::Stmt& stmt);
  /// Route an owned statement: queries and DML through the prepared path,
  /// everything else through ExecuteStmt.
  Result<engine::ResultSet> ExecuteOwned(sql::Stmt stmt);
  Result<std::vector<sql::Stmt>> RewriteStmt(const sql::Stmt& stmt,
                                             std::vector<int64_t>* dataset_out);
  /// Rewrite + optimize against an already resolved dataset D'. When the
  /// rewrite auditor is enabled (audit::AuditEnabled) the rewritten
  /// statements are audited before and after optimization and audit failures
  /// refuse compilation — unless `audit_out` is non-null (the EXPLAIN
  /// (AUDIT) surface), which always audits and reports instead of refusing.
  Result<std::vector<sql::Stmt>> RewriteWithDataset(
      const sql::Stmt& stmt, const std::vector<int64_t>& dataset,
      audit::AuditReport* audit_out = nullptr);
  /// Does `key` still describe the current session/middleware state
  /// (everything except a complex scope's dataset)? Allocation-free.
  bool MatchesCompilationKey(const CompilationKey& key) const;
  /// Materialize the current compilation key (dataset left empty).
  CompilationKey CurrentCompilationKey() const;
  Status HandleGrant(const sql::GrantStmt& grant);
  RewriteOptions OptionsFor(const std::vector<int64_t>& dataset) const;
  /// The assumptions the engine's PlanVerifier may make about plans compiled
  /// from this session's statements: tenant-isolation checking on, expected
  /// tenant set D', unfiltered access admitted exactly when o1 elided the
  /// D-filters. Installed on the engine database before every compile.
  engine::verify::VerifyContext MakeVerifyContext(
      const std::vector<int64_t>& dataset) const;
  /// The provenance the rewrite auditor may assume about statements rewritten
  /// for this session under dataset D'.
  audit::AuditContext MakeAuditContext(
      const std::vector<int64_t>& dataset) const;
  void CollectTsTables(const sql::Stmt& stmt,
                       std::vector<std::string>* out) const;

  Middleware* mw_;
  int64_t client_;
  Scope scope_ = Scope::Default();
  OptLevel level_ = OptLevel::kO4;
  /// Set by Close(); installed as the admission-wait cancel token around
  /// every statement this session executes. Shared so a PreparedQuery
  /// blocked in an admission queue observes the flip even while Close()
  /// runs on another thread.
  std::shared_ptr<std::atomic<bool>> closed_ =
      std::make_shared<std::atomic<bool>>(false);
  std::string last_sql_;
  /// Session-layer trace slot (obs::TraceRecordScope): the active MTSQL
  /// statement's trace record, or null outside a traced statement. Distinct
  /// from the engine Database's slot — with MTBASE_TRACE set, one statement
  /// emits a session-layer record (parse/rewrite/audit/execute spans) plus
  /// an engine-layer record per SQL statement sent down.
  obs::StatementTrace* active_trace_ = nullptr;
};

}  // namespace mt
}  // namespace mtbase

#endif  // MTBASE_MT_SESSION_H_
