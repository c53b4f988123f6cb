// Database: the SQL engine facade MTBase's middleware talks to.
//
// Accepts plain SQL text (the output of the MTSQL-to-SQL rewriter), parses,
// plans and executes it. Plays the role of "PostgreSQL" or "System C" in the
// paper's architecture (Figure 4), selected by DbmsProfile.
//
// The execution API is prepared-statement shaped: Prepare() compiles a
// statement once (parse + bind + plan), PreparedPlan::Execute() runs it many
// times with $n / ? parameter bindings. Every SELECT and DML statement runs
// through a PreparedPlan: one-shot Execute(), each statement of
// ExecuteScript() and EXPLAIN (ANALYZE) prepare and then execute once.
// Prepared handles snapshot the catalog/UDF compilation version and
// transparently recompile after DDL.
#ifndef MTBASE_ENGINE_DATABASE_H_
#define MTBASE_ENGINE_DATABASE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/admission.h"
#include "engine/catalog.h"
#include "engine/exec.h"
#include "engine/planner.h"
#include "engine/stats.h"
#include "engine/udf.h"
#include "engine/udf_cache.h"
#include "engine/verify/verifier.h"
#include "sql/ast.h"

namespace mtbase {

namespace obs {
class PlanProfiler;
struct StatementTrace;
}  // namespace obs

namespace engine {

class Database;

struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;

  std::string ToString(size_t max_rows = 25) const;
};

/// Bound form of prepared DML: UPDATE/DELETE predicates and assignments and
/// INSERT targets/VALUES expressions, bound once at compile time (defined in
/// database.cc).
struct BoundDmlPlan;

/// A statement compiled once and executable many times. SELECTs (and the
/// SELECT source of INSERT ... SELECT) carry the fully bound physical plan;
/// INSERT/UPDATE/DELETE carry a BoundDmlPlan (targets, predicates and
/// assignment/value expressions bound once — re-execution is bind-free).
/// Execute() revalidates the handle against the database's compilation
/// version and recompiles transparently when DDL moved it; every execution
/// after the first one per compilation counts as ExecStats::plan_cache_hits.
/// CompileLocked is the only place a statement is planned and verified, and
/// ExecuteInternal the only SELECT/DML dispatcher.
///
/// Concurrency: Execute() is safe to call from many threads on one handle —
/// the compiled form lives in an immutable state block swapped under a
/// handle-level mutex, so the cross-session plan cache (src/mt/plan_cache.h)
/// can share one PreparedPlan between sessions. The handle itself must not
/// be moved while another thread is executing it.
class PreparedPlan {
 public:
  PreparedPlan(PreparedPlan&&) noexcept;
  PreparedPlan& operator=(PreparedPlan&&) noexcept;
  ~PreparedPlan();

  /// Run the statement with `params` bound to $1..$n (left to right for ?).
  Result<ResultSet> Execute(const std::vector<Value>& params = {});

  /// Number of parameter slots the statement references.
  int param_count() const { return param_count_; }
  /// The SQL text this handle was prepared from.
  const std::string& sql() const { return sql_; }
  /// Output column names of the latest successful compile (SELECT only;
  /// empty otherwise).
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }

 private:
  friend class Database;
  /// An uncompiled handle: its first execution compiles it.
  PreparedPlan(Database* db, sql::Stmt stmt, std::string sql_text);

  /// Immutable compiled form (plan / bound DML / version), defined in
  /// database.cc; re-compiles swap a fresh block in under mu_.
  struct CompiledState;

  /// (Re)compile from the stored AST into a fresh state block; the caller
  /// holds mu_ and has cleared state_ first so a failed recompile (e.g. a
  /// dropped table) cannot leave a usable handle.
  Result<std::shared_ptr<const CompiledState>> CompileLocked();

  /// The compiled state to execute: the current one, or a fresh compile
  /// when there is none yet or DDL moved the compilation version.
  Result<std::shared_ptr<const CompiledState>> State();

  /// The statement shell: admission, stats frame, statement lock and the
  /// engine-layer obs::StatementShell around ExecuteInternal. `profiler`
  /// (null = plain execution) instruments a SELECT for EXPLAIN (ANALYZE).
  Result<ResultSet> Run(const std::vector<Value>& params,
                        obs::PlanProfiler* profiler);

  /// The execution body: compile if needed, then dispatch on the statement
  /// kind (DDL, GRANT and SET SCOPE go on to Database::ExecuteStmt).
  Result<ResultSet> ExecuteInternal(const std::vector<Value>& params,
                                    obs::PlanProfiler* profiler);

  Database* db_ = nullptr;
  std::string sql_;
  sql::Stmt stmt_;
  int param_count_ = 0;
  // Guards state_ swaps (shared_ptr so the handle stays movable).
  std::shared_ptr<std::mutex> mu_ = std::make_shared<std::mutex>();
  std::shared_ptr<const CompiledState> state_;
  std::vector<std::string> column_names_;
};

class Database {
 public:
  /// Reads MTBASE_MAX_CONCURRENT_STATEMENTS into the admission limit
  /// (0 / unset = unlimited).
  explicit Database(DbmsProfile profile = DbmsProfile::kPostgres);

  /// Compile one statement for repeated execution.
  Result<PreparedPlan> Prepare(const std::string& sql);
  /// Same, from an already parsed statement (the MT middleware prepares the
  /// rewritten AST directly and only keeps `sql_text` for display).
  Result<PreparedPlan> PrepareStmt(sql::Stmt stmt, std::string sql_text);

  /// Execute one statement given as SQL text (prepare + execute).
  Result<ResultSet> Execute(const std::string& sql);
  /// Execute a ';'-separated script, each statement prepared and executed
  /// once; returns the last statement's result. Errors are prefixed with the
  /// 1-based statement index.
  Result<ResultSet> ExecuteScript(const std::string& sql);
  /// Execute a parsed DDL, GRANT or SET SCOPE statement. SELECT and DML run
  /// through a PreparedPlan (Prepare / Execute / ExecuteScript).
  Result<ResultSet> ExecuteStmt(const sql::Stmt& stmt);

  /// Validate primary keys, foreign keys and check constraints of `table`
  /// (all tables if empty). Deferred validation keeps bulk loads fast.
  Status ValidateConstraints(const std::string& table = "");

  /// Plain EXPLAIN: engine::ExplainSelect under the shared statement lock,
  /// with this database's planner options, so the planner's catalog, UDF
  /// and option reads never race DDL or an options change.
  Result<std::string> ExplainSelect(
      const sql::SelectStmt& sel,
      const verify::VerifyContext* verify_ctx = nullptr);

  /// EXPLAIN (ANALYZE) (docs/observability.md): prepare a copy of `sel`,
  /// execute it once with per-operator instrumentation attached (one engine
  /// statement: trace record and metrics), and render the plan with
  /// trailing `[actual: ...]` annotations plus an `[analyze: ...]` statement
  /// footer. With `footer_verify_ctx` set a `[verify: ...]` footer precedes
  /// the analyze footer (the EXPLAIN (VERIFY, ANALYZE) composition — footer
  /// order is fixed: verify, analyze, then the session layer's audit).
  /// `result_out`, if non-null, receives the instrumented run's result set
  /// so callers can prove byte-identity against an uninstrumented run.
  Result<std::string> ExplainAnalyzeSelect(
      const sql::SelectStmt& sel,
      const verify::VerifyContext* footer_verify_ctx = nullptr,
      ResultSet* result_out = nullptr);

  /// Prometheus-text snapshot of the process-wide obs::MetricsRegistry
  /// (docs/observability.md "Metrics").
  std::string DumpMetrics() const;

  /// Bench knob: every SELECT a PreparedPlan executes gets its own
  /// PlanProfiler, so executions pay the full ANALYZE instrumentation cost
  /// without rendering anything — rewrite_bench measures
  /// analyze_overhead_pct by toggling this. Off by default; plain execution
  /// never touches a profiler.
  void set_profile_execution(bool on) { profile_execution_ = on; }
  bool profile_execution() const { return profile_execution_; }

  Catalog* catalog() { return &catalog_; }
  const Catalog* catalog() const { return &catalog_; }
  UdfRegistry* udfs() { return &udfs_; }
  /// Does nothing: every catalog DDL statement replans UDF bodies before it
  /// releases the exclusive statement lock (see RefreshUdfPlans), so body
  /// plans are never stale between statements. Kept for callers written when
  /// DROP left the replan to the next statement.
  void EnsureUdfPlansFresh();
  /// Cumulative database-wide counters. Concurrent statements each count
  /// into a private per-statement frame (see StatsFrame / CurStats) and
  /// merge here once at statement end, so reading this between statements is
  /// race-free and totals reconcile exactly.
  ExecStats* stats() { return &stats_; }
  DbmsProfile profile() const { return profile_; }
  void set_profile(DbmsProfile p) { profile_ = p; }
  const PlannerOptions& planner_options() const { return planner_options_; }
  /// Replaces the planner options and eagerly replans UDF bodies under the
  /// exclusive statement lock (an options change is DDL-shaped: it moves the
  /// compilation version and must not race in-flight statements).
  void set_planner_options(const PlannerOptions& o);

  /// The ExecStats sink for the current statement on this thread: the
  /// innermost open StatsFrame for this database, or the cumulative stats_
  /// when no frame is open (single-threaded embedder paths).
  ExecStats* CurStats();

  /// RAII per-statement stats frame: counters bump into a thread-local frame
  /// and fold into Database::stats() (under its mutex) at destruction.
  /// Opening a frame while one is already open for the same database on this
  /// thread is a no-op, so nested statements share the outer frame.
  class StatsFrame {
   public:
    explicit StatsFrame(Database* db);
    ~StatsFrame();
    StatsFrame(const StatsFrame&) = delete;
    StatsFrame& operator=(const StatsFrame&) = delete;

   private:
    friend class Database;
    Database* db_;
    StatsFrame* prev_ = nullptr;
    bool active_ = false;
    ExecStats local_;
  };

  /// Inter-query admission gate (MTBASE_MAX_CONCURRENT_STATEMENTS); see
  /// engine/admission.h. Exposed for the serving layer and tests.
  AdmissionController* admission() { return &admission_; }
  void set_max_concurrent_statements(int n) { admission_.set_limit(n); }

  /// Monotonic compilation version: moves on any DDL (tables, views, UDFs)
  /// or planner-option change. Prepared plans compiled at an older version
  /// recompile on their next Execute.
  uint64_t compilation_version() const {
    return catalog_.version() + udfs_.version() + options_version_;
  }

  /// Opt into the cross-statement result cache for immutable UDFs
  /// (docs/ARCHITECTURE.md "Shared dictionary caches"). Off by default at
  /// the engine layer — per-statement caching stays the plain-SQL engine's
  /// documented behavior — and enabled by the MT middleware, whose
  /// conversion dictionaries only change through registration and DML (both
  /// move the cache epoch). Idempotent: only the first (enabling) call
  /// applies `capacity`; resize later via shared_udf_cache().
  void EnableSharedUdfCache(size_t capacity = SharedUdfCache::kDefaultCapacity);
  bool shared_udf_cache_enabled() const { return shared_udf_cache_enabled_; }
  SharedUdfCache* shared_udf_cache() { return &shared_udf_cache_; }

  /// External component of the shared cache's epoch, bumped by the MT layer
  /// on conversion-pair (re-)registration.
  void BumpSharedUdfEpoch() { ++shared_udf_external_epoch_; }

  /// The epoch a result cached now would be valid under: catalog/UDF DDL
  /// version + the data versions of the tables UDF bodies actually read +
  /// external bumps. Deliberately excluded: planner-option changes (they
  /// change plans, not immutable results) and DML on tables no UDF body
  /// reads (routine tenant-data inserts must not evict a warm dictionary
  /// cache).
  UdfCacheEpoch CurrentUdfCacheEpoch() const;

  /// Assumptions PlanVerifier may make about plans this database compiles
  /// from now on — on this thread: the context is thread-local so concurrent
  /// sessions cannot cross-contaminate each other's expected datasets, and
  /// it belongs to this database, so another database driven from the same
  /// thread keeps verifying with engine-level checks only. The MT middleware
  /// refreshes it before every statement compile with the expected dataset
  /// D' (src/mt/session.cc); a plain-SQL embedder keeps the default
  /// (engine-level checks only). See verify/verifier.h.
  void set_verify_context(verify::VerifyContext ctx) {
    tl_verify_ctx_.owner = id_;
    tl_verify_ctx_.ctx = std::move(ctx);
  }
  const verify::VerifyContext& verify_context() const;

  /// Test-only: mutate each plan after planning, before verification —
  /// lets negative suites deliberately break invariants and assert the
  /// verifier refuses the plan. Pass nullptr to uninstall.
  void set_plan_mutation_hook_for_testing(std::function<void(Plan*)> hook) {
    plan_mutation_hook_ = std::move(hook);
  }

 private:
  friend class PreparedPlan;

  /// RAII statement-scope DDL guard over ddl_mu_: DDL and planner-option
  /// changes take it exclusive, every other statement shared — so catalog /
  /// UDF-registry / planner-option reads during compile and execution never
  /// race a concurrent DDL. Re-entrant per thread: nested statements (UDF
  /// body planning, complex-scope resolution, INSERT ... SELECT) piggyback
  /// on the outer guard instead of self-deadlocking.
  class StatementGuard {
   public:
    StatementGuard(Database* db, bool exclusive);
    ~StatementGuard();
    StatementGuard(const StatementGuard&) = delete;
    StatementGuard& operator=(const StatementGuard&) = delete;

   private:
    Database* db_;
    bool nested_ = false;
    bool exclusive_ = false;
    const Database* prev_owner_ = nullptr;
    int prev_depth_ = 0;
  };

  /// RAII admission pass: the outermost engine statement on this thread
  /// acquires an admission ticket (blocking when the limit is reached,
  /// aborting via the thread's ScopedCancelToken); nested statements ride
  /// the outer pass.
  class AdmissionPass {
   public:
    explicit AdmissionPass(Database* db);
    ~AdmissionPass();
    AdmissionPass(const AdmissionPass&) = delete;
    AdmissionPass& operator=(const AdmissionPass&) = delete;

    const Status& status() const { return status_; }

   private:
    Database* db_;
    bool outermost_ = false;
    Status status_;
  };

  /// True for statement kinds that mutate catalog/UDF/option state and
  /// therefore need the exclusive statement lock.
  static bool IsDdlStmt(const sql::Stmt& stmt);

  /// Bind a DML statement's expressions once for repeated execution
  /// (PreparedPlan::CompileLocked counts the compilation).
  Result<std::unique_ptr<BoundDmlPlan>> BindDml(const sql::Stmt& stmt);
  /// `select_plan` carries the precompiled INSERT ... SELECT source, if any.
  Status ExecuteBoundInsert(const BoundDmlPlan& dml, const Plan* select_plan,
                            const std::vector<Value>* params);
  Result<int64_t> ExecuteBoundUpdate(const BoundDmlPlan& dml,
                                     const std::vector<Value>* params);
  Result<int64_t> ExecuteBoundDelete(const BoundDmlPlan& dml,
                                     const std::vector<Value>* params);
  Status ExecuteCreateTable(const sql::CreateTableStmt& ct);
  Status ExecuteCreateFunction(const sql::CreateFunctionStmt& cf);
  Status ValidateTable(const Table& table);

  /// Replan every UDF body: body plans hold raw Table pointers and embed
  /// planner options, so catalog DDL or an options change would otherwise
  /// leave them dangling/stale. CREATE and DROP of tables, views and indexes,
  /// and set_planner_options, call this while holding the exclusive
  /// statement lock: statements under the shared lock execute and verify
  /// body plans by reference, so a replan must never run beside them. Bodies
  /// that no longer plan (dropped objects) become null — executing them
  /// errors cleanly — until a later DDL makes them valid again.
  void RefreshUdfPlans();

  /// Recollect the set of tables any UDF body plan scans (the shared-cache
  /// epoch's data component). Called whenever body plans change.
  void RebuildUdfReadTables();

  /// Run the test mutation hook, then — when verification is enforced
  /// (debug builds / MTBASE_VERIFY_PLANS=1) — prove the plan's invariants
  /// under the current verify context, counting ExecStats::plans_verified
  /// and refusing violating plans (ExecStats::verify_violations).
  Status VerifyPlan(Plan* plan);

  ExecContext MakeContext(const std::vector<Value>* params = nullptr);

  Catalog catalog_;
  UdfRegistry udfs_;
  ExecStats stats_;
  /// Guards stats_ merges (StatsFrame destructors from concurrent threads).
  std::mutex stats_mu_;
  DbmsProfile profile_;
  PlannerOptions planner_options_;
  std::atomic<uint64_t> options_version_{0};
  SharedUdfCache shared_udf_cache_;
  bool shared_udf_cache_enabled_ = false;
  std::atomic<uint64_t> shared_udf_external_epoch_{0};
  /// Tables scanned by any UDF body plan (deduplicated). Raw pointers are
  /// safe for the same reason body plans' are: RefreshUdfPlans rebuilds the
  /// set with the plans, under the exclusive statement lock of the DDL that
  /// created or dropped a table, before any later statement reads it.
  std::vector<const Table*> udf_read_tables_;
  /// The verify context last set on this thread, tagged with the id of the
  /// database that set it (0 = none); see set_verify_context.
  struct ThreadVerifyContext {
    uint64_t owner = 0;
    verify::VerifyContext ctx;
  };
  static thread_local ThreadVerifyContext tl_verify_ctx_;
  /// Process-unique and never reused (an address can be), so a context set
  /// by a destroyed database never applies to a later one.
  static uint64_t NextId();
  const uint64_t id_ = NextId();
  std::function<void(Plan*)> plan_mutation_hook_;
  /// Engine-layer trace slot (obs::TraceRecordScope): the active statement's
  /// trace record, or null outside a traced statement. Nested engine
  /// statements (e.g. UDF refresh inside Execute) append spans to the
  /// enclosing record instead of emitting their own. Thread-local so
  /// concurrent statements trace independently.
  static thread_local obs::StatementTrace* active_trace_;
  std::atomic<bool> profile_execution_{false};

  /// Statement-scope reader/writer lock (see StatementGuard).
  std::shared_mutex ddl_mu_;
  AdmissionController admission_;

  // Thread-local statement-nesting state (definitions in database.cc).
  static thread_local StatsFrame* tl_stats_frame_;
  static thread_local const Database* tl_guard_owner_;
  static thread_local int tl_guard_depth_;
  static thread_local int tl_admission_depth_;
};

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_DATABASE_H_
