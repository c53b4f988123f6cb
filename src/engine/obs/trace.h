// Per-phase statement tracing, gated by MTBASE_TRACE=<path>.
//
// When enabled, every statement executed through `engine::Database` or
// `mt::Session` appends one JSON-lines record to the trace file, carrying a
// span per phase (parse -> rewrite -> audit -> plan -> verify -> execute)
// with its duration, ExecStats delta, and outcome. The schema is documented
// in docs/observability.md and validated by tools/check_trace_schema.py.
//
// Ownership: each layer keeps one active-record slot (Database and Session
// each have their own). A TraceRecordScope creates and owns the record only
// when its layer's slot is empty; nested statements at the same layer append
// their spans to the enclosing record. Engine statements issued internally
// by the session layer (e.g. complex-scope resolution) emit their own
// layer="engine" records.
#ifndef MTBASE_ENGINE_OBS_TRACE_H_
#define MTBASE_ENGINE_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/stats.h"

namespace mtbase {
namespace obs {

/// One timed phase of a statement.
struct TraceSpan {
  std::string phase;        // parse|rewrite|audit|plan|verify|execute
  double duration_ms = 0;
  std::string outcome = "ok";  // ok|refused|error
  std::string codes;           // comma-separated refusal codes, if any
  bool has_stats = false;
  engine::ExecStats stats;     // ExecStats delta over the span
};

/// One JSONL record: a statement and its spans.
struct StatementTrace {
  std::string layer;      // "engine" or "session"
  std::string statement;  // statement text (truncated to 400 chars)
  std::vector<TraceSpan> spans;
  std::string outcome = "ok";  // ok|refused|error
  std::string codes;           // refusal codes when outcome == "refused"
  uint64_t seq = 0;            // assigned by Tracer::Emit

  /// Classify a finished statement from its Status: ok, refused (a static
  /// gate rejected it — plan verification or rewrite audit), or error. Also
  /// marks the last span, which is always the failing phase (execution
  /// aborts at the first non-OK status).
  void FinishFromStatus(const Status& st);

  /// Single-line JSON form (no trailing newline).
  std::string ToJson() const;
};

/// JSONL sink. Thread-safe; assigns a process-wide sequence number per
/// emitted record.
class Tracer {
 public:
  /// Tracer configured by the MTBASE_TRACE environment variable, read once
  /// per process. Null when the variable is unset or empty (tracing off).
  static Tracer* Global();

  /// Override Global() (tests). Pass null to restore the env-derived tracer.
  static void SetGlobalForTesting(Tracer* t);

  /// True when Global() is on: statement text is worth printing only then.
  static bool GlobalEnabled();

  explicit Tracer(const std::string& path);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return file_ != nullptr; }

  /// Assign the next sequence number, append rec as one JSONL line, flush.
  void Emit(StatementTrace* rec);

 private:
  std::FILE* file_ = nullptr;
  std::mutex mu_;
  uint64_t next_seq_ = 0;
};

/// RAII statement-record scope bound to a layer's active-record slot: creates
/// and owns a record iff `*slot` was empty, installs it, and on destruction
/// emits it and clears the slot. When the slot was already occupied (a nested
/// statement at the same layer) the scope is a pass-through: record() returns
/// the enclosing record and nothing is emitted. Inactive (record() == null)
/// when the tracer is off.
class TraceRecordScope {
 public:
  TraceRecordScope(Tracer* tracer, StatementTrace** slot, const char* layer,
                   const std::string& statement);
  ~TraceRecordScope();
  TraceRecordScope(const TraceRecordScope&) = delete;
  TraceRecordScope& operator=(const TraceRecordScope&) = delete;

  StatementTrace* record() { return record_; }

  /// Forward to the owned record's FinishFromStatus (no-op when not owning,
  /// so nested statements don't overwrite the enclosing record's outcome).
  void FinishFromStatus(const Status& st);

 private:
  Tracer* tracer_ = nullptr;
  StatementTrace** slot_ = nullptr;
  StatementTrace* record_ = nullptr;
  StatementTrace owned_;
  bool owning_ = false;
};

/// RAII span timer: on destruction appends a span named `phase` to `rec`
/// (no-op when rec is null) carrying the wall duration and, when `live` is
/// given, the ExecStats delta accumulated while the timer was alive.
class SpanTimer {
 public:
  SpanTimer(StatementTrace* rec, const char* phase,
            const engine::ExecStats* live = nullptr);
  ~SpanTimer();
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  StatementTrace* rec_;
  const char* phase_;
  const engine::ExecStats* live_;
  engine::ExecStats start_;
  std::chrono::steady_clock::time_point t0_;
};

/// JSON string escaping shared by the trace and metrics renderers.
std::string JsonEscape(const std::string& s);

}  // namespace obs
}  // namespace mtbase

#endif  // MTBASE_ENGINE_OBS_TRACE_H_
