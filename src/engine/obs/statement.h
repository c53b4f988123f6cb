// The observability shell every statement runs in, at both layers.
//
// `engine::PreparedPlan::Execute` (layer "engine") and
// `mt::PreparedQuery::Execute` (layer "session") are the two statement
// pipelines; each wraps its execution body in one StatementShell, so the
// trace record, the statement's ExecStats delta and the metrics are fed the
// same way at both layers (docs/observability.md).
#ifndef MTBASE_ENGINE_OBS_STATEMENT_H_
#define MTBASE_ENGINE_OBS_STATEMENT_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "engine/obs/trace.h"
#include "engine/stats.h"

namespace mtbase {
namespace obs {

/// The API surface a statement ran through: names its trace record's layer
/// and its metrics (mtbase_engine_... / mtbase_session_...).
enum class Layer { kEngine, kSession };

/// Opens the layer's statement trace record (a nested statement appends to
/// the enclosing one), snapshots the statement's ExecStats and starts the
/// clock; Finish() classifies the record and feeds the layer's metrics:
/// mtbase_<layer>_statements_total, _statement_errors_total,
/// _execute_seconds, and mtbase_<layer>_<field>_total for every ExecStats
/// field the list in engine/stats.h exports at this layer. The record is
/// emitted when the shell is destroyed.
class StatementShell {
 public:
  /// `slot` is the layer's active-record slot, `live` the statement's
  /// ExecStats frame.
  StatementShell(Layer layer, StatementTrace** slot,
                 const std::string& statement, const engine::ExecStats* live);
  StatementShell(const StatementShell&) = delete;
  StatementShell& operator=(const StatementShell&) = delete;

  /// End of the statement body. `rows_returned` of a successful engine
  /// statement feeds mtbase_engine_rows_returned_total.
  void Finish(const Status& status, uint64_t rows_returned = 0);

 private:
  Layer layer_;
  TraceRecordScope trace_;
  engine::StatsScope scope_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace obs
}  // namespace mtbase

#endif  // MTBASE_ENGINE_OBS_STATEMENT_H_
