#include "engine/obs/statement.h"

#include <cstring>
#include <utility>
#include <vector>

#include "engine/obs/metrics.h"

namespace mtbase {
namespace obs {

namespace {

/// A layer's metric names, built once so a statement allocates none.
struct LayerMetrics {
  explicit LayerMetrics(const char* layer) {
    const std::string prefix = std::string("mtbase_") + layer + "_";
    statements = prefix + "statements_total";
    errors = prefix + "statement_errors_total";
    seconds = prefix + "execute_seconds";
    rows_returned = prefix + "rows_returned_total";
#define MTBASE_EXPORTED_COUNTER(field, exported_by)                  \
  if (std::strcmp(#exported_by, layer) == 0) {                       \
    counters.emplace_back(&engine::ExecStats::field,                 \
                          prefix + #field "_total");                 \
  }
    MTBASE_EXEC_STATS_FIELDS(MTBASE_EXPORTED_COUNTER)
#undef MTBASE_EXPORTED_COUNTER
  }

  std::string statements, errors, seconds, rows_returned;
  std::vector<std::pair<uint64_t engine::ExecStats::*, std::string>> counters;
};

const LayerMetrics& MetricsOf(Layer layer) {
  static const LayerMetrics* engine = new LayerMetrics("engine");
  static const LayerMetrics* session = new LayerMetrics("session");
  return layer == Layer::kEngine ? *engine : *session;
}

}  // namespace

StatementShell::StatementShell(Layer layer, StatementTrace** slot,
                               const std::string& statement,
                               const engine::ExecStats* live)
    : layer_(layer),
      trace_(Tracer::Global(), slot,
             layer == Layer::kEngine ? "engine" : "session", statement),
      scope_(live),
      t0_(std::chrono::steady_clock::now()) {}

void StatementShell::Finish(const Status& status, uint64_t rows_returned) {
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0_)
                          .count();
  trace_.FinishFromStatus(status);
  const engine::ExecStats d = scope_.Delta();
  const LayerMetrics& names = MetricsOf(layer_);
  MetricsRegistry* metrics = MetricsRegistry::Global();
  metrics->Add(names.statements);
  if (!status.ok()) metrics->Add(names.errors);
  metrics->Observe(names.seconds, secs);
  for (const auto& [field, name] : names.counters) {
    if (d.*field > 0) metrics->Add(name, d.*field);
  }
  if (layer_ == Layer::kEngine && status.ok()) {
    metrics->Add(names.rows_returned, rows_returned);
  }
}

}  // namespace obs
}  // namespace mtbase
