// Shared pieces of the MTBase benchmark program: options, timing and order
// statistics, the in-memory span log, result comparison and the report that
// main() prints.
//
// Every number the benchmark reports is measured here, from outside the
// library: latencies are steady_clock readings around calls into its public
// API, counters are ExecStats deltas. Quantiles are computed from the exact
// samples, never from the library's bucketed metrics registry.
#ifndef MTBENCH_BENCH_H_
#define MTBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"

namespace mtbench {

using Clock = std::chrono::steady_clock;

/// Every workload sets up this many times per run and reports the median.
constexpr int kSetups = 7;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // span logs, relative to the cwd
};

/// CPUs this process may run on (what `nproc` prints).
int Nproc();

double SecondsSince(Clock::time_point t0);

/// Order statistics over exact samples. Quantile uses linear interpolation
/// between closest ranks; both return 0 for an empty sample.
double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);

/// Exact equality of two result sets: column names and every value
/// (type and payload). Used where the same program must give the same
/// bytes, e.g. ANALYZE vs plain execution.
bool SameResult(const mtbase::engine::ResultSet& a,
                const mtbase::engine::ResultSet& b);

/// Spans kept in memory and written as JSON lines when the run ends. A span
/// has a name, start and end (microseconds since the log was created), its
/// parent span (-1 for a root) and the statement it belongs to.
class SpanLog {
 public:
  SpanLog() : t0_(Clock::now()) {}

  int Begin(const std::string& name, int parent, int64_t stmt);
  void End(int id);
  double DurationUs(int id) const {
    return spans_[static_cast<size_t>(id)].end_us -
           spans_[static_cast<size_t>(id)].start_us;
  }
  /// Write every span to `path`; false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t stmt = 0;
    double start_us = 0;
    double end_us = 0;
  };
  double NowUs() const;

  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent, int64_t stmt)
      : log_(log), id_(log->Begin(name, parent, stmt)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// What one run reports. End-to-end metrics come from untraced timing;
/// per-layer metrics from counters, the untraced timing split by layer, and
/// (with --trace 1) the traced replay. `config` records how the run was set
/// up; `Fail` marks the run incorrect and keeps the reason.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::string> config;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void Config(const std::string& key, const std::string& value) {
    config[key] = value;
  }
  void Fail(const std::string& why);
  /// Count one attempted operation; a non-OK status counts as failed and
  /// fails the run.
  void Attempt(const mtbase::Status& status, const std::string& what);
};

/// Record the settings every workload shares (build type, nproc, gates).
void RecordCommonConfig(const Options& opt, Report* report);

/// Set or clear one of the library's environment gates.
void SetGate(const char* name, bool on);

/// The end-to-end metrics every workload reports: set-up time, the sums over
/// statement shapes of each shape's median and 95th-percentile latency
/// (`shapes` holds each shape's latency samples), and statements completed
/// per second of the measured loop. Quantiles are taken per shape because a
/// quantile of the pooled samples jumps between shapes whose costs differ
/// several fold.
void ReportEndToEnd(Report* report, double setup_s,
                    const std::vector<std::vector<double>>& shapes,
                    double stmts_per_s);

int RunAnalytic(const Options& opt, Report* report);
int RunAdhoc(const Options& opt, Report* report);
int RunServing(const Options& opt, Report* report);

}  // namespace mtbench

#endif  // MTBENCH_BENCH_H_
