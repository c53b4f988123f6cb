#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "engine/verify/verifier.h"
#include "mt/audit/audit.h"

namespace mtbench {

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

bool SameResult(const mtbase::engine::ResultSet& a,
                const mtbase::engine::ResultSet& b) {
  if (a.column_names != b.column_names || a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t i = 0; i < a.rows.size(); ++i) {
    const mtbase::Row& x = a.rows[i];
    const mtbase::Row& y = b.rows[i];
    if (x.size() != y.size()) return false;
    for (size_t j = 0; j < x.size(); ++j) {
      if (x[j].type() != y[j].type() || !x[j].StructuralEquals(y[j])) {
        return false;
      }
    }
  }
  return true;
}

double SpanLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
      .count();
}

int SpanLog::Begin(const std::string& name, int parent, int64_t stmt) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.stmt = stmt;
  s.start_us = NowUs();
  s.end_us = s.start_us;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) { spans_[static_cast<size_t>(id)].end_us = NowUs(); }

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.3f,\"end_us\":%.3f", s.start_us,
                  s.end_us);
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"stmt\":" << s.stmt
        << ",\"start_us\":" << buf << "}\n";
  }
  return static_cast<bool>(out);
}

void Report::Fail(const std::string& why) {
  correct = false;
  // Keep the output bounded when one defect repeats on every statement.
  if (errors.size() < 20) errors.push_back(why);
}

void Report::Attempt(const mtbase::Status& status, const std::string& what) {
  ++attempted;
  if (status.ok()) return;
  ++failed;
  Fail(what + ": " + status.ToString());
}

void RecordCommonConfig(const Options& opt, Report* report) {
  report->Config("workload", opt.workload);
  report->Config("seed", std::to_string(opt.seed));
  report->Config("seconds", std::to_string(opt.seconds));
  report->Config("trace", opt.trace ? "1" : "0");
  report->Config("nproc", std::to_string(Nproc()));
  report->Config("build_type", MTBENCH_BUILD_TYPE);
#ifdef NDEBUG
  report->Config("debug_build", "0");
#else
  // Debug builds force the rewrite auditor and the plan verifier on, so
  // they measure a different program: flag the run.
  report->Config("debug_build", "1 (audit and verify forced on)");
#endif
  report->Config("audit_gate",
                 mtbase::mt::audit::AuditEnabled() ? "on" : "off");
  report->Config("verify_gate",
                 mtbase::engine::verify::VerificationEnabled() ? "on" : "off");
}

void SetGate(const char* name, bool on) {
  if (on) {
    setenv(name, "1", 1);
  } else {
    unsetenv(name);
  }
}

void ReportEndToEnd(Report* report, double setup_s,
                    const std::vector<std::vector<double>>& shapes,
                    double stmts_per_s) {
  double suite = 0, suite_p95 = 0;
  size_t samples = 0;
  for (const std::vector<double>& v : shapes) {
    suite += Median(v);
    suite_p95 += Quantile(v, 0.95);
    samples += v.size();
  }
  report->E2e("setup_s", setup_s, "s");
  report->E2e("suite_s", suite, "s");
  report->E2e("suite_p95_s", suite_p95, "s");
  report->E2e("stmts_per_s", stmts_per_s, "1/s");
  report->Config("timed_statements", std::to_string(samples));
}

}  // namespace mtbench
