// mtbench: the MTBase benchmark program.
//
//   mtbench --workload <mth-analytic|mth-adhoc|tenant-serving>
//           --seed <n> --seconds <s> --trace <0|1> [--out_dir <dir>]
//
// Prints the run's configuration, then one line per metric
// ("metric <name> <value> <unit> <end_to_end|per_layer>"), then a result
// line with the correctness verdict and the attempted/failed operation
// counts. Exits 1 when a correctness check or work-count invariant fails.
// mtbench/run.py builds this program and turns its output into the
// benchmark's JSON result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using mtbench::Options;
using mtbench::Report;

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string name = argv[i];
    const char* v = argv[i + 1];
    if (name == "--workload") {
      o->workload = v;
    } else if (name == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (name == "--seconds") {
      o->seconds = std::atof(v);
    } else if (name == "--trace") {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (name == "--out_dir") {
      o->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintMetrics(const std::map<std::string, Report::Metric>& metrics,
                  const char* kind) {
  for (const auto& [name, m] : metrics) {
    std::printf("metric %s %.17g %s %s\n", name.c_str(), m.value,
                m.unit.c_str(), kind);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: mtbench --workload <mth-analytic|mth-adhoc|"
                 "tenant-serving> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  if (opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
  }
  Report report;
  int rc = 0;
  if (opt.workload == "mth-analytic") {
    rc = mtbench::RunAnalytic(opt, &report);
  } else if (opt.workload == "mth-adhoc") {
    rc = mtbench::RunAdhoc(opt, &report);
  } else if (opt.workload == "tenant-serving") {
    rc = mtbench::RunServing(opt, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }
  if (!report.correct) rc = 1;

  std::string config = "{";
  for (const auto& [key, value] : report.config) {
    if (config.size() > 1) config += ", ";
    config += JsonString(key) + ": " + JsonString(value);
  }
  std::printf("config %s}\n", config.c_str());
  PrintMetrics(report.end_to_end, "end_to_end");
  PrintMetrics(report.per_layer, "per_layer");
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }
  std::printf("result {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::fflush(stdout);
  return rc;
}
