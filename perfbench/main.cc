// xmlrdb_perfbench: runs one named workload of the xmlrdb benchmark and
// prints, as the last line of standard output, one JSON object
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// Usage:
//   xmlrdb_perfbench --workload <query_matrix|load_publish|serve_mixed>
//                    --seed N --seconds S --trace <0|1> [--out-dir DIR]
//   xmlrdb_perfbench --self-test
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics: the named workload runs its traced pass for the full time, the
// other two a short traced pass each on the same inputs, so every layer is
// reported; the Chrome trace is written to DIR/trace_<workload>_<seed>.json.
// Exits 1 if an output check fails.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "checks.h"
#include "common.h"
#include "common/json.h"
#include "common/trace.h"
#include "workloads.h"

namespace xmlrdb::perfbench {

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

/// Seconds given to each other workload's traced pass in a traced run; it
/// still runs the workload's minimum number of rounds.
constexpr double kOtherSeconds = 2.0;

using RunFn = void (*)(const Options&, Report*);

struct Workload {
  const char* name;
  RunFn run;
};

constexpr Workload kWorkloads[] = {
    {"query_matrix", RunQueryMatrix},
    {"load_publish", RunLoadPublish},
    {"serve_mixed", RunServeMixed},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <query_matrix|load_publish|serve_mixed> "
               "--seed N --seconds S --trace <0|1> [--out-dir DIR]\n"
               "       %s --self-test\n",
               argv0, argv0);
  return 2;
}

void PrintResult(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.first) ? metric.first : 0.0);
    if (!first) out += ", ";
    first = false;
    out += json::Quote(name) + ": {\"value\": " + value +
           ", \"unit\": " + json::Quote(metric.second) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

double SecondsSinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

int Main(int argc, char** argv) {
  Options options;
  bool self_test = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--self-test") == 0) {
      self_test = true;
    } else if (next == nullptr) {
      return Usage(argv[0]);
    } else if (std::strcmp(arg, "--workload") == 0) {
      options.workload = next;
      ++i;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(next, nullptr, 10);
      have_seed = true;
      ++i;
    } else if (std::strcmp(arg, "--seconds") == 0) {
      options.seconds = std::atof(next);
      have_seconds = options.seconds > 0;
      ++i;
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.trace = std::strcmp(next, "1") == 0;
      have_trace = options.trace || std::strcmp(next, "0") == 0;
      ++i;
    } else if (std::strcmp(arg, "--out-dir") == 0) {
      options.out_dir = next;
      ++i;
    } else {
      return Usage(argv[0]);
    }
  }

  // The checks must be able to fail: every run first shows that each one
  // rejects a perturbed answer.
  const std::string self_test_error = SelfTest();
  if (!self_test_error.empty()) {
    std::fprintf(stderr, "check self-test failed: %s\n",
                 self_test_error.c_str());
    return 1;
  }
  if (self_test) {
    std::fprintf(stderr, "check self-test passed\n");
    return 0;
  }

  const Workload* named = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) named = &w;
  }
  if (named == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage(argv[0]);
  }

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  Report report(options.trace);
  if (options.trace) TraceCollector::Global().set_capacity(256 * 1024);
  named->run(options, &report);
  if (options.trace) {
    Options other = options;
    other.seconds = kOtherSeconds;
    for (const Workload& w : kWorkloads) {
      if (&w != named) w.run(other, &report);
    }
    const std::string path = options.out_dir + "/trace_" + options.workload +
                             "_" + std::to_string(options.seed) + ".json";
    std::ofstream(path) << TraceCollector::Global().RenderChromeJson();
    std::fprintf(stderr, "trace: %zu events (%lld dropped) written to %s\n",
                 TraceCollector::Global().size(),
                 static_cast<long long>(TraceCollector::Global().dropped()),
                 path.c_str());
  }
  RemoveStores(options);
  PrintResult(report);
  return report.correct() ? 0 : 1;
}

}  // namespace xmlrdb::perfbench

int main(int argc, char** argv) { return xmlrdb::perfbench::Main(argc, argv); }
