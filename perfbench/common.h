// Shared plumbing of the xmlrdb benchmark: run options, the report a
// workload hands back, sample statistics and mapping construction.

#ifndef XMLRDB_PERFBENCH_COMMON_H_
#define XMLRDB_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "shred/mapping.h"

namespace xmlrdb::perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (relative to the working directory) for durable stores and
  /// trace output; removed stores never outlive the run.
  std::string out_dir = ".bench_out";
};

/// What one workload run reports: operation counts, the first check
/// failures, and its metrics in emission order.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  /// A workload figure (suite_ms.<mapping>, load_mb_per_s, ...): a metric of
  /// the traced run, computed from its untraced operations; an untraced run
  /// only logs it to stderr, since its metrics are the end-to-end set.
  void Figure(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check: the run is no longer correct.
  void Fail(const std::string& what);

  int64_t attempted = 0;
  int64_t failed = 0;

  bool correct() const { return errors_ == 0; }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }

 private:
  bool trace_;
  int64_t errors_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Seconds on the steady clock since the process started (see main.cc).
double SecondsSinceStart();

/// Microseconds between two steady-clock points.
inline double MicrosBetween(std::chrono::steady_clock::time_point a,
                            std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double GeoMean(const std::vector<double>& v);

/// All six mappings, in the order the paper lists them.
std::vector<std::string> MappingNames();

/// Builds a mapping by name; "inline" is derived from the auction DTD.
std::unique_ptr<shred::Mapping> MakeMapping(const std::string& name);

/// A fresh, empty directory under options.out_dir for one durable store of
/// this process; RemoveStores() deletes every one of them.
std::string FreshStoreDir(const Options& options, const std::string& tag);
void RemoveStores(const Options& options);

/// Total size of the regular files under `dir`.
int64_t DirectoryBytes(const std::string& dir);

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<size_t> Shuffled(size_t n, uint64_t seed);

}  // namespace xmlrdb::perfbench

#endif  // XMLRDB_PERFBENCH_COMMON_H_
