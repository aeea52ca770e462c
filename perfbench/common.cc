#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include <unistd.h>

#include "common/rng.h"
#include "shred/inline_mapping.h"
#include "shred/registry.h"
#include "workload/xmark.h"
#include "xml/dtd.h"

namespace xmlrdb::perfbench {

namespace fs = std::filesystem;

void Report::Fail(const std::string& what) {
  if (errors_ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++errors_;
}

void Report::Figure(const std::string& name, double value,
                    const std::string& unit) {
  if (trace_) {
    Add(name, value, unit);
  } else {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", name.c_str(), value,
                 unit.c_str());
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

std::vector<std::string> MappingNames() {
  return {"edge", "binary", "interval", "dewey", "inline", "blob"};
}

std::unique_ptr<shred::Mapping> MakeMapping(const std::string& name) {
  if (name == "inline") {
    auto dtd = xml::ParseDtd(workload::XMarkDtd());
    if (!dtd.ok()) return nullptr;
    auto m = shred::InlineMapping::Create(*dtd.value(), "site");
    return m.ok() ? std::move(m).value() : nullptr;
  }
  auto m = shred::CreateMapping(name);
  return m.ok() ? std::move(m).value() : nullptr;
}

namespace {

fs::path StoreRoot(const Options& options) {
  return fs::path(options.out_dir) /
         ("stores_" + std::to_string(static_cast<long>(getpid())));
}

}  // namespace

std::string FreshStoreDir(const Options& options, const std::string& tag) {
  const fs::path dir = StoreRoot(options) / tag;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir.parent_path(), ec);
  return dir.string();
}

void RemoveStores(const Options& options) {
  std::error_code ec;
  fs::remove_all(StoreRoot(options), ec);
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

std::vector<size_t> Shuffled(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
  }
  return order;
}

}  // namespace xmlrdb::perfbench
