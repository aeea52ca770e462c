// query_matrix: Q1–Q12 × six mappings over one stored XMark document.
//
// One operation is one query on one mapping: ParseXPath, EvalPath, then
// StringValues on the result set. A sweep runs all 72 (mapping, query)
// cells once, in an order drawn from the seed; the run repeats whole sweeps
// until its time is up. suite_ms.<mapping> sums the twelve per-query medians.
//
// The traced run alternates traced and untraced sweeps: traced sweeps time
// the three calls apart under benchmark spans and a metrics capture, and the
// untraced ones give the baseline for trace.overhead_us.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "shred/evaluator.h"
#include "workload/queries.h"
#include "workload/xmark.h"
#include "workloads.h"
#include "xml/serializer.h"

namespace xmlrdb::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// XMark scale of the stored document (~90 KB of XML): large enough that
/// the interval and dewey range scans cover thousands of index rows.
constexpr double kScale = 0.5;

struct Store {
  std::string name;
  std::unique_ptr<shred::Mapping> mapping;
  std::unique_ptr<rdb::Database> db;
  shred::DocId doc = 0;
  /// inline keeps sibling order only within one table; its answers are
  /// compared as multisets (see inline_mapping.h).
  bool ordered = true;
};

/// Samples and counters of one (mapping, query) cell.
struct Cell {
  std::vector<double> total_us;   ///< untraced parse + eval + string values
  std::vector<double> traced_us;  ///< the same, traced
  std::vector<double> parse_us, eval_us, values_us;
  bool counted = false;  ///< counters below come from the first traced run
  int64_t statements = 0, rows_scanned = 0, batches = 0, results = 0;
};

int64_t Counter(const MetricsSnapshot& delta, const char* name) {
  auto it = delta.find(name);
  return it == delta.end() ? 0 : it->second;
}

}  // namespace

void RunQueryMatrix(const Options& options, Report* report) {
  workload::XMarkConfig cfg;
  cfg.scale = kScale;
  cfg.seed = options.seed;
  std::unique_ptr<xml::Document> dom = workload::GenerateXMark(cfg);

  const std::vector<workload::BenchQuery> queries = workload::AuctionQueries();
  std::vector<std::vector<std::string>> oracle;
  std::vector<std::vector<std::string>> oracle_subtrees;
  for (const auto& q : queries) {
    auto path = xpath::ParseXPath(q.xpath);
    auto strings = path.ok() ? OracleStrings(path.value(), *dom)
                             : Result<std::vector<std::string>>(path.status());
    auto subtrees = path.ok() ? OracleSubtrees(path.value(), *dom)
                              : Result<std::vector<std::string>>(path.status());
    if (!strings.ok() || !subtrees.ok()) {
      report->Fail("oracle " + q.id + ": " +
                   (strings.ok() ? subtrees : strings).status().ToString());
      return;
    }
    oracle.push_back(std::move(strings).value());
    oracle_subtrees.push_back(std::move(subtrees).value());
  }

  std::vector<Store> stores;
  for (const std::string& name : MappingNames()) {
    Store s;
    s.name = name;
    s.ordered = name != "inline";
    s.mapping = MakeMapping(name);
    s.db = std::make_unique<rdb::Database>();
    Status st = s.mapping == nullptr ? Status::Internal("no mapping " + name)
                                     : s.mapping->Initialize(s.db.get());
    auto id = st.ok() ? s.mapping->Store(*dom, s.db.get())
                      : Result<shred::DocId>(st);
    if (!id.ok()) {
      report->Fail("store " + name + ": " + id.status().ToString());
      return;
    }
    s.doc = id.value();
    stores.push_back(std::move(s));
  }

  const size_t nq = queries.size();
  std::vector<Cell> cells(stores.size() * nq);
  TraceCollector& tracer = TraceCollector::Global();
  int64_t plancache_hits = 0;
  int64_t plancache_misses = 0;

  // One operation; `timed` false is the untimed warm-up, which also checks
  // each selected subtree against the DOM's. Returns the latency of an
  // untraced timed operation that succeeded, else 0.
  auto run_cell = [&](size_t index, bool timed, bool traced) -> double {
    Store& s = stores[index / nq];
    const size_t qi = index % nq;
    const workload::BenchQuery& q = queries[qi];
    Cell& cell = cells[index];
    ++report->attempted;

    // Spans are inert in untraced sweeps (the collector is off).
    std::unique_ptr<ScopedSpan> op_span;
    std::unique_ptr<ScopedMetricsCapture> capture;
    if (traced) {
      op_span = std::make_unique<ScopedSpan>(
          "perfbench.query." + s.name + "." + q.id, "perfbench");
    }
    const Clock::time_point t0 = Clock::now();
    Result<xpath::PathExpr> path = Status::Internal("unset");
    {
      ScopedSpan span("perfbench.xpath.parse", "perfbench");
      path = xpath::ParseXPath(q.xpath);
    }
    const Clock::time_point t1 = Clock::now();
    if (traced) capture = std::make_unique<ScopedMetricsCapture>();
    const Clock::time_point t2 = Clock::now();
    Result<shred::NodeSet> nodes = Status::Internal("unset");
    {
      ScopedSpan span("perfbench.shred.eval", "perfbench");
      nodes = path.ok() ? shred::EvalPath(path.value(), s.mapping.get(),
                                          s.db.get(), s.doc)
                        : Result<shred::NodeSet>(path.status());
    }
    const Clock::time_point t3 = Clock::now();
    MetricsSnapshot delta;
    if (traced) delta = capture->Delta();
    const Clock::time_point t4 = Clock::now();
    Result<std::vector<std::string>> values = Status::Internal("unset");
    {
      ScopedSpan span("perfbench.shred.string_values", "perfbench");
      values = nodes.ok() ? s.mapping->StringValues(s.db.get(), s.doc,
                                                    nodes.value())
                          : Result<std::vector<std::string>>(nodes.status());
    }
    const Clock::time_point t5 = Clock::now();
    capture.reset();
    op_span.reset();

    if (!values.ok()) {
      ++report->failed;
      report->Fail(s.name + "/" + q.id + ": " + values.status().ToString());
      return 0;
    }
    std::string diff = CompareStrings(values.value(), oracle[qi], s.ordered);
    if (!diff.empty()) report->Fail(s.name + "/" + q.id + ": " + diff);
    if (!timed && q.id == "Q12") {
      std::vector<std::string> subtrees;
      for (const rdb::Value& node : nodes.value()) {
        auto tree = s.mapping->ReconstructSubtree(s.db.get(), s.doc, node);
        if (!tree.ok()) {
          report->Fail(s.name + "/Q12 subtree: " + tree.status().ToString());
          return 0;
        }
        subtrees.push_back(xml::Canonicalize(*tree.value()));
      }
      diff = CompareStrings(subtrees, oracle_subtrees[qi], s.ordered);
      if (!diff.empty()) report->Fail(s.name + "/Q12 subtrees: " + diff);
    }
    if (!timed) return 0;
    if (!traced) {
      cell.total_us.push_back(MicrosBetween(t0, t1) + MicrosBetween(t2, t3) +
                              MicrosBetween(t4, t5));
      return cell.total_us.back();
    }
    cell.parse_us.push_back(MicrosBetween(t0, t1));
    cell.eval_us.push_back(MicrosBetween(t2, t3));
    cell.values_us.push_back(MicrosBetween(t4, t5));
    cell.traced_us.push_back(cell.parse_us.back() + cell.eval_us.back() +
                             cell.values_us.back());
    plancache_hits += Counter(delta, "plancache.hits");
    plancache_misses += Counter(delta, "plancache.misses");
    if (!cell.counted) {
      cell.counted = true;
      cell.statements = Counter(delta, "sql.statements");
      cell.rows_scanned = Counter(delta, "exec.rows_scanned");
      cell.batches = Counter(delta, "exec.batches");
      cell.results = static_cast<int64_t>(nodes.value().size());
    }
    return 0;
  };

  // Warm-up sweep: fills plan caches and checks Q12's subtrees.
  for (size_t i = 0; i < cells.size(); ++i) run_cell(i, false, false);
  if (!options.trace) report->Add("setup_s", SecondsSinceStart(), "s");

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  int64_t sweeps = 0;
  std::vector<double> sweep_us;  ///< summed operation time of untraced sweeps
  while (sweeps < 2 || Clock::now() < deadline) {
    const bool traced = options.trace && sweeps % 2 == 0;
    tracer.set_enabled(traced);
    double sum_us = 0;
    for (size_t index : Shuffled(cells.size(), options.seed * 1000003 + sweeps)) {
      sum_us += run_cell(index, true, traced);
    }
    if (!traced) sweep_us.push_back(sum_us);
    tracer.set_enabled(false);
    ++sweeps;
  }
  std::fprintf(stderr,
               "query_matrix: scale %.2f, %lld sweeps of %zu cells; untraced "
               "sweep ms min %.1f median %.1f max %.1f\n",
               kScale, static_cast<long long>(sweeps), cells.size(),
               Percentile(sweep_us, 0) / 1000, Median(sweep_us) / 1000,
               Percentile(sweep_us, 100) / 1000);

  if (!options.trace) {
    std::vector<double> cell_medians;
    for (const Cell& cell : cells) cell_medians.push_back(Median(cell.total_us));
    report->Add("round_ms", Median(sweep_us) / 1000.0, "ms");
    report->Add("read_us", GeoMean(cell_medians), "us");
  }
  for (size_t m = 0; m < stores.size(); ++m) {
    const std::string& name = stores[m].name;
    const Cell* row = &cells[m * nq];
    double suite_us = 0;
    for (size_t q = 0; q < nq; ++q) suite_us += Median(row[q].total_us);
    report->Figure("suite_ms." + name, suite_us / 1000.0, "ms");
    if (!options.trace) continue;
    double eval_us = 0, values_us = 0;
    int64_t statements = 0, rows = 0, batches = 0, results = 0;
    for (size_t q = 0; q < nq; ++q) {
      eval_us += Median(row[q].eval_us);
      values_us += Median(row[q].values_us);
      statements += row[q].statements;
      rows += row[q].rows_scanned;
      batches += row[q].batches;
      results += row[q].results;
    }
    const double per_query = 1.0 / static_cast<double>(nq);
    report->Add("shred.eval_us." + name, eval_us, "us");
    report->Add("shred.string_values_us." + name, values_us, "us");
    report->Add("rdb.sql_stmts_per_query." + name,
                static_cast<double>(statements) * per_query, "count");
    report->Add("rdb.us_per_stmt." + name,
                statements > 0 ? eval_us / static_cast<double>(statements) : 0,
                "us");
    report->Add("rdb.rows_scanned_per_result." + name,
                results > 0 ? static_cast<double>(rows) /
                                  static_cast<double>(results)
                            : 0,
                "ratio");
    report->Add("rdb.batches_per_query." + name,
                static_cast<double>(batches) * per_query, "count");
  }
  if (options.trace) {
    std::vector<double> parse;
    double overhead = 0;
    for (const Cell& cell : cells) {
      parse.insert(parse.end(), cell.parse_us.begin(), cell.parse_us.end());
      overhead += Median(cell.traced_us) - Median(cell.total_us);
    }
    report->Add("xpath.parse_us", Median(parse), "us");
    const int64_t lookups = plancache_hits + plancache_misses;
    report->Add("rdb.plancache_hit_ratio",
                lookups > 0 ? static_cast<double>(plancache_hits) /
                                  static_cast<double>(lookups)
                            : 0,
                "ratio");
    report->Add("trace.overhead_us",
                overhead / static_cast<double>(cells.size()), "us");
  }
}

}  // namespace xmlrdb::perfbench
