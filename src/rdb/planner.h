// Query planner: SelectStmt AST -> physical plan.
//
// Optimizations performed:
//   * predicate pushdown — single-table conjuncts move below the joins
//   * index selection — equality-prefix (+ one range column) predicates use a
//     matching B+-tree index instead of a sequential scan
//   * join ordering — greedy over the join graph: tables an index join can
//     reach go last (inner side), smallest estimate first within each group
//   * index nested-loop joins for equi-joins whose inner table has an index
//     keyed (equality-bound columns..., join columns...), hash joins for
//     the other equi-joins, nested-loop otherwise
//   * aggregate extraction — AggCallExprs become an AggregateNode

#ifndef XMLRDB_RDB_PLANNER_H_
#define XMLRDB_RDB_PLANNER_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "rdb/plan.h"
#include "rdb/sql_ast.h"

namespace xmlrdb {
class ThreadPool;
}  // namespace xmlrdb

namespace xmlrdb::rdb {

/// Catalog lookup callback: table name -> Table* (null if missing).
using TableResolver = std::function<const Table*(const std::string&)>;

/// Planner knobs. Defaults preserve fully serial plans.
struct PlannerOptions {
  /// Upper bound on scan workers. 1 (default) keeps every scan serial.
  int max_parallelism = 1;
  /// Tables with fewer slots than this always scan serially — partitioning
  /// overhead beats the win on small inputs.
  size_t parallel_scan_min_rows = 4096;
  /// Pool used by parallel operators; null means ThreadPool::Shared().
  ThreadPool* pool = nullptr;
};

class Planner {
 public:
  explicit Planner(TableResolver resolver) : resolver_(std::move(resolver)) {}
  Planner(TableResolver resolver, PlannerOptions options)
      : resolver_(std::move(resolver)), options_(options) {}

  /// Builds an executable plan for a SELECT statement.
  Result<PlanPtr> PlanSelect(const SelectStmt& stmt) const;

 private:
  TableResolver resolver_;
  PlannerOptions options_;
};

}  // namespace xmlrdb::rdb

#endif  // XMLRDB_RDB_PLANNER_H_
