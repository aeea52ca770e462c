// Physical query plans: iterator (Volcano) and vectorized execution.
//
// Every operator exposes Open / Next / NextBatch / Close plus its output
// schema. Plans are single-use: Open once, drain with Next (row-at-a-time)
// or NextBatch (column-oriented batches of ~DefaultBatchSize() rows), Close.
// The planner (planner.h) builds these from SQL; the XPath translators may
// also build them directly.
//
// The batch path is the default executor (ExecutePlan consults
// DefaultExecMode()): scans emit column batches directly, Filter evaluates
// its predicate over a selection vector in a tight loop, and HashJoin
// computes hash keys column-wise. Operators that have not been ported run
// through a row-compat shim — the default NextBatchImpl fills a batch by
// calling NextImpl — so both paths always produce byte-identical results.
//
// Open/Next/NextBatch/Close are non-virtual wrappers on PlanNode that
// collect per-operator runtime statistics (rows and batches produced, call
// counts, and — when EnableAnalyze() has been called — wall time); operators
// implement the protected OpenImpl/NextImpl/NextBatchImpl/CloseImpl hooks.
// EXPLAIN ANALYZE renders the collected stats via ExplainAnalyze().

#ifndef XMLRDB_RDB_PLAN_H_
#define XMLRDB_RDB_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "rdb/batch.h"
#include "rdb/expr.h"
#include "rdb/schema.h"
#include "rdb/table.h"

namespace xmlrdb {
class ThreadPool;
}  // namespace xmlrdb

namespace xmlrdb::rdb {

/// Runtime statistics of one operator instance. Row/call counts are always
/// collected (increment-only, no clock reads); the *_ns timers are only
/// populated after EnableAnalyze().
struct OperatorStats {
  int64_t open_calls = 0;
  int64_t next_calls = 0;  ///< row-path Next() calls (shim calls included)
  int64_t batches = 0;     ///< batches produced (NextBatch() returning true)
  int64_t rows = 0;        ///< rows produced through either path
  /// Base-table rows this operator read itself: the visible rows a scan
  /// examined (before any pushed-down filter) or an index join's inner rows.
  int64_t rows_scanned = 0;
  int64_t index_probes = 0;  ///< index seeks (index nested-loop join)
  int64_t open_ns = 0;     ///< wall time inside Open(), children inclusive
  int64_t next_ns = 0;     ///< wall time inside Next*/shim, children inclusive
};

class PlanNode {
 public:
  virtual ~PlanNode() = default;

  virtual const Schema& output_schema() const = 0;

  Status Open();
  /// Produces the next row into *out; returns false when exhausted.
  Result<bool> Next(Row* out);
  /// Produces the next batch into *out (at least one active row); returns
  /// false when exhausted. Do not interleave with Next() on the same plan.
  Result<bool> NextBatch(Batch* out);
  void Close();

  /// One-line operator description (EXPLAIN uses this).
  virtual std::string Describe() const = 0;
  virtual std::vector<const PlanNode*> Children() const { return {}; }

  /// Operator name: Describe() up to the first '(' ("SeqScan", "HashJoin"...).
  std::string OperatorName() const;

  /// Turns on wall-time collection for this subtree (EXPLAIN ANALYZE).
  void EnableAnalyze();
  bool analyze_enabled() const { return analyze_; }

  /// Zeroes the subtree's OperatorStats. Cached plans are re-executed; the
  /// per-statement consumers (FlushPlanMetrics, EXPLAIN ANALYZE) expect
  /// stats for the current execution only, so reset before each reuse.
  void ResetStats();

  const OperatorStats& stats() const { return stats_; }

  /// Multi-line indented plan tree.
  std::string Explain() const;
  /// Explain() annotated with actual row counts and (if analyzing) timings.
  std::string ExplainAnalyze() const;

  /// Count of operators of a given description prefix in this subtree.
  int CountOperators(const std::string& prefix) const;
  /// Join operators in this subtree (hash, nested-loop and index
  /// nested-loop) — the join-count experiment (T6).
  int CountJoins() const;
  /// Base-table accesses in this subtree: every scan, plus the inner probe
  /// of each index nested-loop join (its inner table is not a child node).
  int CountTableAccesses() const;

  /// Operator-specific EXPLAIN ANALYZE fields, appended after the common
  /// ones (empty by default).
  virtual std::string AnalyzeDetail() const { return ""; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextImpl(Row* out) = 0;
  /// Row-compat shim by default: fills *out with up to DefaultBatchSize()
  /// rows pulled through NextImpl. Vectorized operators override this.
  virtual Result<bool> NextBatchImpl(Batch* out);
  virtual void CloseImpl() = 0;

  /// For operators that count their own table reads (rows_scanned,
  /// index_probes) on top of what the wrappers collect.
  OperatorStats& mutable_stats() { return stats_; }

 private:
  bool analyze_ = false;
  OperatorStats stats_;
};

using PlanPtr = std::unique_ptr<PlanNode>;

/// Drains a plan into a row vector (Open .. Close). Uses the vectorized
/// NextBatch path when DefaultExecMode() is kBatch (the default), the
/// row-at-a-time Next path otherwise; results are byte-identical.
Result<std::vector<Row>> ExecutePlan(PlanNode* plan);

/// Publishes a finished plan's per-operator stats into the global
/// MetricsRegistry ("op.<Name>.rows", "exec.rows_scanned", ...). No-op while
/// the registry is disabled.
void FlushPlanMetrics(const PlanNode& plan);

// ---------------------------------------------------------------------------

/// Full scan of a base table. Emits the row versions visible to the read
/// view captured at Open() (newest live rows when no view is installed —
/// direct executor use).
class SeqScanNode : public PlanNode {
 public:
  SeqScanNode(const Table* table, std::string alias);

  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Result<bool> NextBatchImpl(Batch* out) override;
  void CloseImpl() override {}

 private:
  const Table* table_;
  std::string alias_;
  Schema schema_;
  RowId next_ = 0;
  MvccReadView view_;  ///< captured at Open
};

/// Morsel-parallel full table scan. Open() splits the slot range into
/// contiguous morsels dispatched across a thread pool; each worker clones and
/// binds the (optional) pushed-down predicate, then filters its morsel into a
/// private buffer. The buffers are concatenated in morsel order, so the
/// output is byte-identical to SeqScan + Filter. The statement's read view
/// is captured at Open() and copied into every worker — pool threads carry
/// no thread-local view of their own.
class ParallelSeqScanNode : public PlanNode {
 public:
  ParallelSeqScanNode(const Table* table, std::string alias, ExprPtr predicate,
                      int max_workers, ThreadPool* pool);

  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override;
  std::string AnalyzeDetail() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Result<bool> NextBatchImpl(Batch* out) override;
  void CloseImpl() override;

 private:
  const Table* table_;
  std::string alias_;
  Schema schema_;
  ExprPtr predicate_;  ///< unbound; each worker clones + binds its own copy
  int max_workers_;
  ThreadPool* pool_;  ///< null means ThreadPool::Shared()
  std::vector<Row> rows_;
  size_t pos_ = 0;
  MvccReadView view_;  ///< captured at Open, copied into the workers
};

/// Range scan through a secondary index. Bounds are prefix rows over the
/// index key columns; empty = unbounded on that side. The expression-bound
/// form defers bound evaluation to Open() so parameterized plans re-resolve
/// `?` values on every execution; a bound whose runtime type cannot be
/// compared against the key column truncates the prefix there (the planner
/// keeps parameterized conjuncts as residual filters, so widening is safe).
class IndexScanNode : public PlanNode {
 public:
  IndexScanNode(const Table* table, const Index* index, std::string alias,
                Row lower, bool lower_inclusive, Row upper, bool upper_inclusive);
  IndexScanNode(const Table* table, const Index* index, std::string alias,
                std::vector<ExprPtr> lower, bool lower_inclusive,
                std::vector<ExprPtr> upper, bool upper_inclusive);

  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Result<bool> NextBatchImpl(Batch* out) override;
  void CloseImpl() override;

 private:
  const Table* table_;
  const Index* index_;
  std::string alias_;
  Schema schema_;
  Row lower_, upper_;
  std::vector<ExprPtr> lower_exprs_, upper_exprs_;  ///< empty = fixed bounds
  bool lower_inclusive_, upper_inclusive_;
  /// Latest-state path: current row ids from the index (read-latest views
  /// and non-MVCC tables).
  std::vector<RowId> rids_;
  /// Snapshot path: raw index entries (key columns + rid); lazily maintained
  /// entries are re-verified against the visible version's key, which both
  /// rejects stale entries and dedups rows reachable via old + new keys.
  std::vector<Row> entries_;
  bool snapshot_scan_ = false;
  size_t pos_ = 0;
  MvccReadView view_;  ///< captured at Open
};

class FilterNode : public PlanNode {
 public:
  FilterNode(PlanPtr child, ExprPtr predicate);

  const Schema& output_schema() const override { return child_->output_schema(); }
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Result<bool> NextBatchImpl(Batch* out) override;
  void CloseImpl() override { child_->Close(); }

 private:
  PlanPtr child_;
  ExprPtr predicate_;
};

class ProjectNode : public PlanNode {
 public:
  /// `names` supplies output column names (possibly from AS aliases).
  ProjectNode(PlanPtr child, std::vector<ExprPtr> exprs,
              std::vector<std::string> names);

  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Result<bool> NextBatchImpl(Batch* out) override;
  void CloseImpl() override { child_->Close(); }

 private:
  PlanPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
  Batch input_;  ///< batch pulled from the child, projected into *out
};

/// Nested-loop join with an arbitrary predicate (may be null = cross join).
/// The right side is materialised at Open.
class NestedLoopJoinNode : public PlanNode {
 public:
  NestedLoopJoinNode(PlanPtr left, PlanPtr right, ExprPtr predicate);

  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  void CloseImpl() override;

 private:
  PlanPtr left_, right_;
  ExprPtr predicate_;
  Schema schema_;
  std::vector<Row> right_rows_;
  Row left_row_;
  bool left_valid_ = false;
  size_t right_pos_ = 0;
};

/// Equi hash join: build on the right input, probe with the left.
/// `residual` (optional) is applied to the concatenated row.
/// Rows with a NULL in any join key never match (SQL equality semantics):
/// they are skipped on the build side and on the probe side.
class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(PlanPtr left, PlanPtr right, std::vector<ExprPtr> left_keys,
               std::vector<ExprPtr> right_keys, ExprPtr residual);

  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Result<bool> NextBatchImpl(Batch* out) override;
  void CloseImpl() override;

 private:
  struct BuildEntry {
    Row key;
    Row row;
  };

  PlanPtr left_, right_;
  std::vector<ExprPtr> left_keys_, right_keys_;
  ExprPtr residual_;
  Schema schema_;
  std::unordered_multimap<size_t, BuildEntry> build_;
  Row probe_row_;
  std::vector<const Row*> matches_;
  size_t match_pos_ = 0;
  Batch probe_batch_;  ///< batch-path probe input
};

/// Index nested-loop join: for every outer (left) row, seeks `index` of the
/// inner table at (prefix values..., outer join keys...) and emits the
/// visible inner rows that pass `inner_filter`, in outer order and then index
/// order. The prefix values (literals or `?`) bind the index's leading key
/// columns and are evaluated at Open(); the join keys bind the key columns
/// that follow. `outer_keys[i] = inner.col(inner_cols[i])` for every key
/// pair; the first `seek_keys` pairs are the seek suffix, the rest are only
/// verified. Key pairs match exactly as in HashJoinNode: NULL never matches,
/// and values must compare equal and hash alike (1 = 1.0, never 'x' = 1).
///
/// Reads re-verify every entry against the row version visible to the read
/// view captured at Open(), like IndexScanNode: stale entries left by lazy
/// index maintenance are skipped and each row is emitted once. If a prefix
/// value is NULL or cannot be range-compared against its key column, the
/// node instead reads the inner rows of the usable part of the prefix once,
/// filters them with `prefix_checks` (the conjuncts the prefix came from)
/// and `inner_filter`, and matches every outer row against that set — the
/// same rows a hash join over the filtered inner table would give.
class IndexNestedLoopJoinNode : public PlanNode {
 public:
  IndexNestedLoopJoinNode(PlanPtr outer, const Table* table, const Index* index,
                          std::string alias, std::vector<ExprPtr> prefix,
                          std::vector<ExprPtr> outer_keys,
                          std::vector<size_t> inner_cols, size_t seek_keys,
                          ExprPtr inner_filter, ExprPtr prefix_checks);

  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override;
  std::string AnalyzeDetail() const override;
  std::vector<const PlanNode*> Children() const override {
    return {outer_.get()};
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Result<bool> NextBatchImpl(Batch* out) override;
  void CloseImpl() override;

 private:
  /// Fills matches_ with the inner rows joining `key` (the outer join-key
  /// values, NULL-free).
  Status Probe(const Row& key);
  bool KeysMatch(const Row& inner, const Row& key) const;

  PlanPtr outer_;
  const Table* table_;
  const Index* index_;
  std::string alias_;
  Schema inner_schema_, schema_;
  std::vector<ExprPtr> prefix_, outer_keys_;
  std::vector<size_t> inner_cols_;
  size_t seek_keys_;
  ExprPtr inner_filter_, prefix_checks_;  ///< over the inner schema; nullable

  MvccReadView view_;  ///< captured at Open
  Row seek_;           ///< prefix values, then the current outer keys
  size_t prefix_len_ = 0;
  /// Set when a prefix value is unusable: the pre-filtered inner rows every
  /// outer row is matched against.
  bool fallback_ = false;
  std::vector<const Row*> fallback_rows_;
  std::vector<const Row*> candidates_, matches_;
  Row outer_row_;
  size_t match_pos_ = 0;
  Batch outer_batch_;
};

struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

class SortNode : public PlanNode {
 public:
  SortNode(PlanPtr child, std::vector<SortKey> keys);

  const Schema& output_schema() const override { return child_->output_schema(); }
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  void CloseImpl() override;

 private:
  PlanPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

enum class AggFunc { kCount, kCountStar, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc f);

struct AggSpec {
  AggFunc func;
  ExprPtr arg;  ///< null for COUNT(*)
  std::string output_name;
};

/// Hash aggregation. Output schema = group-by columns then aggregates.
class AggregateNode : public PlanNode {
 public:
  AggregateNode(PlanPtr child, std::vector<ExprPtr> group_by,
                std::vector<std::string> group_names, std::vector<AggSpec> aggs);

  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  void CloseImpl() override;

 private:
  PlanPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

class DistinctNode : public PlanNode {
 public:
  explicit DistinctNode(PlanPtr child);

  const Schema& output_schema() const override { return child_->output_schema(); }
  std::string Describe() const override { return "Distinct"; }
  std::vector<const PlanNode*> Children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Result<bool> NextBatchImpl(Batch* out) override;
  void CloseImpl() override;

 private:
  PlanPtr child_;
  std::unordered_multimap<size_t, Row> seen_rows_;
};

class LimitNode : public PlanNode {
 public:
  LimitNode(PlanPtr child, int64_t limit, int64_t offset);

  const Schema& output_schema() const override { return child_->output_schema(); }
  std::string Describe() const override;
  std::vector<const PlanNode*> Children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Result<bool> NextBatchImpl(Batch* out) override;
  void CloseImpl() override { child_->Close(); }

 private:
  PlanPtr child_;
  int64_t limit_, offset_;
  int64_t emitted_ = 0, skipped_ = 0;
};

/// Constant row source (INSERT ... VALUES, tests).
class ValuesNode : public PlanNode {
 public:
  ValuesNode(Schema schema, std::vector<Row> rows);

  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Result<bool> NextBatchImpl(Batch* out) override;
  void CloseImpl() override {}

 private:
  Schema schema_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

}  // namespace xmlrdb::rdb

#endif  // XMLRDB_RDB_PLAN_H_
