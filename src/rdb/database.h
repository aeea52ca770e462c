// Database: the catalog plus the SQL entry point.
//
// A Database owns named tables. Statements run through Execute(); SELECTs
// can also be planned without execution (Plan / Explain) — the plan-shape
// experiment (T6) uses that.
//
// Concurrency model (MVCC snapshot reads over writer locks):
//   * The catalog map is guarded by a reader-writer mutex. Every statement
//     takes it shared just long enough to resolve (and pin) its tables;
//     CREATE TABLE / DROP TABLE take it exclusively.
//   * SELECT and EXPLAIN take NO table locks. Each read-only statement
//     acquires a snapshot LSN from the MVCC engine (rdb/mvcc.h) and scans
//     the row versions visible at that LSN, so readers never wait on
//     writers and writers never wait on readers. A multi-statement scope
//     can pin one snapshot across statements with rdb::ReadSnapshot.
//     CREATE TABLE and CREATE INDEX never disturb an open snapshot: a new
//     table's rows carry later stamps, and a new index is back-filled from
//     every row version (Table::CreateIndex). Only a base-table DROP TABLE
//     fails later statements under an open pin, with kTxnError.
//   * INSERT / DELETE / UPDATE / CREATE INDEX hold an exclusive lock on
//     their single target table for the duration of the statement, so DML
//     conflicts only with DML; the statement's row versions become visible
//     to snapshots atomically at one commit LSN.
//   * DROP TABLE drains in-flight DML on the victim (acquire+release its
//     exclusive lock under the exclusive catalog lock) before erasing it;
//     in-flight readers keep the table alive through their catalog pins
//     (the catalog holds tables by shared_ptr).
//   * Version garbage: old row versions unreachable by every live snapshot
//     are reclaimed by CollectVersionGarbage() — run at checkpoint time and
//     optionally by a background thread (StartVersionGc).
// The public catalog methods (CreateTable, FindTable, ...) lock internally
// and are safe to call concurrently with Execute.
//
// Observability: every statement run through Execute() is timed (total and
// lock-wait) and appended to a bounded in-memory statement log. When a
// slow-query threshold is configured, SELECTs run with per-operator timing
// enabled and offenders keep their captured EXPLAIN ANALYZE tree in the log.
// Three read-only virtual tables expose engine state through the normal
// planner: xmlrdb_metrics (counters + histogram percentiles),
// xmlrdb_statements (the statement log), and xmlrdb_tables (catalog stats).
// The "xmlrdb_" table-name prefix is reserved for them.

#ifndef XMLRDB_RDB_DATABASE_H_
#define XMLRDB_RDB_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "rdb/mvcc.h"
#include "rdb/plan.h"
#include "rdb/plan_cache.h"
#include "rdb/planner.h"
#include "rdb/sql_ast.h"
#include "rdb/table.h"

namespace xmlrdb::rdb {

class Database;
class Env;
class Wal;

/// One executed statement, as kept by the statement log.
struct StatementLogEntry {
  int64_t seq = 0;  ///< monotonically increasing statement number
  std::string sql;
  std::string kind;  ///< "select", "insert", ... (see StatementKind)
  int64_t duration_us = 0;
  int64_t lock_wait_us = 0;  ///< time spent acquiring statement-scope locks
  int64_t rows = 0;          ///< rows returned / affected; -1 on error
  bool slow = false;         ///< duration >= the configured threshold
  bool cache_hit = false;    ///< executed a cached plan (prepared path only)
  int64_t request_id = 0;  ///< client-supplied wire request id (0 = none)
  std::string plan;  ///< captured EXPLAIN ANALYZE tree (slow SELECTs only)
};

/// Bounded ring buffer of the most recent statements. Thread-safe.
class StatementLog {
 public:
  explicit StatementLog(size_t capacity = 256) : capacity_(capacity) {}
  ~StatementLog();

  /// Appends one entry (assigning its seq), evicting the oldest at capacity.
  /// No-op when the capacity is 0.
  void Append(StatementLogEntry entry);

  /// Entries oldest-first.
  std::vector<StatementLogEntry> Entries() const;

  size_t capacity() const;
  /// Resizes the ring; shrinking drops the oldest entries. 0 disables logging.
  void set_capacity(size_t capacity);

  /// Total statements ever appended (not bounded by capacity).
  int64_t total_appended() const;

  void Clear();

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  int64_t next_seq_ = 0;
  std::deque<StatementLogEntry> entries_;
};

/// One live network session, as reported by a session snapshot provider
/// (net::Server) and exposed through the xmlrdb_sessions virtual table.
struct SessionInfo {
  int64_t id = 0;
  std::string peer;   ///< "ip:port" of the client
  std::string state;  ///< "active" (statement executing), "idle", "closing"
  int64_t age_us = 0;
  int64_t statements = 0;  ///< statements executed so far
  int64_t pending = 0;     ///< pipelined requests waiting in-session
  int64_t busy_rejected = 0;
  int64_t prepared_statements = 0;
};

/// One engine shard, as reported by a shard snapshot provider
/// (shard::ShardRouter) and exposed through the xmlrdb_shards virtual
/// table. `scope` distinguishes routers sharing one control database (the
/// server registers one router per mapping).
struct ShardInfo {
  int64_t shard = 0;
  std::string scope;    ///< e.g. the mapping name this router serves
  int64_t docs = 0;     ///< documents currently owned by this shard
  int64_t requests = 0; ///< statements/evaluations routed here
  int64_t errors = 0;
  int64_t plancache_hits = 0;
  int64_t plancache_misses = 0;
  int64_t footprint_bytes = 0;
  int64_t version_bytes = 0;  ///< MVCC row-version bytes awaiting GC
  std::string dir;            ///< durable directory ("" = in-memory)
};

/// Result of Execute(): rows for queries, affected count for DML/DDL.
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  int64_t affected = 0;
  /// EXPLAIN output (empty otherwise).
  std::string plan_text;

  /// Pretty table rendering, for examples and debugging.
  std::string ToString() const;
};

/// A statement parsed once (and, for SELECTs over base tables, plan-cached)
/// against a Database. Cheap to copy — copies share the cache entry. Execute
/// re-binds the positional `?` parameters and runs the statement; when the
/// schema has not changed since the last run, the compiled plan is reused
/// without re-parsing or re-planning.
class PreparedStatement {
 public:
  PreparedStatement() = default;

  /// Runs the statement with `params` bound to the `?` placeholders in
  /// order. `params.size()` must equal param_count().
  Result<QueryResult> Execute(std::vector<Value> params = {});

  /// The plan this statement would execute right now (replanning first if
  /// DDL invalidated the cached one). SELECT statements only.
  Result<std::string> ExplainPlan();

  bool valid() const { return db_ != nullptr; }
  const std::string& sql() const { return entry_->sql; }
  size_t param_count() const { return entry_->parsed.param_count; }

 private:
  friend class Database;
  PreparedStatement(Database* db, std::shared_ptr<PlanCacheEntry> entry)
      : db_(db), entry_(std::move(entry)) {}

  Database* db_ = nullptr;
  std::shared_ptr<PlanCacheEntry> entry_;
};

/// Pins one MVCC snapshot LSN across every statement executed on this
/// thread for the scope's lifetime, so a multi-statement read-only sequence
/// (an XPath evaluation issuing many SELECTs) observes one consistent state
/// regardless of concurrent DML, CREATE TABLE or CREATE INDEX. Nested scopes
/// are no-ops — the outermost pin wins. If a base table is dropped while
/// the pin is open, later statements under it fail with kTxnError (a table
/// dropped and re-created would otherwise read as empty at the pin).
class ReadSnapshot {
 public:
  explicit ReadSnapshot(const Database* db);
  ~ReadSnapshot();
  ReadSnapshot(const ReadSnapshot&) = delete;
  ReadSnapshot& operator=(const ReadSnapshot&) = delete;

  /// True when this scope owns the pin (the outermost one on its thread).
  bool owner() const { return db_ != nullptr; }
  Lsn lsn() const { return lsn_; }

 private:
  friend class Database;
  /// The innermost owning pin on this thread, or nullptr.
  static const ReadSnapshot* Current();

  const Database* db_ = nullptr;
  Lsn lsn_ = 0;
  int64_t drops_at_acquire_ = 0;  ///< Database::table_drops_ at acquisition
  std::optional<MvccSnapshot> snap_;
};

class Database {
 public:
  Database();
  ~Database();  ///< out-of-line: wal_ points to an incomplete type here

  // -- catalog --
  Result<Table*> CreateTable(const std::string& name, Schema schema);
  Status DropTable(const std::string& name);
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Sum of table footprints (storage benchmark).
  size_t FootprintBytes() const;

  // -- SQL --
  /// Parses and executes one statement. Safe to call from many threads at
  /// once; see the locking model above.
  Result<QueryResult> Execute(std::string_view sql);

  /// Plans a SELECT without running it.
  Result<PlanPtr> Plan(const SelectStmt& stmt) const;
  Result<PlanPtr> PlanSql(std::string_view select_sql) const;

  // -- prepared statements & plan cache --
  /// Parses `sql` once (or fetches the cached parse by exact text) and
  /// returns a handle that re-executes it with per-call `?` bindings.
  /// Repeated Prepare calls with the same text share one cache entry, so a
  /// warmed-up workload issues no parses and — for SELECTs — no planning.
  Result<PreparedStatement> Prepare(std::string_view sql);

  /// The shared statement/plan cache. set_capacity(0) disables caching
  /// (every Prepare parses fresh and Execute replans every time).
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// Catalog generation counter: bumped by every DDL statement (CREATE/DROP
  /// TABLE, CREATE INDEX). Cached plans carry the version they were built
  /// at and replan when it moves.
  int64_t schema_version() const {
    return schema_version_.load(std::memory_order_acquire);
  }

  // -- version garbage collection --
  /// One collection pass over every MVCC catalog table: unlinks row
  /// versions no live or future snapshot can reach and frees what no
  /// active reader may still hold (see Table::CollectGarbage). Called at
  /// checkpoint time; safe to call from any thread at any time.
  TableGcStats CollectVersionGarbage();

  /// Starts/stops a background thread running CollectVersionGarbage every
  /// `interval_ms`. Idempotent; the destructor stops it.
  void StartVersionGc(int64_t interval_ms);
  void StopVersionGc();

  /// Planner knobs (parallel scan fan-out, thresholds). Set before serving
  /// traffic: the options are read without synchronization while planning.
  void set_planner_options(const PlannerOptions& options) {
    planner_options_ = options;
  }
  const PlannerOptions& planner_options() const { return planner_options_; }

  // -- observability --
  /// The statement log Execute() appends to. Use set_capacity(0) to disable.
  StatementLog& statement_log() { return statement_log_; }
  const StatementLog& statement_log() const { return statement_log_; }

  /// Slow-query threshold in microseconds. Negative (default) disables slow
  /// tracking. While >= 0, SELECTs execute with per-operator timing enabled
  /// and any statement at or over the threshold is flagged slow in the log
  /// with its EXPLAIN ANALYZE tree attached (0 = capture every statement).
  void set_slow_query_threshold_us(int64_t us) {
    slow_query_threshold_us_.store(us, std::memory_order_relaxed);
  }
  int64_t slow_query_threshold_us() const {
    return slow_query_threshold_us_.load(std::memory_order_relaxed);
  }

  /// True for the reserved virtual-table names ("xmlrdb_metrics",
  /// "xmlrdb_statements", "xmlrdb_tables", "xmlrdb_sessions",
  /// "xmlrdb_resources", "xmlrdb_shards").
  static bool IsVirtualTableName(const std::string& name);

  /// Hook for the network server: while set, SELECTs over xmlrdb_sessions
  /// materialize the provider's snapshot (without one the table is empty).
  /// Pass nullptr to unregister — the server does so before teardown, so
  /// the provider never outlives the sessions it reports on.
  void set_session_snapshot_provider(
      std::function<std::vector<SessionInfo>()> provider) {
    std::lock_guard<std::mutex> lock(session_provider_mu_);
    session_provider_ = std::move(provider);
  }

  /// Hook for the shard router(s): while set, SELECTs over xmlrdb_shards
  /// materialize the provider's snapshot. Works like the session provider;
  /// multiple routers are aggregated by the host before registering.
  void set_shard_snapshot_provider(
      std::function<std::vector<ShardInfo>()> provider) {
    std::lock_guard<std::mutex> lock(session_provider_mu_);
    shard_provider_ = std::move(provider);
  }

  // -- durability --
  /// True for scratch/temporary table names (leading '_'): the per-thread
  /// context and frontier tables the XPath translator churns through. They
  /// are never WAL-logged and never included in a checkpoint snapshot.
  static bool IsTransientTableName(const std::string& name) {
    return !name.empty() && name[0] == '_';
  }

  /// Makes this database durable: every future mutation of a non-transient
  /// table is logged to `wal` before it is applied (the log's error vetoes
  /// the mutation), and Checkpoint() writes snapshots under `dir` via `env`.
  /// Called once by OpenDurableDatabase after recovery, before any traffic.
  void AttachDurability(Env* env, std::string dir, std::unique_ptr<Wal> wal,
                        uint64_t next_checkpoint_seq);

  /// The attached write-ahead log, or nullptr for an in-memory database.
  Wal* wal() const { return wal_.get(); }

  /// Transaction gate: every WalTransaction scope holds it shared for its
  /// whole lifetime; Checkpoint() takes it exclusively so a snapshot never
  /// captures the in-memory rows of a transaction whose commit record would
  /// land in the post-snapshot log (which, after a crash, would resurrect an
  /// uncommitted transaction). Statement-scope mutations need no gate — they
  /// commit atomically with their single WAL append under the table lock.
  std::shared_mutex& txn_gate() { return txn_gate_; }

  /// Writes a consistent snapshot of every durable table, switches the WAL
  /// to a fresh log file, atomically flips the CURRENT pointer to the new
  /// (snapshot, log) pair, and deletes the old one. Quiesces writers for the
  /// duration (readers keep running). Error only in the durable state; the
  /// in-memory database is never harmed by a failed checkpoint — the old
  /// snapshot + log remain authoritative. Defined in durability.cc.
  Status Checkpoint();

 private:
  /// The tables a SELECT references plus its snapshot, for statement scope.
  struct ReadTables;

  /// Per-statement execution details threaded out of the Run* helpers for
  /// the statement log.
  struct StatementExec {
    int64_t lock_wait_us = 0;
    /// EXPLAIN ANALYZE tree, filled for SELECTs while slow tracking is on.
    std::string analyzed_plan;
  };

  /// Resolves `from` under the catalog lock and pins every distinct table,
  /// then acquires (or reuses the thread's pinned) MVCC snapshot and
  /// installs the statement's read view — no table locks. Virtual xmlrdb_*
  /// names materialize a snapshot table owned by `out`. Fails with
  /// kTxnError under a pin that a base-table DROP has outdated. The catalog
  /// lock is released on return; the time spent acquiring it is added to
  /// *lock_wait_us when non-null.
  Status ResolveReadTables(const std::vector<TableRef>& from, ReadTables* out,
                           int64_t* lock_wait_us = nullptr) const;
  /// Resolves `name` and locks that table exclusively for statement scope;
  /// `pin` keeps it alive past a concurrent DROP.
  Status LockTableExclusive(const std::string& name, Table** table,
                            std::shared_ptr<Table>* pin,
                            std::unique_lock<std::shared_mutex>* lock,
                            int64_t* lock_wait_us = nullptr);

  /// Builds the named virtual table from live engine state.
  std::unique_ptr<Table> MaterializeVirtualTable(const std::string& name) const;

  Result<Table*> CreateTableLocked(const std::string& name, Schema schema);
  const Table* FindTableLocked(const std::string& name) const;
  Table* FindTableLocked(const std::string& name);

  Result<PlanPtr> PlanWithTables(const SelectStmt& stmt,
                                 const ReadTables& tables) const;

  friend class PreparedStatement;
  /// Execution + observability epilogue for PreparedStatement::Execute.
  Result<QueryResult> ExecutePrepared(PlanCacheEntry* entry,
                                      std::vector<Value> params);
  /// SELECT path with plan reuse: validates the cached plan against the
  /// schema version, replanning on mismatch. Requires entry->exec_mu held.
  Result<QueryResult> RunSelectPrepared(PlanCacheEntry* entry,
                                        StatementExec* exec, bool* cache_hit);
  Result<std::string> ExplainPrepared(PlanCacheEntry* entry);
  void BumpSchemaVersion() {
    schema_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  friend class ReadSnapshot;

  /// Checkpoint body (durability.cc); Checkpoint() wraps it and follows up
  /// with a version-GC pass once every quiesce lock is released.
  Status CheckpointImpl();

  Result<QueryResult> Dispatch(const Statement& stmt, StatementExec* exec);
  Result<QueryResult> RunSelect(const SelectStmt& stmt, StatementExec* exec);
  Result<QueryResult> RunExplain(const ExplainStmt& stmt, StatementExec* exec);
  Result<QueryResult> RunCreateTable(const CreateTableStmt& stmt);
  Result<QueryResult> RunCreateIndex(const CreateIndexStmt& stmt,
                                     StatementExec* exec);
  Result<QueryResult> RunDropTable(const DropTableStmt& stmt);
  Result<QueryResult> RunInsert(const InsertStmt& stmt, StatementExec* exec);
  Result<QueryResult> RunDelete(const DeleteStmt& stmt, StatementExec* exec);
  Result<QueryResult> RunUpdate(const UpdateStmt& stmt, StatementExec* exec);

  mutable std::shared_mutex mu_;  ///< guards tables_ (the catalog)
  /// Tables are held by shared_ptr so lock-free snapshot readers can pin
  /// one across DROP TABLE: the object (and its version chains) stays
  /// alive until the last in-flight statement drops its pin.
  std::map<std::string, std::shared_ptr<Table>> tables_;
  PlannerOptions planner_options_;
  StatementLog statement_log_;
  std::atomic<int64_t> slow_query_threshold_us_{-1};
  std::atomic<int64_t> schema_version_{0};
  /// Base-table DROP TABLEs so far, bumped under the exclusive catalog
  /// lock. A ReadSnapshot records it; a statement under the pin fails when
  /// it has moved (see ResolveReadTables).
  std::atomic<int64_t> table_drops_{0};
  PlanCache plan_cache_;
  mutable std::mutex session_provider_mu_;
  std::function<std::vector<SessionInfo>()> session_provider_;
  std::function<std::vector<ShardInfo>()> shard_provider_;

  // Background version GC (StartVersionGc / StopVersionGc).
  std::mutex gc_mu_;
  std::condition_variable gc_cv_;
  bool gc_stop_ = false;
  std::thread gc_thread_;

  // Durability state (set once by AttachDurability, before traffic).
  // Lock order: checkpoint_mu_ -> mu_ (shared) -> table locks (name order)
  // -> the Wal's internal mutex, which is a leaf. The MVCC engine's commit
  // and snapshot mutexes are leaves below every lock above.
  Env* env_ = nullptr;
  std::string durable_dir_;
  std::unique_ptr<Wal> wal_;
  std::shared_mutex txn_gate_;
  std::mutex checkpoint_mu_;  ///< serializes Checkpoint() calls
  uint64_t checkpoint_seq_ = 0;  ///< guarded by checkpoint_mu_
};

}  // namespace xmlrdb::rdb

#endif  // XMLRDB_RDB_DATABASE_H_
