#include "rdb/database.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "common/metrics.h"
#include "common/resource_tracker.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "rdb/sql_parser.h"
#include "rdb/wal.h"

namespace xmlrdb::rdb {

namespace {

ResourceGauge& StatementLogGauge() {
  static ResourceGauge& g =
      ResourceTracker::Global().GetGauge("statementlog.entries");
  return g;
}

/// The innermost owning ReadSnapshot pin on this thread.
thread_local const ReadSnapshot* tls_pinned_snapshot = nullptr;

}  // namespace

Database::Database() = default;

Database::~Database() { StopVersionGc(); }

// ---------------------------------------------------------------------------
// ReadSnapshot: a thread-pinned multi-statement snapshot.

ReadSnapshot::ReadSnapshot(const Database* db) {
  if (db == nullptr) return;
  if (tls_pinned_snapshot != nullptr) return;  // nested: the outer pin wins
  // Drop count before the snapshot: a DROP landing in between then fails
  // the pin's statements (spurious but safe) instead of going unnoticed.
  drops_at_acquire_ = db->table_drops_.load(std::memory_order_acquire);
  snap_.emplace();
  lsn_ = snap_->lsn();
  db_ = db;
  tls_pinned_snapshot = this;
}

ReadSnapshot::~ReadSnapshot() {
  if (db_ != nullptr) tls_pinned_snapshot = nullptr;
}

const ReadSnapshot* ReadSnapshot::Current() { return tls_pinned_snapshot; }

// ---------------------------------------------------------------------------
// Statement log.

StatementLog::~StatementLog() {
  std::lock_guard<std::mutex> lock(mu_);
  StatementLogGauge().Add(-static_cast<int64_t>(entries_.size()));
}

void StatementLog::Append(StatementLogEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  entry.seq = next_seq_++;
  entries_.push_back(std::move(entry));
  StatementLogGauge().Add(1);
  while (entries_.size() > capacity_) {
    entries_.pop_front();
    StatementLogGauge().Add(-1);
  }
}

std::vector<StatementLogEntry> StatementLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

size_t StatementLog::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void StatementLog::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  while (entries_.size() > capacity_) {
    entries_.pop_front();
    StatementLogGauge().Add(-1);
  }
}

int64_t StatementLog::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

void StatementLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  StatementLogGauge().Add(-static_cast<int64_t>(entries_.size()));
  entries_.clear();
}

std::string QueryResult::ToString() const {
  if (!plan_text.empty()) return plan_text;
  std::ostringstream os;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) os << " | ";
    os << schema.column(i).QualifiedName();
  }
  os << "\n";
  for (const Row& r : rows) {
    for (size_t i = 0; i < r.size(); ++i) {
      if (i > 0) os << " | ";
      os << r[i].ToString();
    }
    os << "\n";
  }
  os << "(" << rows.size() << " rows)";
  return os.str();
}

// ---------------------------------------------------------------------------
// Catalog (public methods lock internally; *Locked assume mu_ is held).

Result<Table*> Database::CreateTable(const std::string& name, Schema schema) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return CreateTableLocked(name, std::move(schema));
}

Result<Table*> Database::CreateTableLocked(const std::string& name,
                                           Schema schema) {
  if (name.rfind("xmlrdb_", 0) == 0) {
    return Status::InvalidArgument(
        "table names beginning with 'xmlrdb_' are reserved for virtual "
        "tables");
  }
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  const bool transient = IsTransientTableName(name);
  const bool durable = wal_ != nullptr && !transient;
  // WAL before catalog: a table the log never heard of must not exist.
  if (durable) RETURN_IF_ERROR(wal_->LogCreateTable(name, schema));
  auto table = std::make_shared<Table>(name, std::move(schema));
  Table* out = table.get();
  // Transient scratch tables are thread-private: versioning them would only
  // add stamp/commit traffic to the XPath translator's hot loop.
  out->set_mvcc(!transient);
  out->set_self(table);
  if (durable) out->set_mutation_sink(wal_.get());
  tables_[name] = std::move(table);
  BumpSchemaVersion();
  return out;
}

Status Database::DropTable(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table '" + name + "'");
  if (wal_ != nullptr && !IsTransientTableName(name)) {
    RETURN_IF_ERROR(wal_->LogDropTable(name));
  }
  // Drain in-flight DML: a mutator acquired the table lock while holding the
  // catalog lock we now own exclusively, so once we can take the table lock
  // no writer remains and none can start. Snapshot readers take no table
  // lock — they keep the Table object alive through their catalog pins and
  // finish their scans against it after the erase.
  { std::unique_lock<std::shared_mutex> drain(it->second->mutex()); }
  tables_.erase(it);
  // Any cached plan may hold a pointer into the erased table; bumping the
  // version forces those plans to rebuild before their next execution.
  BumpSchemaVersion();
  if (!IsTransientTableName(name)) {
    table_drops_.fetch_add(1, std::memory_order_acq_rel);
  }
  return Status::OK();
}

Table* Database::FindTable(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return FindTableLocked(name);
}

const Table* Database::FindTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return FindTableLocked(name);
}

Table* Database::FindTableLocked(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::FindTableLocked(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

void Database::AttachDurability(Env* env, std::string dir,
                                std::unique_ptr<Wal> wal,
                                uint64_t next_checkpoint_seq) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  env_ = env;
  durable_dir_ = std::move(dir);
  wal_ = std::move(wal);
  checkpoint_seq_ = next_checkpoint_seq;
  for (auto& [name, table] : tables_) {
    if (!IsTransientTableName(name)) table->set_mutation_sink(wal_.get());
  }
}

std::vector<std::string> Database::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  return out;
}

size_t Database::FootprintBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [_, t] : tables_) total += t->FootprintBytes();
  return total;
}

// ---------------------------------------------------------------------------
// Version garbage collection.

TableGcStats Database::CollectVersionGarbage() {
  std::vector<std::shared_ptr<Table>> targets;
  {
    std::shared_lock<std::shared_mutex> catalog(mu_);
    for (const auto& [name, t] : tables_) {
      // Non-MVCC (scratch) tables carry no version garbage: updates are
      // in-place and Truncate frees their slots wholesale.
      if (t->mvcc_enabled()) targets.push_back(t);
    }
  }
  MvccEngine& engine = MvccEngine::Global();
  TableGcStats total;
  for (const auto& t : targets) {
    // Re-read the bounds per table: snapshots released while earlier tables
    // were collected let later tables trim further.
    TableGcStats s =
        t->CollectGarbage(engine.GcBound(), engine.ReclaimFloor());
    total.versions_freed += s.versions_freed;
    total.versions_reclaimed += s.versions_reclaimed;
    total.index_entries_removed += s.index_entries_removed;
    total.bytes_unlinked += s.bytes_unlinked;
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (reg.enabled() && total.versions_freed > 0) {
    reg.Add("mvcc.gc_versions_freed",
            static_cast<int64_t>(total.versions_freed));
  }
  return total;
}

void Database::StartVersionGc(int64_t interval_ms) {
  std::lock_guard<std::mutex> lock(gc_mu_);
  if (gc_thread_.joinable()) return;
  gc_stop_ = false;
  gc_thread_ = std::thread([this, interval_ms] {
    std::unique_lock<std::mutex> lock(gc_mu_);
    while (!gc_stop_) {
      if (gc_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                          [this] { return gc_stop_; })) {
        break;
      }
      lock.unlock();
      CollectVersionGarbage();
      lock.lock();
    }
  });
}

void Database::StopVersionGc() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(gc_mu_);
    gc_stop_ = true;
    worker = std::move(gc_thread_);
  }
  gc_cv_.notify_all();
  if (worker.joinable()) worker.join();
}

// ---------------------------------------------------------------------------
// Statement-scope table resolution for reads: catalog pins plus one MVCC
// snapshot, no table locks.

struct Database::ReadTables {
  /// Distinct referenced tables, resolved under the catalog lock.
  std::map<std::string, const Table*> tables;
  /// Keep-alives for the catalog tables: a concurrent DROP TABLE erases the
  /// catalog entry but the objects (and their version chains) outlive the
  /// statement.
  std::vector<std::shared_ptr<const Table>> pins;
  /// Materialized virtual-table snapshots, alive for statement scope.
  std::vector<std::unique_ptr<Table>> owned;
  /// The statement's own snapshot registration (absent when reusing the
  /// thread's pinned ReadSnapshot), the read view, and its installation for
  /// the statement's plan nodes to capture.
  std::optional<MvccSnapshot> snapshot;
  MvccReadView view;
  std::optional<ScopedReadView> scoped;
};

Status Database::ResolveReadTables(const std::vector<TableRef>& from,
                                   ReadTables* out,
                                   int64_t* lock_wait_us) const {
  Stopwatch wait;
  std::shared_lock<std::shared_mutex> catalog(mu_);
  const ReadSnapshot* pin = ReadSnapshot::Current();
  if (pin != nullptr && pin->db_ != this) pin = nullptr;
  // New tables read empty at an older pin and new indexes cover every row
  // version, but a table dropped since the pin (and perhaps re-created
  // under the same name) would silently read as missing or empty.
  if (pin != nullptr &&
      pin->drops_at_acquire_ != table_drops_.load(std::memory_order_acquire)) {
    return Status::TxnError(
        "a table was dropped under the open read snapshot; re-acquire the "
        "snapshot and retry");
  }
  for (const TableRef& ref : from) {
    if (out->tables.count(ref.table) > 0) continue;
    const Table* t = nullptr;
    auto it = tables_.find(ref.table);
    if (it != tables_.end()) {
      t = it->second.get();
      out->pins.push_back(it->second);
    } else if (IsVirtualTableName(ref.table)) {
      std::unique_ptr<Table> snapshot = MaterializeVirtualTable(ref.table);
      t = snapshot.get();
      out->owned.push_back(std::move(snapshot));
    }
    if (t == nullptr) return Status::NotFound("table '" + ref.table + "'");
    out->tables.emplace(ref.table, t);
  }
  // Reuse the thread's pinned snapshot if one is open (multi-statement
  // consistency), else register a fresh one at the current visible LSN. An
  // open transaction's own provisional stamps stay visible to its
  // statements (read-your-own-writes).
  if (pin != nullptr) {
    out->view.snapshot = pin->lsn();
  } else {
    out->snapshot.emplace();
    out->view.snapshot = out->snapshot->lsn();
  }
  out->view.own_txn = MvccTransaction::CurrentTxnId();
  out->scoped.emplace(out->view);
  if (lock_wait_us != nullptr) {
    *lock_wait_us += static_cast<int64_t>(wait.ElapsedMicros());
  }
  return Status::OK();
}

Status Database::LockTableExclusive(const std::string& name, Table** table,
                                    std::shared_ptr<Table>* pin,
                                    std::unique_lock<std::shared_mutex>* lock,
                                    int64_t* lock_wait_us) {
  if (IsVirtualTableName(name)) {
    return Status::InvalidArgument("virtual table '" + name +
                                   "' is read-only");
  }
  Stopwatch wait;
  std::shared_lock<std::shared_mutex> catalog(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table '" + name + "'");
  *table = it->second.get();
  *pin = it->second;
  *lock = std::unique_lock<std::shared_mutex>((*table)->mutex());
  if (lock_wait_us != nullptr) {
    *lock_wait_us += static_cast<int64_t>(wait.ElapsedMicros());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Virtual tables: read-only snapshots of live engine state, materialized at
// table-resolve time (under the shared catalog lock) and scanned through
// the normal planner like any base table.

bool Database::IsVirtualTableName(const std::string& name) {
  return name == "xmlrdb_metrics" || name == "xmlrdb_statements" ||
         name == "xmlrdb_tables" || name == "xmlrdb_sessions" ||
         name == "xmlrdb_resources" || name == "xmlrdb_shards";
}

namespace {

Column MakeColumn(const char* name, DataType type) {
  Column c;
  c.name = name;
  c.type = type;
  return c;
}

}  // namespace

std::unique_ptr<Table> Database::MaterializeVirtualTable(
    const std::string& name) const {
  std::vector<Row> rows;
  Schema schema;
  if (name == "xmlrdb_metrics") {
    schema = Schema({MakeColumn("name", DataType::kString),
                     MakeColumn("value", DataType::kInt)});
    MetricsRegistry& reg = MetricsRegistry::Global();
    for (const auto& [counter, value] : reg.Snapshot()) {
      rows.push_back({Value(counter), Value(value)});
    }
    for (const auto& [hist, snap] : reg.HistogramSnapshots()) {
      rows.push_back({Value(hist + ".count"), Value(snap.count)});
      rows.push_back(
          {Value(hist + ".p50"),
           Value(static_cast<int64_t>(std::llround(snap.p50())))});
      rows.push_back(
          {Value(hist + ".p95"),
           Value(static_cast<int64_t>(std::llround(snap.p95())))});
      rows.push_back(
          {Value(hist + ".p99"),
           Value(static_cast<int64_t>(std::llround(snap.p99())))});
      rows.push_back({Value(hist + ".max"), Value(snap.max)});
    }
  } else if (name == "xmlrdb_statements") {
    schema = Schema({MakeColumn("seq", DataType::kInt),
                     MakeColumn("kind", DataType::kString),
                     MakeColumn("sql", DataType::kString),
                     MakeColumn("duration_us", DataType::kInt),
                     MakeColumn("lock_wait_us", DataType::kInt),
                     MakeColumn("rows", DataType::kInt),
                     MakeColumn("slow", DataType::kInt),
                     MakeColumn("cache_hit", DataType::kInt),
                     MakeColumn("request_id", DataType::kInt),
                     MakeColumn("plan", DataType::kString)});
    for (const StatementLogEntry& e : statement_log_.Entries()) {
      rows.push_back({Value(e.seq), Value(e.kind), Value(e.sql),
                      Value(e.duration_us), Value(e.lock_wait_us),
                      Value(e.rows), Value(static_cast<int64_t>(e.slow ? 1 : 0)),
                      Value(static_cast<int64_t>(e.cache_hit ? 1 : 0)),
                      Value(e.request_id), Value(e.plan)});
    }
  } else if (name == "xmlrdb_resources") {
    schema = Schema({MakeColumn("name", DataType::kString),
                     MakeColumn("value", DataType::kInt)});
    for (const auto& [gauge, value] : ResourceTracker::Global().Snapshot()) {
      rows.push_back({Value(gauge), Value(value)});
    }
  } else if (name == "xmlrdb_tables") {
    schema = Schema({MakeColumn("name", DataType::kString),
                     MakeColumn("rows", DataType::kInt),
                     MakeColumn("bytes", DataType::kInt),
                     MakeColumn("indexes", DataType::kInt)});
    // Called under the shared catalog lock: iterate tables_ directly. Row
    // and index counts read under each table's shared lock (same
    // catalog-then-table order every statement uses).
    for (const auto& [table_name, t] : tables_) {
      size_t live = 0;
      size_t num_indexes = 0;
      {
        std::shared_lock<std::shared_mutex> table_lock(t->mutex());
        live = t->num_rows();
        num_indexes = t->indexes().size();
      }
      rows.push_back({Value(table_name), Value(static_cast<int64_t>(live)),
                      Value(static_cast<int64_t>(t->FootprintBytes())),
                      Value(static_cast<int64_t>(num_indexes))});
    }
  } else if (name == "xmlrdb_sessions") {
    schema = Schema({MakeColumn("id", DataType::kInt),
                     MakeColumn("peer", DataType::kString),
                     MakeColumn("state", DataType::kString),
                     MakeColumn("age_us", DataType::kInt),
                     MakeColumn("statements", DataType::kInt),
                     MakeColumn("pending", DataType::kInt),
                     MakeColumn("busy_rejected", DataType::kInt),
                     MakeColumn("prepared_statements", DataType::kInt)});
    std::function<std::vector<SessionInfo>()> provider;
    {
      std::lock_guard<std::mutex> lock(session_provider_mu_);
      provider = session_provider_;
    }
    if (provider) {
      for (const SessionInfo& s : provider()) {
        rows.push_back({Value(s.id), Value(s.peer), Value(s.state),
                        Value(s.age_us), Value(s.statements),
                        Value(s.pending), Value(s.busy_rejected),
                        Value(s.prepared_statements)});
      }
    }
  } else if (name == "xmlrdb_shards") {
    schema = Schema({MakeColumn("shard", DataType::kInt),
                     MakeColumn("scope", DataType::kString),
                     MakeColumn("docs", DataType::kInt),
                     MakeColumn("requests", DataType::kInt),
                     MakeColumn("errors", DataType::kInt),
                     MakeColumn("plancache_hits", DataType::kInt),
                     MakeColumn("plancache_misses", DataType::kInt),
                     MakeColumn("footprint_bytes", DataType::kInt),
                     MakeColumn("version_bytes", DataType::kInt),
                     MakeColumn("dir", DataType::kString)});
    std::function<std::vector<ShardInfo>()> provider;
    {
      std::lock_guard<std::mutex> lock(session_provider_mu_);
      provider = shard_provider_;
    }
    if (provider) {
      for (const ShardInfo& s : provider()) {
        rows.push_back({Value(s.shard), Value(s.scope), Value(s.docs),
                        Value(s.requests), Value(s.errors),
                        Value(s.plancache_hits), Value(s.plancache_misses),
                        Value(s.footprint_bytes), Value(s.version_bytes),
                        Value(s.dir)});
      }
    }
  }
  // The snapshot is private until the statement's read set publishes it to
  // the planner, so fill it without touching its mutex: acquiring it here
  // would thread the ephemeral table into the lock-order graph for nothing.
  // It is also statement-private state, not shared data — no versioning.
  auto table = std::make_unique<Table>(name, std::move(schema));
  table->set_mvcc(false);
  for (Row& r : rows) {
    auto inserted = table->InsertUnlocked(std::move(r));
    (void)inserted;
  }
  return table;
}

Result<PlanPtr> Database::PlanWithTables(const SelectStmt& stmt,
                                         const ReadTables& tables) const {
  Planner planner(
      [&tables](const std::string& name) -> const Table* {
        auto it = tables.tables.find(name);
        return it == tables.tables.end() ? nullptr : it->second;
      },
      planner_options_);
  return planner.PlanSelect(stmt);
}

// ---------------------------------------------------------------------------
// SQL entry points.

namespace {

const char* StatementKind(const Statement& stmt) {
  if (std::holds_alternative<SelectStmt>(stmt)) return "select";
  if (std::holds_alternative<CreateTableStmt>(stmt)) return "create_table";
  if (std::holds_alternative<CreateIndexStmt>(stmt)) return "create_index";
  if (std::holds_alternative<DropTableStmt>(stmt)) return "drop_table";
  if (std::holds_alternative<InsertStmt>(stmt)) return "insert";
  if (std::holds_alternative<DeleteStmt>(stmt)) return "delete";
  if (std::holds_alternative<UpdateStmt>(stmt)) return "update";
  if (std::holds_alternative<ExplainStmt>(stmt)) return "explain";
  return "other";
}

}  // namespace

Result<QueryResult> Database::Execute(std::string_view sql) {
  ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  const char* kind = StatementKind(stmt);
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (reg.enabled()) {
    reg.Add("sql.statements", 1);
    reg.Add("sql.parsed", 1);
    reg.Add(std::string("sql.") + kind, 1);
  }
  StatementExec exec;
  Stopwatch timer;
  Result<QueryResult> result = QueryResult{};
  {
    // The statement span: everything the statement does — planning, morsel
    // workers on pool threads, nested scratch statements — nests under it.
    ScopedSpan span(std::string("sql.") + kind, "sql");
    result = Dispatch(stmt, &exec);
  }
  const int64_t duration_us = static_cast<int64_t>(timer.ElapsedMicros());
  if (reg.enabled()) {
    reg.RecordLatency(std::string("sql.") + kind + ".latency_us", duration_us);
    // Always record (zeros included): the lock-wait distribution is the
    // point — under MVCC a read-heavy mix should show a p95 of ~0.
    reg.RecordLatency("stmt.lock_wait_us", exec.lock_wait_us);
    reg.RecordLatency(std::string("stmt.") + kind + ".lock_wait_us",
                      exec.lock_wait_us);
    if (exec.lock_wait_us > 0) reg.Add("sql.lock_wait_us", exec.lock_wait_us);
  }
  const int64_t threshold = slow_query_threshold_us();
  const bool slow = threshold >= 0 && duration_us >= threshold;
  if (slow && reg.enabled()) reg.Add("sql.slow_statements", 1);
  if (statement_log_.capacity() > 0) {
    StatementLogEntry entry;
    entry.sql = std::string(sql);
    entry.kind = kind;
    entry.duration_us = duration_us;
    entry.lock_wait_us = exec.lock_wait_us;
    if (!result.ok()) {
      entry.rows = -1;
    } else if (!result.value().rows.empty()) {
      entry.rows = static_cast<int64_t>(result.value().rows.size());
    } else {
      entry.rows = result.value().affected;
    }
    entry.slow = slow;
    entry.request_id = static_cast<int64_t>(trace::CurrentRequestId());
    if (slow) entry.plan = std::move(exec.analyzed_plan);
    statement_log_.Append(std::move(entry));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Prepared statements.

namespace {

/// SELECTs over xmlrdb_* virtual tables are materialized per statement, so
/// their plans reference statement-private snapshot tables and must never be
/// cached across executions.
bool ReferencesVirtualTable(const SelectStmt& stmt) {
  for (const TableRef& ref : stmt.from) {
    if (Database::IsVirtualTableName(ref.table)) return true;
  }
  return false;
}

}  // namespace

Result<PreparedStatement> Database::Prepare(std::string_view sql) {
  std::string key(sql);
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (std::shared_ptr<PlanCacheEntry> entry = plan_cache_.Lookup(key)) {
    if (reg.enabled()) reg.Add("plancache.hits", 1);
    return PreparedStatement(this, std::move(entry));
  }
  if (reg.enabled()) {
    reg.Add("plancache.misses", 1);
    reg.Add("sql.parsed", 1);
  }
  ASSIGN_OR_RETURN(ParsedStatement parsed, ParseSqlWithParams(sql));
  auto entry = std::make_shared<PlanCacheEntry>();
  entry->sql = std::move(key);
  entry->kind = StatementKind(parsed.stmt);
  if (auto* s = std::get_if<SelectStmt>(&parsed.stmt)) {
    entry->cache_plan = !ReferencesVirtualTable(*s);
  }
  entry->parsed = std::move(parsed);
  entry = plan_cache_.Insert(std::move(entry));
  return PreparedStatement(this, std::move(entry));
}

Result<QueryResult> PreparedStatement::Execute(std::vector<Value> params) {
  if (db_ == nullptr) return Status::Internal("empty PreparedStatement");
  return db_->ExecutePrepared(entry_.get(), std::move(params));
}

Result<std::string> PreparedStatement::ExplainPlan() {
  if (db_ == nullptr) return Status::Internal("empty PreparedStatement");
  return db_->ExplainPrepared(entry_.get());
}

Result<QueryResult> Database::ExecutePrepared(PlanCacheEntry* entry,
                                              std::vector<Value> params) {
  if (params.size() != entry->parsed.param_count) {
    return Status::InvalidArgument(
        "statement takes " + std::to_string(entry->parsed.param_count) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (reg.enabled()) {
    reg.Add("sql.statements", 1);
    reg.Add("sql." + entry->kind, 1);
  }
  StatementExec exec;
  Stopwatch timer;
  bool cache_hit = false;
  Result<QueryResult> result = QueryResult{};
  {
    ScopedSpan span("sql." + entry->kind, "sql");
    std::unique_lock<std::mutex> checkout(entry->exec_mu, std::try_to_lock);
    if (checkout.owns_lock()) {
      if (entry->parsed.params != nullptr) {
        *entry->parsed.params = std::move(params);
      }
      if (entry->cache_plan) {
        result = RunSelectPrepared(entry, &exec, &cache_hit);
      } else {
        result = Dispatch(entry->parsed.stmt, &exec);
      }
    } else {
      // Another thread is executing this exact statement right now. Rather
      // than serialize behind it (the AST, param block and plan are all
      // single-checkout state), fall back to a fresh uncached parse+plan.
      if (reg.enabled()) {
        reg.Add("plancache.checkout_fallbacks", 1);
        reg.Add("sql.parsed", 1);
      }
      auto parsed_or = ParseSqlWithParams(entry->sql);
      if (!parsed_or.ok()) {
        result = parsed_or.status();
      } else {
        ParsedStatement fresh = std::move(parsed_or.value());
        if (fresh.params != nullptr) *fresh.params = std::move(params);
        result = Dispatch(fresh.stmt, &exec);
      }
    }
  }
  const int64_t duration_us = static_cast<int64_t>(timer.ElapsedMicros());
  if (reg.enabled()) {
    reg.RecordLatency("sql." + entry->kind + ".latency_us", duration_us);
    reg.RecordLatency("stmt.lock_wait_us", exec.lock_wait_us);
    reg.RecordLatency("stmt." + entry->kind + ".lock_wait_us",
                      exec.lock_wait_us);
    if (exec.lock_wait_us > 0) reg.Add("sql.lock_wait_us", exec.lock_wait_us);
  }
  const int64_t threshold = slow_query_threshold_us();
  const bool slow = threshold >= 0 && duration_us >= threshold;
  if (slow && reg.enabled()) reg.Add("sql.slow_statements", 1);
  if (statement_log_.capacity() > 0) {
    StatementLogEntry log_entry;
    log_entry.sql = entry->sql;
    log_entry.kind = entry->kind;
    log_entry.duration_us = duration_us;
    log_entry.lock_wait_us = exec.lock_wait_us;
    if (!result.ok()) {
      log_entry.rows = -1;
    } else if (!result.value().rows.empty()) {
      log_entry.rows = static_cast<int64_t>(result.value().rows.size());
    } else {
      log_entry.rows = result.value().affected;
    }
    log_entry.slow = slow;
    log_entry.cache_hit = cache_hit;
    log_entry.request_id = static_cast<int64_t>(trace::CurrentRequestId());
    if (slow) log_entry.plan = std::move(exec.analyzed_plan);
    statement_log_.Append(std::move(log_entry));
  }
  return result;
}

Result<QueryResult> Database::RunSelectPrepared(PlanCacheEntry* entry,
                                                StatementExec* exec,
                                                bool* cache_hit) {
  const SelectStmt& stmt = std::get<SelectStmt>(entry->parsed.stmt);
  ReadTables tables;
  RETURN_IF_ERROR(ResolveReadTables(
      stmt.from, &tables, exec != nullptr ? &exec->lock_wait_us : nullptr));
  // Validate the cached plan against the catalog generation: version
  // equality proves no DDL ran since planning, so every Table/Index pointer
  // baked into the plan names a table this statement has pinned (and the
  // pins keep the objects alive past any later DROP).
  const int64_t version = schema_version_.load(std::memory_order_acquire);
  if (entry->plan == nullptr || entry->planned_version != version) {
    if (entry->plan != nullptr) {
      plan_cache_.RecordInvalidation();
      MetricsRegistry& reg = MetricsRegistry::Global();
      if (reg.enabled()) reg.Add("plancache.invalidations", 1);
      entry->plan.reset();
    }
    ASSIGN_OR_RETURN(entry->plan, PlanWithTables(stmt, tables));
    entry->planned_version = version;
  } else {
    *cache_hit = true;
    // Reuse: the per-statement consumers (FlushPlanMetrics, slow-query
    // EXPLAIN ANALYZE) expect stats for this execution only.
    entry->plan->ResetStats();
  }
  const bool capture_plan = slow_query_threshold_us() >= 0;
  if (capture_plan) entry->plan->EnableAnalyze();
  QueryResult out;
  out.schema = entry->plan->output_schema();
  auto rows_or = ExecutePlan(entry->plan.get());
  if (!rows_or.ok()) {
    // Don't trust a plan whose execution failed midway; rebuild next time.
    entry->plan.reset();
    return rows_or.status();
  }
  out.rows = std::move(rows_or.value());
  FlushPlanMetrics(*entry->plan);
  if (capture_plan && exec != nullptr) {
    exec->analyzed_plan = entry->plan->ExplainAnalyze();
  }
  return out;
}

Result<std::string> Database::ExplainPrepared(PlanCacheEntry* entry) {
  auto* stmt = std::get_if<SelectStmt>(&entry->parsed.stmt);
  if (stmt == nullptr) {
    return Status::InvalidArgument("EXPLAIN requires a SELECT statement");
  }
  std::lock_guard<std::mutex> checkout(entry->exec_mu);
  ReadTables tables;
  RETURN_IF_ERROR(ResolveReadTables(stmt->from, &tables));
  if (!entry->cache_plan) {
    ASSIGN_OR_RETURN(PlanPtr plan, PlanWithTables(*stmt, tables));
    return plan->Explain();
  }
  const int64_t version = schema_version_.load(std::memory_order_acquire);
  if (entry->plan == nullptr || entry->planned_version != version) {
    if (entry->plan != nullptr) {
      plan_cache_.RecordInvalidation();
      entry->plan.reset();
    }
    ASSIGN_OR_RETURN(entry->plan, PlanWithTables(*stmt, tables));
    entry->planned_version = version;
  }
  return entry->plan->Explain();
}

Result<QueryResult> Database::Dispatch(const Statement& stmt,
                                       StatementExec* exec) {
  if (auto* s = std::get_if<SelectStmt>(&stmt)) return RunSelect(*s, exec);
  if (auto* s = std::get_if<CreateTableStmt>(&stmt)) return RunCreateTable(*s);
  if (auto* s = std::get_if<CreateIndexStmt>(&stmt)) {
    return RunCreateIndex(*s, exec);
  }
  if (auto* s = std::get_if<DropTableStmt>(&stmt)) return RunDropTable(*s);
  if (auto* s = std::get_if<InsertStmt>(&stmt)) return RunInsert(*s, exec);
  if (auto* s = std::get_if<DeleteStmt>(&stmt)) return RunDelete(*s, exec);
  if (auto* s = std::get_if<UpdateStmt>(&stmt)) return RunUpdate(*s, exec);
  if (auto* s = std::get_if<ExplainStmt>(&stmt)) return RunExplain(*s, exec);
  return Status::Internal("unhandled statement type");
}

Result<PlanPtr> Database::Plan(const SelectStmt& stmt) const {
  ReadTables tables;
  RETURN_IF_ERROR(ResolveReadTables(stmt.from, &tables));
  return PlanWithTables(stmt, tables);
}

Result<PlanPtr> Database::PlanSql(std::string_view select_sql) const {
  ASSIGN_OR_RETURN(Statement stmt, ParseSql(select_sql));
  auto* s = std::get_if<SelectStmt>(&stmt);
  if (s == nullptr) return Status::InvalidArgument("expected a SELECT");
  return Plan(*s);
}

Result<QueryResult> Database::RunSelect(const SelectStmt& stmt,
                                        StatementExec* exec) {
  ReadTables tables;
  RETURN_IF_ERROR(ResolveReadTables(
      stmt.from, &tables, exec != nullptr ? &exec->lock_wait_us : nullptr));
  ASSIGN_OR_RETURN(PlanPtr plan, PlanWithTables(stmt, tables));
  // Slow-query tracking: pay for per-operator timing up front so an
  // offender can log the plan tree it actually ran with.
  const bool capture_plan = slow_query_threshold_us() >= 0;
  if (capture_plan) plan->EnableAnalyze();
  QueryResult out;
  out.schema = plan->output_schema();
  ASSIGN_OR_RETURN(out.rows, ExecutePlan(plan.get()));
  FlushPlanMetrics(*plan);
  if (capture_plan && exec != nullptr) {
    exec->analyzed_plan = plan->ExplainAnalyze();
  }
  return out;
}

Result<QueryResult> Database::RunExplain(const ExplainStmt& stmt,
                                         StatementExec* exec) {
  ReadTables tables;
  RETURN_IF_ERROR(ResolveReadTables(
      stmt.select->from, &tables,
      exec != nullptr ? &exec->lock_wait_us : nullptr));
  ASSIGN_OR_RETURN(PlanPtr plan, PlanWithTables(*stmt.select, tables));
  QueryResult out;
  if (stmt.analyze) {
    plan->EnableAnalyze();
    ASSIGN_OR_RETURN(std::vector<Row> rows, ExecutePlan(plan.get()));
    FlushPlanMetrics(*plan);
    out.affected = static_cast<int64_t>(rows.size());
    out.plan_text = plan->ExplainAnalyze();
  } else {
    out.plan_text = plan->Explain();
  }
  return out;
}

Result<QueryResult> Database::RunCreateTable(const CreateTableStmt& stmt) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  ASSIGN_OR_RETURN([[maybe_unused]] Table* t,
                   CreateTableLocked(stmt.name, Schema(stmt.columns)));
  return QueryResult{};
}

Result<QueryResult> Database::RunCreateIndex(const CreateIndexStmt& stmt,
                                             StatementExec* exec) {
  Table* t = nullptr;
  std::shared_ptr<Table> pin;
  std::unique_lock<std::shared_mutex> lock;
  RETURN_IF_ERROR(LockTableExclusive(stmt.table, &t, &pin, &lock,
                                     exec != nullptr ? &exec->lock_wait_us
                                                     : nullptr));
  RETURN_IF_ERROR(t->CreateIndexUnlocked(stmt.index, stmt.columns));
  // Cached plans were costed without this index; invalidate so the next
  // prepared execution can switch its access path. Open snapshots may use
  // the index at once: its back-fill covers every row version they see.
  BumpSchemaVersion();
  return QueryResult{};
}

Result<QueryResult> Database::RunDropTable(const DropTableStmt& stmt) {
  Status st = DropTable(stmt.name);
  if (!st.ok() && stmt.if_exists && st.code() == StatusCode::kNotFound) {
    return QueryResult{};
  }
  RETURN_IF_ERROR(st);
  return QueryResult{};
}

Result<QueryResult> Database::RunInsert(const InsertStmt& stmt,
                                        StatementExec* exec) {
  Table* t = nullptr;
  std::shared_ptr<Table> pin;
  std::unique_lock<std::shared_mutex> lock;
  RETURN_IF_ERROR(LockTableExclusive(stmt.table, &t, &pin, &lock,
                                     exec != nullptr ? &exec->lock_wait_us
                                                     : nullptr));
  // One MVCC visibility unit: snapshots see the whole statement's rows at a
  // single commit LSN or none of them (a no-op inside an outer transaction).
  MvccTransaction txn;
  QueryResult out;
  Row empty;
  for (const auto& exprs : stmt.rows) {
    Row row;
    row.reserve(exprs.size());
    for (const auto& e : exprs) {
      // VALUES expressions are constant: evaluate against an empty row.
      // (Column references would fail Bind and are rejected here.)
      ExprPtr c = e->Clone();
      Schema no_schema;
      RETURN_IF_ERROR(c->Bind(no_schema));
      ASSIGN_OR_RETURN(Value v, c->Eval(empty));
      row.push_back(std::move(v));
    }
    ASSIGN_OR_RETURN([[maybe_unused]] RowId rid,
                     t->InsertUnlocked(std::move(row)));
    ++out.affected;
  }
  return out;
}

Result<QueryResult> Database::RunDelete(const DeleteStmt& stmt,
                                        StatementExec* exec) {
  Table* t = nullptr;
  std::shared_ptr<Table> pin;
  std::unique_lock<std::shared_mutex> lock;
  RETURN_IF_ERROR(LockTableExclusive(stmt.table, &t, &pin, &lock,
                                     exec != nullptr ? &exec->lock_wait_us
                                                     : nullptr));
  MvccTransaction txn;
  ExprPtr pred;
  if (stmt.where != nullptr) {
    pred = stmt.where->Clone();
    RETURN_IF_ERROR(pred->Bind(t->schema().WithQualifier(t->name())));
  }
  std::vector<RowId> to_delete;
  for (RowId rid = 0; rid < t->num_slots(); ++rid) {
    if (!t->IsLive(rid)) continue;
    if (pred != nullptr) {
      ASSIGN_OR_RETURN(bool pass, pred->EvalBool(t->row(rid)));
      if (!pass) continue;
    }
    to_delete.push_back(rid);
  }
  for (RowId rid : to_delete) RETURN_IF_ERROR(t->DeleteUnlocked(rid));
  QueryResult out;
  out.affected = static_cast<int64_t>(to_delete.size());
  return out;
}

Result<QueryResult> Database::RunUpdate(const UpdateStmt& stmt,
                                        StatementExec* exec) {
  Table* t = nullptr;
  std::shared_ptr<Table> pin;
  std::unique_lock<std::shared_mutex> lock;
  RETURN_IF_ERROR(LockTableExclusive(stmt.table, &t, &pin, &lock,
                                     exec != nullptr ? &exec->lock_wait_us
                                                     : nullptr));
  MvccTransaction txn;
  Schema bound_schema = t->schema().WithQualifier(t->name());
  ExprPtr pred;
  if (stmt.where != nullptr) {
    pred = stmt.where->Clone();
    RETURN_IF_ERROR(pred->Bind(bound_schema));
  }
  std::vector<std::pair<size_t, ExprPtr>> sets;
  for (const auto& [col, expr] : stmt.assignments) {
    ASSIGN_OR_RETURN(size_t idx, t->schema().IndexOf(col));
    ExprPtr e = expr->Clone();
    RETURN_IF_ERROR(e->Bind(bound_schema));
    sets.emplace_back(idx, std::move(e));
  }
  QueryResult out;
  for (RowId rid = 0; rid < t->num_slots(); ++rid) {
    if (!t->IsLive(rid)) continue;
    if (pred != nullptr) {
      ASSIGN_OR_RETURN(bool pass, pred->EvalBool(t->row(rid)));
      if (!pass) continue;
    }
    Row updated = t->row(rid);
    for (const auto& [idx, e] : sets) {
      ASSIGN_OR_RETURN(Value v, e->Eval(t->row(rid)));
      updated[idx] = std::move(v);
    }
    RETURN_IF_ERROR(t->UpdateUnlocked(rid, std::move(updated)));
    ++out.affected;
  }
  return out;
}

}  // namespace xmlrdb::rdb
