// Row-store tables with MVCC version chains and secondary B+-tree indexes.
//
// Each row id names a slot in a chunked, append-only slot directory; a slot
// holds the newest version of the row, chained (newest first) to older
// versions. Versions carry LSN stamps (see rdb/mvcc.h): `created` is the
// commit LSN that produced the version, `deleted` the commit LSN that
// removed it (0 = live). Snapshot readers walk a chain lock-free to the
// first version their read view can see; writer-side accessors (IsLive,
// row) see the newest state. Row ids stay stable for index entries; the
// slot directory grows by chunks whose pointers are published atomically,
// so readers never race a reallocation.
//
// Concurrency: mutators (Insert, InsertMany, Delete, Update, CreateIndex)
// acquire the table's writer mutex exclusively themselves; the SQL engine
// takes statement-scope exclusive locks for DML in Database::Execute and
// calls the *Unlocked variants. Read-only statements take NO table lock —
// they scan through VisibleRow under a snapshot read view. Index structures
// get their own small latch (index_mu_): writers hold it exclusively per
// tree operation, lock-free readers hold it shared for the duration of one
// lookup or index-list scan.
//
// Index entries under MVCC are maintained lazily: Delete keeps the entries
// (old snapshots still need them), Update only adds entries for changed
// keys, and CreateIndex back-fills an entry for every version on each chain
// (so snapshots older than the index can use it). Scans therefore re-verify
// that the visible version's key matches the entry; garbage collection
// removes entries whose versions no snapshot can reach.
//
// Tables can opt out of versioning (set_mvcc(false)) — used for transient
// scratch tables and virtual-table snapshots, which are statement- or
// thread-private: their mutations stamp nothing, update in place, and
// maintain indexes eagerly, exactly like the pre-MVCC engine.

#ifndef XMLRDB_RDB_TABLE_H_
#define XMLRDB_RDB_TABLE_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdb/btree.h"
#include "rdb/mvcc.h"
#include "rdb/schema.h"
#include "rdb/value.h"

namespace xmlrdb::rdb {

using RowId = uint64_t;

class Table;

/// One version of a row. `created`/`deleted` hold commit LSNs or
/// provisional stamps (rdb/mvcc.h); `next` points at the next-older
/// version. Readers touch versions lock-free; all fields a reader loads
/// are atomics published with release stores.
struct RowVersion {
  explicit RowVersion(Row r) : row(std::move(r)) {}
  Row row;
  std::atomic<uint64_t> created{0};
  std::atomic<uint64_t> deleted{0};
  std::atomic<RowVersion*> next{nullptr};
};

/// Observer of a table's mutations — the write-ahead log implements this to
/// obtain a redo record for every row change and index creation, no matter
/// whether the mutation arrived through a SQL statement or a direct call
/// from a shredding mapping. Callbacks run with the table's exclusive lock
/// held, after validation and *before* the in-memory change is applied; an
/// error return vetoes the mutation (the caller sees the error and the table
/// is untouched). Rows are identified by value, not RowId: row ids are not
/// stable across a snapshot save/load cycle, row contents are.
class TableMutationSink {
 public:
  virtual ~TableMutationSink() = default;
  virtual Status OnInsert(const Table& table, const Row& row) = 0;
  virtual Status OnDelete(const Table& table, const Row& row) = 0;
  virtual Status OnUpdate(const Table& table, const Row& old_row,
                          const Row& new_row) = 0;
  virtual Status OnCreateIndex(const Table& table, const std::string& name,
                               const std::vector<std::string>& columns) = 0;
};

/// A secondary index over one or more columns of a table. Tree access must
/// be covered by the owning table's index latch — Table's lookup wrappers
/// (IndexEntriesInRange, and the mutators) do that; direct tree use is only
/// safe single-threaded (tests).
class Index {
 public:
  Index(std::string name, const Table* table, std::vector<size_t> key_columns);

  const std::string& name() const { return name_; }
  const std::vector<size_t>& key_columns() const { return key_columns_; }
  size_t num_entries() const { return tree_.size(); }
  const BTree& tree() const { return tree_; }

  /// Row ids whose key columns equal `key` (key.size() may be a prefix of
  /// the index key), in key order.
  std::vector<RowId> LookupEqual(const Row& key) const;

  /// Row ids whose key is within [lower, upper] under prefix comparison;
  /// either bound may be empty (unbounded). Bound inclusivity is per-side.
  std::vector<RowId> LookupRange(const Row& lower, bool lower_inclusive,
                                 const Row& upper, bool upper_inclusive) const;

  /// Full index entries (key columns + rid) within the bounds, in key
  /// order. MVCC scans need the entry key to reject entries whose version
  /// is not the one visible at the snapshot.
  std::vector<Row> EntriesInRange(const Row& lower, bool lower_inclusive,
                                  const Row& upper,
                                  bool upper_inclusive) const;

  /// True if the first `n` index key columns equal `cols[0..n)`.
  bool MatchesPrefix(const std::vector<size_t>& cols) const;

 private:
  friend class Table;
  /// Returns whether the tree changed (false = entry already present /
  /// already absent — expected under lazy MVCC maintenance).
  bool Add(const Row& row, RowId rid);
  bool Remove(const Row& row, RowId rid);
  Row MakeKey(const Row& row, RowId rid) const;
  /// True when the entry's row is live and still carries the entry's key
  /// (lazy maintenance keeps entries for deleted rows and old keys).
  bool EntryIsCurrent(const Row& entry_key) const;

  std::string name_;
  const Table* table_;
  std::vector<size_t> key_columns_;
  BTree tree_;
};

/// Version-GC outcome of one collection pass over a table.
struct TableGcStats {
  size_t versions_freed = 0;       ///< chain versions handed to limbo
  size_t versions_reclaimed = 0;   ///< limbo versions actually freed
  size_t index_entries_removed = 0;
  int64_t bytes_unlinked = 0;      ///< row bytes leaving the version gauge
};

class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}
  ~Table();

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// The table's writer lock. Mutators hold it exclusive; statement-scope
  /// DML in Database does the same. Snapshot readers do NOT take it —
  /// shared acquisition remains for writer-side consistency checks
  /// (FootprintBytes, stats). Lock tables in ascending name order when
  /// taking several.
  std::shared_mutex& mutex() const { return mu_; }

  /// MVCC versioning toggle; default on. Turn off (before first insert)
  /// for statement-/thread-private tables: mutations then keep latest
  /// state only, with eager index maintenance.
  void set_mvcc(bool enabled) { mvcc_ = enabled; }
  bool mvcc_enabled() const { return mvcc_; }

  /// Backpointer used to pin the table alive across an in-flight
  /// transaction's commit (Database sets it when it owns the table).
  void set_self(std::weak_ptr<const Table> self) { self_ = std::move(self); }

  /// Live (non-deleted) row count, newest state.
  size_t num_rows() const { return live_rows_.load(std::memory_order_acquire); }
  /// Physical slot count including tombstones.
  size_t num_slots() const {
    return num_slots_.load(std::memory_order_acquire);
  }

  /// Validates against the schema, appends, and maintains indexes.
  /// Takes mutex() exclusively; use InsertUnlocked when already holding it.
  Result<RowId> Insert(Row row);
  Result<RowId> InsertUnlocked(Row row);

  /// Batch insert without per-row Status overhead; stops at first error.
  /// Holds mutex() exclusively for the whole batch and commits it as one
  /// MVCC visibility unit (snapshot readers see all rows or none).
  Status InsertMany(std::vector<Row> rows);

  /// Marks the newest version deleted. Under MVCC the version and its
  /// index entries stay reachable for older snapshots until GC.
  Status Delete(RowId rid);
  Status DeleteUnlocked(RowId rid);

  /// Replaces a row: pushes a new version onto the chain (MVCC) or updates
  /// in place (non-MVCC). Revalidates and maintains indexes.
  Status Update(RowId rid, Row row);
  Status UpdateUnlocked(RowId rid, Row row);

  /// Drops every row (and tombstone slot) and empties all indexes; the
  /// schema and index definitions stay. Unlike repeated Delete, slots do
  /// not accumulate — scratch tables reused across queries stay small.
  /// Takes mutex() exclusively. Bypasses the mutation sink: Truncate is for
  /// transient scratch tables, which are never logged.
  void Truncate();

  /// Newest-state liveness (writer view): the slot has a version and it is
  /// not deleted (committed or in-flight).
  bool IsLive(RowId rid) const {
    const RowVersion* v = head(rid);
    return v != nullptr && v->deleted.load(std::memory_order_acquire) == 0;
  }
  /// Newest version's row. Caller guarantees the slot is populated (writer
  /// context, or rid < num_slots of a live row).
  const Row& row(RowId rid) const { return head(rid)->row; }

  /// The version of slot `rid` visible to `view`, or nullptr. Lock-free;
  /// safe under an active registered snapshot (or any context that
  /// excludes GC). The returned row is stable for the snapshot's lifetime.
  const Row* VisibleRow(RowId rid, const MvccReadView& view) const {
    const RowVersion* v = head(rid);
    if (v == nullptr) return nullptr;
    if (!mvcc_ || view.read_latest) {
      return v->deleted.load(std::memory_order_acquire) == 0 ? &v->row
                                                             : nullptr;
    }
    for (; v != nullptr; v = v->next.load(std::memory_order_acquire)) {
      if (!view.CreatedVisible(v->created.load(std::memory_order_acquire))) {
        continue;  // too new (or foreign in-flight): try an older version
      }
      if (view.DeletedVisible(v->deleted.load(std::memory_order_acquire))) {
        return nullptr;  // deleted before the snapshot
      }
      return &v->row;
    }
    return nullptr;
  }

  /// Creates a secondary index named `name` over `column_names` and
  /// backfills it: from every version on each row's chain under MVCC (so
  /// snapshots older than the index can use it), from live rows otherwise.
  Status CreateIndex(const std::string& name,
                     const std::vector<std::string>& column_names);
  Status CreateIndexUnlocked(const std::string& name,
                             const std::vector<std::string>& column_names);

  /// Raw index list — caller must hold mutex() (any mode) or otherwise
  /// exclude concurrent CreateIndex. Lock-free readers use the latched
  /// accessors below instead.
  const std::vector<std::unique_ptr<Index>>& indexes() const {
    return indexes_;
  }
  const Index* FindIndex(const std::string& name) const;

  /// Snapshot of the index set under the index latch — safe without any
  /// table lock (the planner runs lock-free under MVCC). The pointers live
  /// as long as the table.
  std::vector<const Index*> IndexList() const;

  /// First index whose key starts with exactly these columns, if any.
  /// Takes the index latch shared — safe without any table lock. The
  /// returned index lives as long as the table (Truncate excepted, which
  /// only touches private tables).
  const Index* FindIndexByColumns(const std::vector<size_t>& cols) const;

  /// Latched index-entry range lookup for scans (full keys, key order).
  std::vector<Row> IndexEntriesInRange(const Index* index, const Row& lower,
                                       bool lower_inclusive, const Row& upper,
                                       bool upper_inclusive) const;

  /// Latched point probe: calls fn(entry) for every index entry (key
  /// columns + rid, key order) whose key starts with `prefix`, without
  /// copying the entries. `fn` runs under the shared index latch, so it must
  /// not touch the index set; reading row versions is fine.
  template <typename Fn>
  void ForEachIndexEntry(const Index* index, const Row& prefix, Fn&& fn) const {
    std::shared_lock<std::shared_mutex> il(index_mu_);
    const BTree& tree = index->tree();
    for (BTree::Iterator it = prefix.empty() ? tree.Begin()
                                             : tree.SeekAtLeast(prefix);
         it.Valid(); it.Next()) {
      if (PrefixCompareRows(it.key(), prefix) != 0) break;
      fn(it.key());
    }
  }

  /// Unlinks every version no snapshot at or after `bound` can reach,
  /// removes index entries that served only those versions, and frees
  /// limbo versions once allowed by `floor` (see MvccEngine::ReclaimFloor).
  /// Takes mutex() and the index latch exclusively.
  TableGcStats CollectGarbage(Lsn bound, Lsn floor);

  /// Number of versions parked on the limbo list (tests/introspection).
  size_t LimboSize() const;

  /// Approximate heap footprint of data + indexes (storage benchmark).
  /// Takes mutex() shared.
  size_t FootprintBytes() const;

  /// Bytes currently held by MVCC row versions (the table's contribution
  /// to the mvcc.version_bytes gauge). Takes mutex() shared.
  int64_t version_bytes() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return tracked_version_bytes_;
  }

  /// Installs (or clears, with nullptr) the mutation observer. Set while no
  /// mutator is running — Database attaches the WAL before serving traffic.
  void set_mutation_sink(TableMutationSink* sink) { sink_ = sink; }
  TableMutationSink* mutation_sink() const { return sink_; }

 private:
  // Slot directory: chunk c holds 2^(10+c) slots, so 45 chunk pointers
  // cover ~2^54 rows. Chunk pointers and slot heads are published with
  // release stores; readers index with acquire loads and never see a
  // reallocation (chunks are never moved or freed before the table dies).
  static constexpr size_t kFirstChunkBits = 10;
  static constexpr size_t kNumChunks = 45;
  struct Chunk {
    explicit Chunk(size_t n) : slots(n) {}
    std::vector<std::atomic<RowVersion*>> slots;
  };
  static std::pair<size_t, size_t> SlotPos(RowId rid) {
    uint64_t t = rid + (1ull << kFirstChunkBits);
    size_t level = std::bit_width(t) - 1;
    return {level - kFirstChunkBits, t - (1ull << level)};
  }

  RowVersion* head(RowId rid) const {
    if (rid >= num_slots()) return nullptr;
    auto [c, off] = SlotPos(rid);
    Chunk* ch = chunks_[c].load(std::memory_order_acquire);
    return ch == nullptr ? nullptr
                         : ch->slots[off].load(std::memory_order_acquire);
  }
  /// Appends a slot holding `v` and returns its rid. Writer lock held.
  RowId AppendSlot(RowVersion* v);

  /// Stamps a freshly written provisional/committed stamp according to the
  /// thread's context (replay LSN > open transaction > self-commit) and
  /// returns true if the stamp still needs a self-commit after the call.
  void StampCreate(RowVersion* v, std::vector<std::atomic<uint64_t>*>* own);
  void StampDelete(RowVersion* v, std::vector<std::atomic<uint64_t>*>* own);

  void FreeAllVersions();
  size_t ReclaimLimboLocked(Lsn floor, TableGcStats* stats);

  size_t FootprintBytesUnlocked() const;

  std::string name_;
  Schema schema_;
  mutable std::shared_mutex mu_;
  /// Latch over indexes_ and every tree inside it (see file comment).
  mutable std::shared_mutex index_mu_;
  std::array<std::atomic<Chunk*>, kNumChunks> chunks_{};
  std::atomic<size_t> num_slots_{0};
  std::atomic<size_t> live_rows_{0};
  bool mvcc_ = true;
  std::weak_ptr<const Table> self_;
  std::vector<std::unique_ptr<Index>> indexes_;
  TableMutationSink* sink_ = nullptr;
  /// Versions unlinked from chains but possibly still referenced by a
  /// reader that acquired its snapshot before the unlink. Each entry is
  /// stamped with the visible LSN observed after the unlink; freed once
  /// every active snapshot is newer (guarded by mu_ exclusive).
  std::deque<std::pair<Lsn, RowVersion*>> limbo_;
  // This table's contribution to the process-wide tables.row_bytes /
  // tables.index_bytes / mvcc.version_bytes resource gauges, maintained
  // incrementally under mu_ so the gauges never require an O(rows) walk.
  // The destructor gives the contribution back — scratch tables and
  // virtual-table snapshots churn constantly and must net to zero.
  int64_t tracked_row_bytes_ = 0;
  int64_t tracked_index_bytes_ = 0;
  int64_t tracked_version_bytes_ = 0;
};

}  // namespace xmlrdb::rdb

#endif  // XMLRDB_RDB_TABLE_H_
